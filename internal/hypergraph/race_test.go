package hypergraph

import (
	"sync"
	"testing"
)

// TestConcurrentLazyIndexBuild shares an un-indexed hypergraph across
// goroutines that all hit the lazily-built incidence index through the
// read accessors. Run under -race this pins the guarantee the solve
// subsystem relies on: the first reader builds the index exactly once
// and everyone else proceeds lock-free — no BuildIndex call required.
func TestConcurrentLazyIndexBuild(t *testing.T) {
	for name, build := range map[string]bool{"lazy": false, "prebuilt": true} {
		t.Run(name, func(t *testing.T) {
			h := Grid(4, 4)
			if build {
				h.BuildIndex()
			}
			mid := SetOf(5, 6, 9, 10)
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					buf := NewEdgeSet(h.NumEdges())
					for i := 0; i < 50; i++ {
						switch (g + i) % 5 {
						case 0:
							if len(h.ComponentsOf(mid, nil)) == 0 {
								t.Error("ComponentsOf: no components")
							}
						case 1:
							buf = h.EdgesIntersectingSet(mid, buf)
							if buf.IsEmpty() {
								t.Error("EdgesIntersectingSet: empty")
							}
						case 2:
							if h.IncidentEdges(0).Count() <= 0 {
								t.Error("IncidentEdges(0): empty")
							}
						case 3:
							if h.CoveringEdge(h.Edge(0)) < 0 {
								t.Error("CoveringEdge: edge 0 not covered by itself")
							}
						case 4:
							if h.IncidentEdges(5).IsEmpty() {
								t.Error("IncidentEdges(5): empty")
							}
						}
					}
				}(g)
			}
			wg.Wait()
		})
	}
}

// TestConcurrentInducedSub exercises concurrent derived-hypergraph
// construction, which the per-component solver does when fanning out.
func TestConcurrentInducedSub(t *testing.T) {
	h := Grid(4, 4)
	h.BuildIndex()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				sub, _, _ := h.ExtractEdges([]int{0, 1, 2})
				if sub.NumEdges() != 3 {
					t.Error("ExtractEdges: wrong edge count")
				}
				if len(sub.ComponentsOf(NewVertexSet(sub.NumVertices()), nil)) == 0 {
					t.Error("sub ComponentsOf: empty")
				}
			}
		}()
	}
	wg.Wait()
}
