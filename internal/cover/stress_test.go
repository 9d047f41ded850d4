package cover

import (
	"math/rand"
	"testing"

	"hypertree/internal/hypergraph"
)

// Solve only at a fraction of DFS nodes, so sync spans multiple pushes
// and pops at once (as the oracle's memo hits cause in practice). Under
// the float path sync runs only on fallbacks, so the rational run is
// the one that exercises multi-step syncs.
func TestIncrementalSparseSolves(t *testing.T) {
	eachPath(t, func(t *testing.T, _ bool) { testIncrementalSparseSolves(t) })
}

func testIncrementalSparseSolves(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := hypergraph.RandomBIP(rng, 10, 8, 4, 2)
		ic := NewIncremental(h.Vertices())
		var atoms []hypergraph.VertexSet
		for e := 0; e < h.NumEdges(); e++ {
			atoms = append(atoms, h.Edge(e))
		}
		var stack []int
		check := func() {
			if len(stack) == 0 || rng.Intn(3) != 0 {
				return
			}
			got := ic.Solve()
			ref := hypergraph.New()
			for v := 0; v < h.NumVertices(); v++ {
				ref.Vertex(h.VertexName(v))
			}
			union := hypergraph.NewVertexSet(h.NumVertices())
			var es []int
			for i, ai := range stack {
				ref.AddEdgeSet("", atoms[ai])
				union = union.UnionInPlace(atoms[ai])
				es = append(es, i)
			}
			want, _ := solveCoverRational(ref, es, union.Vertices())
			if got == nil || want == nil || got.Cmp(want) != 0 {
				t.Fatalf("seed %d stack %v: got %v want %v", seed, stack, got, want)
			}
		}
		var walk func(depth int)
		walk = func(depth int) {
			check()
			if depth == 0 {
				return
			}
			for trial := 0; trial < 3; trial++ {
				ai := rng.Intn(len(atoms))
				dup := false
				for _, s := range stack {
					if s == ai {
						dup = true
					}
				}
				if dup {
					continue
				}
				stack = append(stack, ai)
				ic.Push(ai, atoms[ai])
				walk(depth - 1)
				ic.Pop()
				stack = stack[:len(stack)-1]
			}
		}
		walk(5)
	}
}
