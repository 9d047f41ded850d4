package cover

import (
	"math/rand"
	"testing"

	"hypertree/internal/hypergraph"
)

// Solve only at a fraction of DFS nodes, so a Solve follows several
// pushes and pops at once (as the oracle's memo hits cause in
// practice) and must see exactly the current stack.
func TestIncrementalSparseSolves(t *testing.T) {
	eachPath(t, func(t *testing.T, _ bool) { testIncrementalSparseSolves(t) })
}

func testIncrementalSparseSolves(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := hypergraph.RandomBIP(rng, 10, 8, 4, 2)
		var ic Incremental
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
			union := hypergraph.NewVertexSet(h.NumVertices())
			var rows []hypergraph.VertexSet
			for _, ai := range stack {
				rows = append(rows, atoms[ai])
				union = union.UnionInPlace(atoms[ai])
			}
			want := primalCover(rows, union.Vertices())
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
				ic.Push(atoms[ai])
				walk(depth - 1)
				ic.Pop()
				stack = stack[:len(stack)-1]
			}
		}
		walk(5)
	}
}
