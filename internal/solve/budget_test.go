package solve

import (
	"context"
	"fmt"
	"testing"
	"time"

	"hypertree/internal/hypergraph"
	"hypertree/internal/lp"
)

// TestLargeSparseBudget: a path and a cycle of 12000 vertices are the
// easy end of every measure, so preprocessing, the split and the
// trivial bound must leave a 1 s budget intact. Each solve returns
// within the slack with a witness and Lower ≤ Upper, and the path
// (acyclic) comes back exact at 1 under ghw and fhw, where the split
// cuts it into single-edge blocks. A path of 8000 edges with a triangle
// hung off each path vertex splits into about 16000 blocks, so it also
// times the stitching; it comes back exact at 2 under ghw. Under fhw
// some triangle races may stay at [3/2, 2] on this budget, so only the
// bounds are checked there. The wall-clock bound is not asserted under
// -race.
func TestLargeSparseBudget(t *testing.T) {
	const n, budget, slack = 12000, time.Second, 2500 * time.Millisecond
	type instance struct {
		name     string
		h        *hypergraph.Hypergraph
		measures []Measure
		exact    map[Measure]int64 // measures that must close, at what width
	}
	all := []Measure{HW, GHW, FHW}
	for _, tc := range []instance{
		{"path", hypergraph.Path(n), all, map[Measure]int64{GHW: 1, FHW: 1}},
		{"cycle", hypergraph.Cycle(n), all, nil},
		{"pendant-triangles", pendantTrianglePath(8000), []Measure{GHW, FHW}, map[Measure]int64{GHW: 2}},
	} {
		for _, m := range tc.measures {
			t.Run(tc.name+"/"+m.String(), func(t *testing.T) {
				start := time.Now()
				r, err := Solve(context.Background(), tc.h, Options{Measure: m, Timeout: budget})
				elapsed := time.Since(start)
				if err != nil {
					t.Fatal(err)
				}
				if !raceEnabled && elapsed > slack {
					t.Errorf("returned after %v on a %v budget, want ≤ %v", elapsed, budget, slack)
				}
				if r.Witness == nil {
					t.Fatal("no witness")
				}
				if r.Lower.Cmp(r.Upper) > 0 {
					t.Fatalf("bounds [%s, %s] cross", r.Lower.RatString(), r.Upper.RatString())
				}
				if want, ok := tc.exact[m]; ok && (!r.Exact || r.Upper.Cmp(lp.RI(want)) != 0) {
					t.Errorf("got [%s, %s], want exact %d", r.Lower.RatString(), r.Upper.RatString(), want)
				}
			})
		}
	}
}

// pendantTrianglePath returns a path of n edges with a triangle of
// binary edges hung off each path vertex: n + 1 triangle blocks and n
// path-edge blocks, joined at the path vertices.
func pendantTrianglePath(n int) *hypergraph.Hypergraph {
	h := hypergraph.New()
	for i := 0; i <= n; i++ {
		v, a, b := fmt.Sprintf("v%d", i), fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i)
		if i > 0 {
			h.AddEdge("", fmt.Sprintf("v%d", i-1), v)
		}
		h.AddEdge("", v, a)
		h.AddEdge("", a, b)
		h.AddEdge("", b, v)
	}
	return h
}
