package solve

import (
	"context"
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
// cuts it into single-edge blocks. The wall-clock bound is not asserted
// under -race.
func TestLargeSparseBudget(t *testing.T) {
	const n, budget, slack = 12000, time.Second, 2500 * time.Millisecond
	for _, tc := range []struct {
		name string
		h    *hypergraph.Hypergraph
	}{{"path", hypergraph.Path(n)}, {"cycle", hypergraph.Cycle(n)}} {
		for _, m := range []Measure{HW, GHW, FHW} {
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
				if tc.name == "path" && m != HW && (!r.Exact || r.Upper.Cmp(lp.RI(1)) != 0) {
					t.Errorf("path: got [%s, %s], want exact 1", r.Lower.RatString(), r.Upper.RatString())
				}
			})
		}
	}
}
