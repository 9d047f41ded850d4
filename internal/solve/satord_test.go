package solve

import (
	"context"
	"testing"

	"hypertree/internal/hypergraph"
	"hypertree/internal/lp"
	"hypertree/internal/telemetry"
)

// TestSATOrdSolveDifferential runs full solves with the sat-ord
// strategy racing and with it disabled; widths must agree exactly and
// witnesses must validate (Validate: true re-checks them).
func TestSATOrdSolveDifferential(t *testing.T) {
	cases := []struct {
		name string
		h    *hypergraph.Hypergraph
	}{
		{"grid3x3", hypergraph.Grid(3, 3)},
		{"grid2x5", hypergraph.Grid(2, 5)},
		{"cycle7", hypergraph.Cycle(7)},
		{"clique5", hypergraph.Clique(5)},
		{"hypercycle6-3-1", hypergraph.HyperCycle(6, 3, 1)},
	}
	for _, m := range []Measure{HW, GHW, FHW} {
		for _, tc := range cases {
			t.Run(m.String()+"/"+tc.name, func(t *testing.T) {
				on, err := Solve(context.Background(), tc.h, Options{Measure: m, Validate: true})
				if err != nil {
					t.Fatalf("solve with sat-ord: %v", err)
				}
				off, err := Solve(context.Background(), tc.h, Options{Measure: m, Validate: true, SATOrdLimit: -1})
				if err != nil {
					t.Fatalf("solve without sat-ord: %v", err)
				}
				if !on.Exact || !off.Exact {
					t.Fatalf("exactness: with=%v without=%v", on.Exact, off.Exact)
				}
				if on.Upper.Cmp(off.Upper) != 0 {
					t.Fatalf("width with sat-ord %s, without %s",
						on.Upper.RatString(), off.Upper.RatString())
				}
			})
		}
	}
}

// TestSATOrdReuseFlushed asserts the acceptance criterion at the solve
// layer: an incremental deepening run reuses learned clauses and the
// reuse lands in the process-wide hg_sat_reuse_hits_total counter.
func TestSATOrdReuseFlushed(t *testing.T) {
	bh := hypergraph.Grid(3, 3) // ghw 2: k=1 rejects, k=2 accepts
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r := &race{bh: bh, opt: Options{Measure: GHW}, cancel: cancel}
	r.res.lower = lp.RI(1)

	before := telemetry.Totals()
	deepen(ctx, laneFor(t, "sat-ord", GHW), r)
	after := telemetry.Totals()

	if !r.res.exact || r.res.upper.Cmp(lp.RI(2)) != 0 {
		t.Fatalf("sat-ord on grid3x3: exact=%v upper=%v, want exact ghw 2", r.res.exact, r.res.upper)
	}
	if d := after.SATSolves - before.SATSolves; d < 2 {
		t.Errorf("SATSolves delta = %d, want ≥ 2 (one per level)", d)
	}
	if after.SATReuseHits <= before.SATReuseHits {
		t.Error("SATReuseHits did not increase: k-refinement dropped its learned clauses")
	}
	if after.SATLearned <= before.SATLearned {
		t.Error("SATLearned did not increase")
	}
}

// TestSATOrdGateDisables checks the negative limit fully disables the
// strategy (no solver calls land in the counters).
func TestSATOrdGateDisables(t *testing.T) {
	before := telemetry.Totals().SATSolves
	_, err := Solve(context.Background(), hypergraph.Grid(3, 3),
		Options{Measure: GHW, SATOrdLimit: -1})
	if err != nil {
		t.Fatal(err)
	}
	if d := telemetry.Totals().SATSolves - before; d != 0 {
		t.Errorf("SATSolves delta = %d with sat-ord disabled, want 0", d)
	}
}
