package solve

import (
	"context"
	"math/big"
	"testing"

	"hypertree/internal/core"
	"hypertree/internal/hypergraph"
	"hypertree/internal/lp"
	"hypertree/internal/telemetry"
)

// TestSATOrdSolveDifferential runs full solves with the sat-ord
// strategy racing and with it disabled, and compares them with the core
// reference widths: core.HW for hw, the exact elimination DP for ghw
// and fhw. With sat-ord every solve must be exact at the reference.
// Without it the hw and ghw races keep an exact decider (detk, bip), so
// they must be exact too; the fhw race has none left on a non-bipartite
// block, so there the interval must contain the reference. Validate:
// true re-checks every witness.
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
	reference := func(m Measure, h *hypergraph.Hypergraph) *big.Rat {
		switch m {
		case HW:
			w, _ := core.HW(h, 0)
			return lp.RI(int64(w))
		case GHW:
			w, _ := core.ExactGHW(h)
			return lp.RI(int64(w))
		}
		w, _ := core.ExactFHW(h)
		return w
	}
	for _, m := range []Measure{HW, GHW, FHW} {
		for _, tc := range cases {
			t.Run(m.String()+"/"+tc.name, func(t *testing.T) {
				want := reference(m, tc.h)
				on, err := Solve(context.Background(), tc.h, Options{Measure: m, Validate: true})
				if err != nil {
					t.Fatalf("solve with sat-ord: %v", err)
				}
				if !on.Exact || on.Upper.Cmp(want) != 0 {
					t.Fatalf("with sat-ord: [%s, %s] exact=%v, want exact %s",
						on.Lower.RatString(), on.Upper.RatString(), on.Exact, want.RatString())
				}
				off, err := Solve(context.Background(), tc.h, Options{Measure: m, Validate: true, SATOrdLimit: -1})
				if err != nil {
					t.Fatalf("solve without sat-ord: %v", err)
				}
				if off.Lower.Cmp(want) > 0 || off.Upper.Cmp(want) < 0 {
					t.Fatalf("without sat-ord: [%s, %s] misses %s",
						off.Lower.RatString(), off.Upper.RatString(), want.RatString())
				}
				if m != FHW && (!off.Exact || off.Upper.Cmp(want) != 0) {
					t.Fatalf("without sat-ord: [%s, %s] exact=%v, want exact %s",
						off.Lower.RatString(), off.Upper.RatString(), off.Exact, want.RatString())
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
