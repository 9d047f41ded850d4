package solve

import (
	"context"
	"testing"

	"hypertree/internal/decomp"
	"hypertree/internal/hypergraph"
	"hypertree/internal/lp"
	"hypertree/internal/telemetry"
)

// TestDeepenHDGHWMode drives the detk lane of the ghw race directly.
// Under ghw a rejected Check(HD,k) level proves nothing (ghw ≤ hw), so
// the lane must leave the lower bound alone and publish its accepted
// level as a heuristic upper bound; and it must attempt no level at or
// above an incumbent upper bound.
func TestDeepenHDGHWMode(t *testing.T) {
	bh := hypergraph.Grid(4, 4) // hw = ghw = 3: k=2 rejects, k=3 accepts
	opt := Options{Measure: GHW}

	ctx, tr := telemetry.WithTrace(context.Background())
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	r := &race{cancel: cancel}
	r.res.lower = lp.RI(2)
	deepenHD(ctx, bh, r, opt, bh.NumEdges(), tr, 0)

	if r.res.upper == nil || r.res.upper.Cmp(lp.RI(3)) != 0 || r.res.strategy != "detk" {
		t.Fatalf("upper = %v by %q, want 3 by detk", r.res.upper, r.res.strategy)
	}
	if r.res.prov != ProvHeuristic || r.res.exact {
		t.Fatalf("prov = %q exact = %v, want an inexact heuristic upper bound", r.res.prov, r.res.exact)
	}
	for _, kind := range []decomp.Kind{decomp.HD, decomp.GHD} {
		if err := r.res.witness.Validate(kind); err != nil {
			t.Fatalf("witness fails %v validation: %v", kind, err)
		}
	}
	if w := r.res.witness.Width(); w.Cmp(lp.RI(3)) != 0 {
		t.Fatalf("witness width %s, want 3", w.RatString())
	}
	if r.res.lower.Cmp(lp.RI(2)) != 0 {
		t.Fatalf("lower = %s, want 2: a ghw-mode rejection must raise nothing", r.res.lower.RatString())
	}
	if got := tr.Summary().KTrajectory("detk"); len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("detk trajectory %v, want [2 3]", got)
	}

	// Incumbent upper bound already at the lower bound: nothing to do.
	ctx2, tr2 := telemetry.WithTrace(context.Background())
	r2 := &race{cancel: func() {}}
	r2.res.lower, r2.res.upper = lp.RI(2), lp.RI(2)
	deepenHD(ctx2, bh, r2, opt, bh.NumEdges(), tr2, 0)
	if n := kinds(tr2.Summary())["deepen"]; n != 0 {
		t.Fatalf("%d deepen events with upper = lower, want 0", n)
	}
	if r2.res.witness != nil || r2.res.strategy != "" {
		t.Fatalf("lane published %q into a met race", r2.res.strategy)
	}
}
