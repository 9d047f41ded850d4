package solve

// interval_test.go — pins for the hardened [Lower, Upper] interval
// contract: the cross-block merge keeps partial information instead of
// voiding the interval, the trivial single-bag witness floors every
// measure, tiny budgets still yield certified intervals, and strategy
// failures are classified budget-vs-real.

import (
	"context"
	"errors"
	"testing"
	"time"

	"hypertree/internal/hypergraph"
	"hypertree/internal/lp"
	"hypertree/internal/telemetry"
)

// TestTrivialDecompAllMeasures: the interval floor validates as every
// decomposition kind (one node satisfies the special condition
// vacuously).
func TestTrivialDecompAllMeasures(t *testing.T) {
	for name, h := range fixtures() {
		d := trivialDecomp(h)
		if d == nil {
			t.Fatalf("%s: no trivial witness", name)
		}
		for _, m := range []Measure{HW, GHW, FHW} {
			if err := d.Validate(m.Kind()); err != nil {
				t.Fatalf("%s: trivial witness invalid as %v: %v", name, m, err)
			}
		}
		if !d.IsIntegral() {
			t.Fatalf("%s: trivial cover not integral", name)
		}
	}
}

// TestMergeBlocksPreservesInterval pins the satellite bugfix: a block
// whose budget expired before any witness no longer drops the solve's
// upper bound or discards the other blocks' work — the merge fabricates
// the block's trivial witness, completes the stitch, and degrades only
// Exact/Partial/Provenance.
func TestMergeBlocksPreservesInterval(t *testing.T) {
	h := hypergraph.MustParse("e1(a,b), e2(b,c), e3(c,a), f1(p,q), f2(q,r)")
	p := simplify(h, GHW, false)
	if len(p.blocks) < 2 {
		t.Fatalf("expected ≥2 blocks, got %d", len(p.blocks))
	}
	pieces := make([]piece, len(p.blocks))
	for i, es := range p.blocks {
		pieces[i].bh, pieces[i].vmap, pieces[i].emap = h.ExtractEdges(es)
	}
	// Block 0 solved for real; every other block simulates a budget that
	// expired after proving a lower bound but before any witness.
	pieces[0].out = solveBlock(context.Background(), pieces[0].bh, Options{Measure: GHW}, 0)
	if !pieces[0].out.exact {
		t.Fatalf("toy block not solved exactly: %+v", pieces[0].out)
	}
	for i := 1; i < len(pieces); i++ {
		pieces[i].out = blockResult{lower: lp.RI(1), partial: true}
	}

	res := &Result{Measure: GHW}
	if err := mergeBlocks(res, h, pieces, Options{Measure: GHW, Validate: true}); err != nil {
		t.Fatal(err)
	}
	if res.Upper == nil || res.Witness == nil {
		t.Fatalf("merge voided the interval: upper=%v witness=%v", res.Upper, res.Witness)
	}
	if res.Lower == nil || res.Lower.Cmp(pieces[0].out.lower) < 0 {
		t.Fatalf("merge lost the surviving lower bound: %v", res.Lower)
	}
	if res.Lower.Cmp(res.Upper) > 0 {
		t.Fatalf("inverted interval [%s, %s]", res.Lower.RatString(), res.Upper.RatString())
	}
	if res.Exact {
		t.Fatal("merge with a timed-out block claimed exactness")
	}
	if !res.Partial {
		t.Fatal("merge with a timed-out block not marked partial")
	}
	if res.Provenance != ProvHeuristic {
		t.Fatalf("provenance = %q, want %q", res.Provenance, ProvHeuristic)
	}
	if err := res.Witness.Validate(GHW.Kind()); err != nil {
		t.Fatalf("stitched fallback witness invalid: %v", err)
	}
}

// TestIntervalUnderTinyDeadline is the acceptance-criteria test: a hard
// instance under a ~1ms deadline still returns a full certified
// interval with a validating witness for every measure.
func TestIntervalUnderTinyDeadline(t *testing.T) {
	h := hypergraph.Grid(6, 6) // 36 vertices: far beyond any exact gate
	for _, m := range []Measure{HW, GHW, FHW} {
		r, err := Solve(context.Background(), h, Options{Measure: m, Timeout: time.Millisecond})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if r.Upper == nil || r.Witness == nil {
			t.Fatalf("%v: interval-less result under deadline: upper=%v witness=%v", m, r.Upper, r.Witness)
		}
		if r.Lower == nil || r.Lower.Sign() <= 0 {
			t.Fatalf("%v: missing lower bound", m)
		}
		if r.Lower.Cmp(r.Upper) > 0 {
			t.Fatalf("%v: inverted interval [%s, %s]", m, r.Lower.RatString(), r.Upper.RatString())
		}
		if r.Provenance == "" {
			t.Fatalf("%v: missing provenance", m)
		}
		if !r.Exact && r.Provenance == ProvExact {
			t.Fatalf("%v: inexact result claims exact provenance", m)
		}
		if err := r.Witness.Validate(m.Kind()); err != nil {
			t.Fatalf("%v: witness under deadline invalid: %v", m, err)
		}
	}
}

// TestIntervalOnDeadContext: even a context that is already cancelled
// before Solve starts yields the trivial interval, not a nil Upper —
// in the fhw race (a chorded grid, not bipartite) and in the ghw race a
// bipartite grid is routed to.
func TestIntervalOnDeadContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	chorded := hypergraph.Grid(5, 5)
	chorded.AddEdge("chord", "v0_0", "v1_1")
	for _, h := range []*hypergraph.Hypergraph{chorded, hypergraph.Grid(5, 5)} {
		r, err := Solve(ctx, h, Options{Measure: FHW})
		if err != nil {
			t.Fatal(err)
		}
		if r.Upper == nil || r.Witness == nil || !r.Partial {
			t.Fatalf("dead-context solve lost the interval: %+v", r)
		}
		if r.Provenance == "" {
			t.Fatal("dead-context solve lost provenance")
		}
	}
}

// TestProvenanceExactOnEasy: the strongest rung of the ladder — an
// uncontested exact solve reports ProvExact.
func TestProvenanceExactOnEasy(t *testing.T) {
	for _, m := range []Measure{HW, GHW, FHW} {
		r, err := Solve(context.Background(), hypergraph.ExampleH0(), Options{Measure: m})
		if err != nil {
			t.Fatal(err)
		}
		if !r.Exact || r.Provenance != ProvExact {
			t.Fatalf("%v: exact=%v provenance=%q", m, r.Exact, r.Provenance)
		}
	}
}

// TestStrategyFailureClassification: budget expiry counts as canceled,
// anything else as a real error with a trace event.
func TestStrategyFailureClassification(t *testing.T) {
	canceled0 := mStrategyCanceled.Values()["minfill"]
	errors0 := mStrategyErrors.Values()["minfill"]

	dead, cancel := context.WithCancel(context.Background())
	cancel()
	strategyFailure(dead, nil, 0, "minfill", dead.Err())
	strategyFailure(context.Background(), nil, 0, "minfill", context.DeadlineExceeded)
	if got := mStrategyCanceled.Values()["minfill"] - canceled0; got != 2 {
		t.Fatalf("canceled counter moved by %d, want 2", got)
	}
	if got := mStrategyErrors.Values()["minfill"] - errors0; got != 0 {
		t.Fatalf("error counter moved by %d on cancellations", got)
	}

	_, tr := telemetry.WithTrace(context.Background())
	strategyFailure(context.Background(), tr, 3, "minfill", errors.New("no cover"))
	if got := mStrategyErrors.Values()["minfill"] - errors0; got != 1 {
		t.Fatalf("error counter moved by %d, want 1", got)
	}
	var found bool
	for _, e := range tr.Summary().Events {
		if e.Kind == "strategy_error" {
			found = true
		}
	}
	if !found {
		t.Fatal("real strategy error left no trace event")
	}
}

// TestApproxStrategyRuns: on a block past the exact-DP gate the ladder
// strategies appear in the fhw race's trace and the approx counters
// move. The input is a rank-3 hypercycle, so the block stays in the fhw
// race rather than being routed to the ghw race as a bipartite grid is.
func TestApproxStrategyRuns(t *testing.T) {
	ctx, tr := telemetry.WithTrace(context.Background())
	h := hypergraph.HyperCycle(12, 3, 1) // 12 edges, 24 vertices
	r, err := Solve(ctx, h, Options{Measure: FHW, ExactVertexLimit: 1, Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if r.Upper == nil {
		t.Fatal("no upper bound")
	}
	s := tr.Summary()
	var sawApprox bool
	for _, e := range s.Events {
		if e.Strategy == "approx-logn" {
			sawApprox = true
		}
	}
	if !sawApprox {
		t.Fatal("approx-logn never appeared in the trace")
	}
	if s.Counters.ApproxRuns == 0 {
		t.Fatal("ApproxRuns counter did not move")
	}
}
