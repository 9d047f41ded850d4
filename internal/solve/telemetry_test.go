package solve

import (
	"context"
	"testing"

	"hypertree/internal/decomp"
	"hypertree/internal/hypergraph"
	"hypertree/internal/telemetry"
)

// kinds collects the event kinds present in a summary.
func kinds(s *telemetry.Summary) map[string]int {
	m := map[string]int{}
	for _, e := range s.Events {
		m[e.Kind]++
	}
	return m
}

// TestSolveTracedHW threads a trace through a full cached solve. The
// block stays open after the clique bound and the single-bag witness,
// so the hw race starts its lanes, and detk, which decides hw, always
// deepens: the trace holds preprocess, strategy_start/end, at least one
// deepen, engine counters, and a cache miss; an identical re-query
// under a fresh trace must record a cache hit and no strategies.
func TestSolveTracedHW(t *testing.T) {
	s := NewSolver(NewCache(0, 0), 0)
	h := hypergraph.Grid(2, 3)
	ctx, tr := telemetry.WithTrace(context.Background())
	r, err := s.Solve(ctx, h, Options{Measure: HW})
	if err != nil || !r.Exact {
		t.Fatalf("solve: %v %+v", err, r)
	}
	sum := tr.Summary()
	ks := kinds(sum)
	if ks["preprocess"] != 1 || ks["strategy_start"] == 0 || ks["strategy_end"] == 0 || ks["deepen"] == 0 {
		t.Fatalf("missing trace events: %v", ks)
	}
	if ks["cache"] != 1 || sum.Counters.ResultCacheMisses != 1 {
		t.Fatalf("want one cache miss, got %v / %+v", ks, sum.Counters)
	}
	if traj := sum.KTrajectory("detk"); len(traj) == 0 {
		t.Fatal("no detk k-trajectory recorded")
	}
	if sum.Counters.EngineSubproblems == 0 {
		t.Fatalf("engine counters not threaded: %+v", sum.Counters)
	}

	ctx2, tr2 := telemetry.WithTrace(context.Background())
	r2, err := s.Solve(ctx2, h, Options{Measure: HW})
	if err != nil || !r2.FromCache {
		t.Fatalf("re-solve: %v %+v", err, r2)
	}
	sum2 := tr2.Summary()
	if sum2.Counters.ResultCacheHits != 1 || kinds(sum2)["strategy_start"] != 0 {
		t.Fatalf("cache hit not traced as such: %v %+v", kinds(sum2), sum2.Counters)
	}
}

// TestSolveTracedFHW threads a trace through fhw solves: the race
// starts no fhd-check strategy (the engine's Check(FHD,k) is not raced),
// still closes exactly, and returns a witness that validates at the
// reported width. The LP-priced fhw race runs on a 3×4 grid with one
// diagonal chord (an odd cycle, so the block is not routed) with every
// strategy in play, and on the triangle, whose clique bound 3/2 lies
// below the single-bag witness's width 2. The plain 3×4 grid is
// bipartite: it is routed to the ghw race, whose bip lane runs.
func TestSolveTracedFHW(t *testing.T) {
	chorded := hypergraph.Grid(3, 4)
	chorded.AddEdge("chord", "v0_0", "v1_1")
	for _, tc := range []struct {
		name   string
		h      *hypergraph.Hypergraph
		opt    Options
		routed bool
	}{
		{"grid3x4+chord", chorded, Options{Measure: FHW}, false},
		{"K3", hypergraph.Clique(3), Options{Measure: FHW}, false},
		{"grid3x4", hypergraph.Grid(3, 4), Options{Measure: FHW}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, tr := telemetry.WithTrace(context.Background())
			r, err := Solve(ctx, tc.h, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			if !r.Exact || r.Lower.Cmp(r.Upper) != 0 {
				t.Fatalf("fhw = [%v, %v] exact=%v, want closed", r.Lower, r.Upper, r.Exact)
			}
			if r.Witness == nil {
				t.Fatal("no witness")
			}
			if err := r.Witness.ValidateWidth(decomp.FHD, r.Upper); err != nil {
				t.Fatalf("witness invalid at %v: %v", r.Upper, err)
			}
			sum := tr.Summary()
			started := map[string]bool{}
			for _, e := range sum.Events {
				if e.Kind == "strategy_start" {
					started[e.Strategy] = true
				}
			}
			if started["fhd-check"] {
				t.Fatalf("fhd-check still raced: %v", started)
			}
			if !started["minfill"] {
				t.Fatalf("race lost its min-fill strategy: %v", started)
			}
			if routed := kinds(sum)["bipartite"] == 1; routed != tc.routed {
				t.Fatalf("bipartite events %d, want routed=%v", kinds(sum)["bipartite"], tc.routed)
			}
			// bip is a ghw lane: only a routed block runs it, and no fhw
			// block runs detk.
			if started["detk"] || started["bip"] != tc.routed {
				t.Fatalf("routed=%v but started %v", tc.routed, started)
			}
		})
	}
}

// TestTelemetryTotals checks the process-wide aggregates /metrics
// reports. Earlier tests in this package have already solved, so the
// counters must be populated.
func TestTelemetryTotals(t *testing.T) {
	s := NewSolver(NewCache(0, 0), 0)
	if _, err := s.Solve(context.Background(), hypergraph.Clique(3), Options{Measure: FHW}); err != nil {
		t.Fatal(err)
	}
	if mSolves.Value() == 0 || telemetry.Totals().EngineSubproblems == 0 {
		t.Fatalf("empty totals: solves=%d %+v", mSolves.Value(), telemetry.Totals())
	}
	var wins int64
	for _, n := range mWins.Values() {
		wins += n
	}
	if wins == 0 {
		t.Fatalf("no strategy wins recorded: %+v", mWins.Values())
	}
}

// TestSolveUntracedAllocs pins the untraced hot serving path: a result-
// cache hit must stay at its pre-telemetry allocation count (key
// canonicalization + the private result copies). The global counters it
// now also bumps are atomics and must not add a single allocation.
func TestSolveUntracedAllocs(t *testing.T) {
	s := NewSolver(NewCache(0, 0), 1)
	h := hypergraph.Grid(2, 3)
	ctx := context.Background()
	if _, err := s.Solve(ctx, h, Options{Measure: HW}); err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(100, func() {
		r, err := s.Solve(ctx, h, Options{Measure: HW})
		if err != nil || !r.FromCache {
			panic("expected cache hit")
		}
	})
	// Measured 15 allocs/run (canonKey scratch, entry adaptation, result
	// copy); the bound leaves ~50% headroom. Telemetry must not move it.
	if n > 22 {
		t.Fatalf("untraced cache-hit solve allocates %v per run, want ≤ 22", n)
	}
}
