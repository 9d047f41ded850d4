package solve

import (
	"context"
	"fmt"
	"testing"

	"hypertree/internal/hypergraph"
	"hypertree/internal/lp"
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

// TestSolveTracedHW threads a trace through a full cached solve. The hw
// portfolio runs a single strategy (detk), so the event shape is
// deterministic: preprocess, strategy_start/end, at least one deepen,
// engine counters, and a cache miss; an identical re-query under a
// fresh trace must record a cache hit and no strategies.
func TestSolveTracedHW(t *testing.T) {
	s := NewSolver(0, 0)
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

// TestDeepenFHDTrace drives the fhd-check loop directly (no racing
// strategies) and checks the cover-LP, basis-cache and engine counters
// it flushes into the trace — serially, and with parallel workers whose
// private basis caches must fold their LP solves into the loop's.
func TestDeepenFHDTrace(t *testing.T) {
	for _, par := range []int{1, 2} {
		t.Run(fmt.Sprintf("parallelism=%d", par), func(t *testing.T) {
			bctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			r := &race{cancel: cancel}
			r.res.lower = lp.RI(1)
			tr := telemetry.NewTrace()
			deepenFHDCheck(bctx, hypergraph.Clique(3), r, Options{Parallelism: par}, 4, tr, 0, nil)
			if r.res.upper == nil {
				t.Fatal("fhd-check found no witness")
			}
			sum := tr.Summary()
			if traj := sum.KTrajectory("fhd-check"); len(traj) != 2 || traj[0] != 1 || traj[1] != 2 {
				t.Fatalf("fhd-check k-trajectory = %v, want [1 2]", traj)
			}
			c := sum.Counters
			if c.LPSolves == 0 || c.LPSolves != c.LPFloat+c.LPCold+c.LPNoop+c.LPPrimal+c.LPDual {
				t.Fatalf("LP path mix does not partition the solves: %+v", c)
			}
			if c.LPFloat == 0 {
				t.Fatalf("no cover LP was answered float-first: %+v", c)
			}
			// Parallel workers borrow from private caches; only their LP
			// counts fold into the loop's, not their borrow hits/misses.
			if par == 1 && c.BasisHits+c.BasisMisses == 0 {
				t.Fatalf("basis cache counters missing: %+v", c)
			}
			if c.EngineSubproblems == 0 || c.DynResets == 0 {
				t.Fatalf("engine counters missing: %+v", c)
			}
		})
	}
}

// TestTelemetrySnapshot checks the process-wide aggregate the /healthz
// endpoint reports. Earlier tests in this package have already solved,
// so the counters must be populated and internally consistent.
func TestTelemetrySnapshot(t *testing.T) {
	s := NewSolver(0, 0)
	if _, err := s.Solve(context.Background(), hypergraph.Clique(3), Options{Measure: FHW}); err != nil {
		t.Fatal(err)
	}
	snap := TelemetrySnapshot()
	if snap.Solves == 0 || snap.Engine.Subproblems == 0 {
		t.Fatalf("empty snapshot: %+v", snap)
	}
	var wins int64
	for _, n := range snap.StrategyWins {
		wins += n
	}
	if wins == 0 {
		t.Fatalf("no strategy wins recorded: %+v", snap.StrategyWins)
	}
}

// TestSolveUntracedAllocs pins the untraced hot serving path: a result-
// cache hit must stay at its pre-telemetry allocation count (key
// canonicalization + the private result copies). The global counters it
// now also bumps are atomics and must not add a single allocation.
func TestSolveUntracedAllocs(t *testing.T) {
	s := NewSolver(0, 1)
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
