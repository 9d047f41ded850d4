package solve

// metrics.go — the solve pipeline's labelled metric families and the
// glue that maps per-loop aggregates (retired bag-pricing LPs and
// sat-ord searches) onto telemetry.Counters.
//
// Scalar counters are not declared here: every producer hands a
// Counters delta to telemetry.Publish, which feeds both the request
// trace and the process totals that /metrics renders. The families
// below carry a strategy or provenance label, or are the solve
// histogram; they are registered once at package init on
// telemetry.Default(). Producers publish per Solve or per retired
// loop, never per subproblem, so the untraced hot path stays
// allocation-identical to the uninstrumented pipeline (pinned by
// TestSolveUntracedAllocs).

import (
	"hypertree/internal/cover"
	"hypertree/internal/ordenc"
	"hypertree/internal/telemetry"
)

var (
	mSolves = telemetry.Default().NewCounter("hg_solve_solves_total",
		"completed Solve calls (cache hits included)")
	mPartial = telemetry.Default().NewCounter("hg_solve_partial_total",
		"solves cut short by deadline or cancellation")
	mWins = telemetry.Default().NewCounterVec("hg_solve_strategy_wins_total",
		"winning portfolio strategy of the widest block, per computed solve", "strategy")
	mDeepenSteps = telemetry.Default().NewCounterVec("hg_solve_deepen_steps_total",
		"iterative-deepening levels attempted, per strategy", "strategy")
	mSolveSeconds = telemetry.Default().NewHistogram("hg_solve_duration_seconds",
		"wall time of completed Solve calls", nil)

	mStrategyErrors = telemetry.Default().NewCounterVec("hg_solve_strategy_errors_total",
		"portfolio strategy runs that failed with a real (non-budget) error", "strategy")
	mStrategyCanceled = telemetry.Default().NewCounterVec("hg_solve_strategy_canceled_total",
		"portfolio strategy runs cut short by deadline or cancellation", "strategy")
	mProvenance = telemetry.Default().NewCounterVec("hg_solve_provenance_total",
		"computed solves by upper-bound provenance", "provenance")
)

// record publishes one completed Solve into the process-wide metrics
// and, when the request carries a trace, its event log. err != nil
// solves (unusable input, internal failures) are not counted.
func (s *Solver) record(tr *telemetry.Trace, res *Result, err error) {
	if err != nil || res == nil {
		return
	}
	mSolves.Inc()
	mSolveSeconds.Observe(res.Elapsed.Seconds())
	if s.cache != nil {
		if res.FromCache {
			tr.Eventf("cache", "hit")
			telemetry.Publish(tr, telemetry.Counters{ResultCacheHits: 1})
		} else {
			tr.Eventf("cache", "miss")
			telemetry.Publish(tr, telemetry.Counters{ResultCacheMisses: 1})
		}
	}
	if res.FromCache {
		return
	}
	if res.Partial {
		mPartial.Inc()
	}
	if res.Strategy != "" {
		mWins.With(res.Strategy).Inc()
	}
	if res.Provenance != "" {
		mProvenance.With(string(res.Provenance)).Inc()
	}
}

// setLP copies a retired loop's cover-LP path mix into c. The two
// paths partition the solves.
func setLP(c *telemetry.Counters, st cover.LPStats) {
	c.LPSolves, c.LPFloat, c.LPCold = int64(st.Solves), int64(st.FloatSolves), int64(st.ColdStarts)
}

// setSAT copies a retired sat-ord search's solver aggregates into c.
func setSAT(c *telemetry.Counters, st ordenc.Stats) {
	c.SATSolves, c.SATConflicts, c.SATPropagations = st.Solves, st.Conflicts, st.Propagations
	c.SATLearned, c.SATRestarts, c.SATReuseHits = st.Learned, st.Restarts, st.ReuseSolves
	c.SATBlocked, c.SATPricedBags, c.SATRebuilds = st.Blocked, st.PricedBags, st.Rebuilds
}
