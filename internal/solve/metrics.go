package solve

// metrics.go — the solve pipeline's process-wide telemetry and the glue
// that folds per-loop aggregates (engine stats sinks, retired basis
// caches) into both the global counters and the per-request trace.
//
// The global counters are registered once at package init on
// telemetry.Default() and updated with a handful of atomic adds per
// Solve — never per subproblem — so the hot path stays allocation-
// identical to the uninstrumented pipeline (pinned by
// TestSolveUntracedAllocs). Per-request exactness comes from sinks
// allocated only when the request carries a Trace.

import (
	"hypertree/internal/core"
	"hypertree/internal/cover"
	"hypertree/internal/lp"
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

	mResultCacheHits = telemetry.Default().NewCounter("hg_result_cache_hits_total",
		"solves answered from the result cache (singleflight reuse included)")
	mResultCacheMisses = telemetry.Default().NewCounter("hg_result_cache_misses_total",
		"cache-enabled solves that had to compute")

	mBasisHits = telemetry.Default().NewCounter("hg_basis_cache_hits_total",
		"cover-LP solvers revived with a warm basis")
	mBasisMisses = telemetry.Default().NewCounter("hg_basis_cache_misses_total",
		"cover-LP solver borrows answered cold")
	mBasisEvictions = telemetry.Default().NewCounter("hg_basis_cache_evictions_total",
		"warm bases dropped by the byte budget")

	mLPSolves = telemetry.Default().NewCounterVec("hg_lp_solves_total",
		"cover-LP solves by path: float-first or a warm-engine path", "path")

	mSATSolves = telemetry.Default().NewCounter("hg_sat_solves_total",
		"CDCL solver calls issued by the sat-ord strategy")
	mSATConflicts = telemetry.Default().NewCounter("hg_sat_conflicts_total",
		"CDCL conflicts across sat-ord solves")
	mSATPropagations = telemetry.Default().NewCounter("hg_sat_propagations_total",
		"CDCL unit propagations across sat-ord solves")
	mSATLearned = telemetry.Default().NewCounter("hg_sat_learned_total",
		"clauses learned by 1UIP conflict analysis")
	mSATRestarts = telemetry.Default().NewCounter("hg_sat_restarts_total",
		"CDCL Luby restarts")
	mSATReuseHits = telemetry.Default().NewCounter("hg_sat_reuse_hits_total",
		"incremental solver calls that started with retained learned clauses")
	mSATBlocked = telemetry.Default().NewCounter("hg_sat_blocking_clauses_total",
		"guarded blocking clauses installed by the fhw LP-hybrid path")
	mSATPricedBags = telemetry.Default().NewCounter("hg_sat_priced_bags_total",
		"decoded bags priced through the warm cover LP by the fhw path")
	mSATRebuilds = telemetry.Default().NewCounter("hg_sat_rebuilds_total",
		"encoder rebuilds that discarded learned clauses (kCap growth)")

	mStrategyErrors = telemetry.Default().NewCounterVec("hg_solve_strategy_errors_total",
		"portfolio strategy runs that failed with a real (non-budget) error", "strategy")
	mStrategyCanceled = telemetry.Default().NewCounterVec("hg_solve_strategy_canceled_total",
		"portfolio strategy runs cut short by deadline or cancellation", "strategy")
	mProvenance = telemetry.Default().NewCounterVec("hg_solve_provenance_total",
		"computed solves by upper-bound provenance", "provenance")

	mApproxRuns = telemetry.Default().NewCounterVec("hg_approx_runs_total",
		"approximation-ladder strategy runs, per rung", "rung")
	mApproxWitnesses = telemetry.Default().NewCounterVec("hg_approx_witnesses_total",
		"ladder runs that produced a decomposition, per rung", "rung")
	mApproxSepRetries = telemetry.Default().NewCounter("hg_approx_sep_retries_total",
		"separator budget doublings across approx-logn runs")
	mApproxImprovePasses = telemetry.Default().NewCounter("hg_approx_improve_passes_total",
		"local-improvement passes over incumbent decompositions")
	mApproxImproved = telemetry.Default().NewCounter("hg_approx_improved_total",
		"improvement passes that strictly tightened the incumbent width")
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
			mResultCacheHits.Inc()
		} else {
			mResultCacheMisses.Inc()
		}
	}
	if res.FromCache {
		if tr != nil {
			tr.Eventf("cache", "hit")
			tr.AddCounters(telemetry.Counters{ResultCacheHits: 1})
		}
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
	if tr != nil && s.cache != nil {
		tr.Eventf("cache", "miss")
		tr.AddCounters(telemetry.Counters{ResultCacheMisses: 1})
	}
}

// engineCounters maps an engine-stats sink onto trace counters.
func engineCounters(es *core.EngineStats) telemetry.Counters {
	return telemetry.Counters{
		EngineSubproblems:     es.Subproblems,
		EngineMemoHits:        es.MemoHits,
		DynResets:             es.DynResets,
		DynSeeded:             es.DynSeeded,
		EngineParWorkers:      es.ParWorkers,
		EngineParSpecCanceled: es.ParSpecCanceled,
		EngineParContention:   es.ParShardContention,
	}
}

// flushBasis publishes a retired loop's basis-cache and cover-LP
// aggregates: always into the process-wide counters, plus into the
// trace when the request has one. The basis cache retains every solver
// it ever handed out (displaced and evicted ones land on its free
// list), so its WarmStats are cumulative over the loop.
func flushBasis(tr *telemetry.Trace, basis *cover.BasisCache) {
	bs := basis.Stats()
	mBasisHits.Add(int64(bs.Hits))
	mBasisMisses.Add(int64(bs.Misses))
	mBasisEvictions.Add(int64(bs.Evictions))
	flushLP(tr, basis.WarmStats())
	tr.AddCounters(telemetry.Counters{
		BasisHits: int64(bs.Hits), BasisMisses: int64(bs.Misses),
		BasisEvictions: int64(bs.Evictions),
	})
}

// flushLP publishes a retired loop's cover-LP path mix into the
// process-wide hg_lp_solves_total and, when present, the request trace.
// The paths partition the solves.
func flushLP(tr *telemetry.Trace, ws lp.WarmStats) {
	mLPSolves.With("float").Add(int64(ws.FloatSolves))
	mLPSolves.With("cold").Add(int64(ws.ColdStarts))
	mLPSolves.With("noop").Add(int64(ws.NoopSolves))
	mLPSolves.With("primal").Add(int64(ws.PrimalSolves))
	mLPSolves.With("dual").Add(int64(ws.DualSolves))
	tr.AddCounters(telemetry.Counters{
		LPSolves: int64(ws.Solves), LPFloat: int64(ws.FloatSolves),
		LPCold: int64(ws.ColdStarts), LPNoop: int64(ws.NoopSolves),
		LPPrimal: int64(ws.PrimalSolves), LPDual: int64(ws.DualSolves),
	})
}

// flushSAT publishes a retired sat-ord strategy run's solver aggregates
// into the process counters and, when present, the request trace.
func flushSAT(tr *telemetry.Trace, st ordenc.Stats) {
	mSATSolves.Add(st.Solves)
	mSATConflicts.Add(st.Conflicts)
	mSATPropagations.Add(st.Propagations)
	mSATLearned.Add(st.Learned)
	mSATRestarts.Add(st.Restarts)
	mSATReuseHits.Add(st.ReuseSolves)
	mSATBlocked.Add(st.Blocked)
	mSATPricedBags.Add(st.PricedBags)
	mSATRebuilds.Add(st.Rebuilds)
	if tr == nil {
		return
	}
	tr.AddCounters(telemetry.Counters{
		SATSolves: st.Solves, SATConflicts: st.Conflicts,
		SATPropagations: st.Propagations, SATLearned: st.Learned,
		SATRestarts: st.Restarts, SATReuseHits: st.ReuseSolves,
		SATBlocked: st.Blocked, SATPricedBags: st.PricedBags,
		SATRebuilds: st.Rebuilds,
	})
}

// Snapshot is the process-wide solve telemetry aggregate: the solve and
// cache counters above plus the engine counters internal/core maintains.
// hgserve /healthz reports it next to the result-cache stats.
type Snapshot struct {
	Solves       int64            `json:"solves"`
	Partial      int64            `json:"partial"`
	StrategyWins map[string]int64 `json:"strategy_wins,omitempty"`
	DeepenSteps  map[string]int64 `json:"deepen_steps,omitempty"`
	Engine       core.EngineStats `json:"engine"`
	LPSolves     map[string]int64 `json:"lp_solves,omitempty"`

	BasisHits      int64 `json:"basis_hits"`
	BasisMisses    int64 `json:"basis_misses"`
	BasisEvictions int64 `json:"basis_evictions"`

	ResultCacheHits   int64 `json:"result_cache_hits"`
	ResultCacheMisses int64 `json:"result_cache_misses"`

	SATSolves    int64 `json:"sat_solves"`
	SATConflicts int64 `json:"sat_conflicts"`
	SATLearned   int64 `json:"sat_learned"`
	SATReuseHits int64 `json:"sat_reuse_hits"`
	SATBlocked   int64 `json:"sat_blocked"`

	Provenance       map[string]int64 `json:"provenance,omitempty"`
	StrategyErrors   map[string]int64 `json:"strategy_errors,omitempty"`
	StrategyCanceled map[string]int64 `json:"strategy_canceled,omitempty"`

	ApproxRuns          map[string]int64 `json:"approx_runs,omitempty"`
	ApproxWitnesses     map[string]int64 `json:"approx_witnesses,omitempty"`
	ApproxSepRetries    int64            `json:"approx_sep_retries"`
	ApproxImprovePasses int64            `json:"approx_improve_passes"`
	ApproxImproved      int64            `json:"approx_improved"`
}

// TelemetrySnapshot reads the current process-wide solve telemetry.
func TelemetrySnapshot() Snapshot {
	return Snapshot{
		Solves:            mSolves.Value(),
		Partial:           mPartial.Value(),
		StrategyWins:      mWins.Values(),
		DeepenSteps:       mDeepenSteps.Values(),
		Engine:            core.EngineCounters(),
		LPSolves:          mLPSolves.Values(),
		BasisHits:         mBasisHits.Value(),
		BasisMisses:       mBasisMisses.Value(),
		BasisEvictions:    mBasisEvictions.Value(),
		ResultCacheHits:   mResultCacheHits.Value(),
		ResultCacheMisses: mResultCacheMisses.Value(),
		SATSolves:         mSATSolves.Value(),
		SATConflicts:      mSATConflicts.Value(),
		SATLearned:        mSATLearned.Value(),
		SATReuseHits:      mSATReuseHits.Value(),
		SATBlocked:        mSATBlocked.Value(),

		Provenance:       mProvenance.Values(),
		StrategyErrors:   mStrategyErrors.Values(),
		StrategyCanceled: mStrategyCanceled.Values(),

		ApproxRuns:          mApproxRuns.Values(),
		ApproxWitnesses:     mApproxWitnesses.Values(),
		ApproxSepRetries:    mApproxSepRetries.Value(),
		ApproxImprovePasses: mApproxImprovePasses.Value(),
		ApproxImproved:      mApproxImproved.Value(),
	}
}
