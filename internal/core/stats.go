package core

// stats.go — engine observability. The engine accumulates plain-int
// counters on itself while it runs (free on the hot path; an engine is
// single-goroutine) and flushes them exactly once, in finish(): into
// the process-wide telemetry counters below, and into the caller's
// optional EngineStats sink when one was threaded through the entry
// point (FHDOptions.Stats, Options.Stats, CheckHDStatsCtx). Per-request tracing in internal/solve
// allocates a sink only when the request is traced, so the untraced
// solve path stays allocation-identical (pinned in alloc_test.go and
// internal/solve).

import "hypertree/internal/telemetry"

// EngineStats is the counter block of one or more engine runs:
// subproblem/memo behavior and DynComponents reuse. The zero value is ready to use; Add accumulates across runs.
type EngineStats struct {
	Subproblems int64 `json:"subproblems"` // memoized subproblems actually computed
	MemoHits    int64 `json:"memo_hits"`   // decompose calls answered from the memo
	DynResets   int64 `json:"dyn_resets"`  // DynComponents borrowed (one per dyn subproblem)
	DynSeeded   int64 `json:"dyn_seeded"`  // resets whose base partition was parent-seeded
}

// Add accumulates o into s.
func (s *EngineStats) Add(o EngineStats) {
	s.Subproblems += o.Subproblems
	s.MemoHits += o.MemoHits
	s.DynResets += o.DynResets
	s.DynSeeded += o.DynSeeded
}

// Process-wide engine counters (OBSERVABILITY.md), fed by every engine
// run in the process regardless of which entry point started it.
var (
	mEngineRuns = telemetry.Default().NewCounter("hg_engine_runs_total",
		"cover-oracle engine runs (one per Check(·,k) invocation)")
	mEngineSubproblems = telemetry.Default().NewCounter("hg_engine_subproblems_total",
		"memoized subproblems computed by the engine")
	mEngineMemoHits = telemetry.Default().NewCounter("hg_engine_memo_hits_total",
		"engine decompose calls answered from the memo")
	mEngineDynResets = telemetry.Default().NewCounter("hg_engine_dyn_resets_total",
		"DynComponents structures borrowed by engine subproblems")
	mEngineDynSeeded = telemetry.Default().NewCounter("hg_engine_dyn_seeded_total",
		"DynComponents resets seeded from the parent (base BFS skipped)")
)

// EngineCounters returns the process-wide engine counter snapshot, for
// aggregate reporting (hgserve /healthz).
func EngineCounters() EngineStats {
	return EngineStats{
		Subproblems: mEngineSubproblems.Value(),
		MemoHits:    mEngineMemoHits.Value(),
		DynResets:   mEngineDynResets.Value(),
		DynSeeded:   mEngineDynSeeded.Value(),
	}
}

// flushStats publishes the engine's accumulated counters: the global
// telemetry counters always, the caller's sink when present.
func (e *engine) flushStats() {
	s := e.stats
	mEngineRuns.Inc()
	mEngineSubproblems.Add(s.Subproblems)
	mEngineMemoHits.Add(s.MemoHits)
	mEngineDynResets.Add(s.DynResets)
	mEngineDynSeeded.Add(s.DynSeeded)
	if e.sink != nil {
		e.sink.Add(s)
	}
}
