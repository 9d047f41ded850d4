package telemetry

// counters.go — the solve counters. Counters is the one declaration of
// every scalar solve counter. Producers hand a delta to Publish, which
// adds it to the request trace (when there is one) and to the
// process-wide totals; /metrics renders the totals through the
// counterRows table below, so a trace field and its metric cannot
// drift apart.

import (
	"fmt"
	"io"
	"sync"
)

// Counters is the aggregate block of what a solve's engine runs, cover
// LPs, SAT calls and caches did, summed over every strategy and block.
// A Trace holds one per request; the process holds one total (Totals).
// Field groups follow the metric families (OBSERVABILITY.md): engine
// memo behavior, DynComponents reuse, cover-LP path mix (float-first or
// cold rational), the result-cache pair and sat-ord's CDCL work.
// BasisHits and BasisMisses are never set; they stay only because the
// repository benchmark compiles against them.
type Counters struct {
	EngineRuns        int64 `json:"engine_runs,omitempty"`
	EngineSubproblems int64 `json:"engine_subproblems,omitempty"`
	EngineMemoHits    int64 `json:"engine_memo_hits,omitempty"`
	DynResets         int64 `json:"dyn_resets,omitempty"`
	DynSeeded         int64 `json:"dyn_seeded,omitempty"`

	LPSolves int64 `json:"lp_solves,omitempty"`
	LPCold   int64 `json:"lp_cold,omitempty"`
	LPFloat  int64 `json:"lp_float,omitempty"`

	BasisHits   int64 `json:"basis_hits,omitempty"`
	BasisMisses int64 `json:"basis_misses,omitempty"`

	ResultCacheHits   int64 `json:"result_cache_hits,omitempty"`
	ResultCacheMisses int64 `json:"result_cache_misses,omitempty"`

	SATSolves       int64 `json:"sat_solves,omitempty"`
	SATConflicts    int64 `json:"sat_conflicts,omitempty"`
	SATPropagations int64 `json:"sat_propagations,omitempty"`
	SATLearned      int64 `json:"sat_learned,omitempty"`
	SATRestarts     int64 `json:"sat_restarts,omitempty"`
	SATReuseHits    int64 `json:"sat_reuse_hits,omitempty"`
	SATBlocked      int64 `json:"sat_blocked,omitempty"`
	SATPricedBags   int64 `json:"sat_priced_bags,omitempty"`
	SATRebuilds     int64 `json:"sat_rebuilds,omitempty"`
}

// add accumulates o into c.
func (c *Counters) add(o Counters) {
	c.EngineRuns += o.EngineRuns
	c.EngineSubproblems += o.EngineSubproblems
	c.EngineMemoHits += o.EngineMemoHits
	c.DynResets += o.DynResets
	c.DynSeeded += o.DynSeeded
	c.LPSolves += o.LPSolves
	c.LPCold += o.LPCold
	c.LPFloat += o.LPFloat
	c.BasisHits += o.BasisHits
	c.BasisMisses += o.BasisMisses
	c.ResultCacheHits += o.ResultCacheHits
	c.ResultCacheMisses += o.ResultCacheMisses
	c.SATSolves += o.SATSolves
	c.SATConflicts += o.SATConflicts
	c.SATPropagations += o.SATPropagations
	c.SATLearned += o.SATLearned
	c.SATRestarts += o.SATRestarts
	c.SATReuseHits += o.SATReuseHits
	c.SATBlocked += o.SATBlocked
	c.SATPricedBags += o.SATPricedBags
	c.SATRebuilds += o.SATRebuilds
}

// totals is the process-wide sum of every published delta.
var totals struct {
	sync.Mutex
	c Counters
}

// Publish records a counter delta: into the process-wide totals always,
// and into tr when the request is traced (tr may be nil). It is the one
// way a solve counter is recorded. Callers publish per finished run or
// retired loop, never per subproblem; Publish allocates nothing.
func Publish(tr *Trace, c Counters) {
	totals.Lock()
	totals.c.add(c)
	totals.Unlock()
	tr.addCounters(c)
}

// Totals returns the process-wide sum of every published delta.
func Totals() Counters {
	totals.Lock()
	defer totals.Unlock()
	return totals.c
}

// A counterRow exposes one Counters field on /metrics: the family name,
// an optional label pair, the family's help text and the field it
// reads. Rows of one family are adjacent; the first carries the help.
type counterRow struct {
	family, label, help string
	field               func(*Counters) int64
}

// counterRows is the /metrics view of the totals. Fields without a row
// (lp_solves, basis_hits, basis_misses) are trace-only.
var counterRows = []counterRow{
	{"hg_engine_runs_total", "", "cover-oracle engine runs (one per Check(·,k) invocation)", func(c *Counters) int64 { return c.EngineRuns }},
	{"hg_engine_subproblems_total", "", "memoized subproblems computed by the engine", func(c *Counters) int64 { return c.EngineSubproblems }},
	{"hg_engine_memo_hits_total", "", "engine decompose calls answered from the memo", func(c *Counters) int64 { return c.EngineMemoHits }},
	{"hg_engine_dyn_resets_total", "", "DynComponents structures borrowed by engine subproblems", func(c *Counters) int64 { return c.DynResets }},
	{"hg_engine_dyn_seeded_total", "", "DynComponents resets seeded from the parent (base BFS skipped)", func(c *Counters) int64 { return c.DynSeeded }},
	{"hg_result_cache_hits_total", "", "solves answered from the result cache (singleflight reuse included)", func(c *Counters) int64 { return c.ResultCacheHits }},
	{"hg_result_cache_misses_total", "", "cache-enabled solves that had to compute", func(c *Counters) int64 { return c.ResultCacheMisses }},
	{"hg_lp_solves_total", `path="cold"`, "cover-LP solves by path: float-first or cold rational", func(c *Counters) int64 { return c.LPCold }},
	{"hg_lp_solves_total", `path="float"`, "", func(c *Counters) int64 { return c.LPFloat }},
	{"hg_sat_solves_total", "", "CDCL solver calls issued by the sat-ord strategy", func(c *Counters) int64 { return c.SATSolves }},
	{"hg_sat_conflicts_total", "", "CDCL conflicts across sat-ord solves", func(c *Counters) int64 { return c.SATConflicts }},
	{"hg_sat_propagations_total", "", "CDCL unit propagations across sat-ord solves", func(c *Counters) int64 { return c.SATPropagations }},
	{"hg_sat_learned_total", "", "clauses learned by 1UIP conflict analysis", func(c *Counters) int64 { return c.SATLearned }},
	{"hg_sat_restarts_total", "", "CDCL Luby restarts", func(c *Counters) int64 { return c.SATRestarts }},
	{"hg_sat_reuse_hits_total", "", "incremental solver calls that started with retained learned clauses", func(c *Counters) int64 { return c.SATReuseHits }},
	{"hg_sat_blocking_clauses_total", "", "guarded blocking clauses installed by the fhw LP-hybrid path", func(c *Counters) int64 { return c.SATBlocked }},
	{"hg_sat_priced_bags_total", "", "decoded bags priced through the cover LP by the fhw path", func(c *Counters) int64 { return c.SATPricedBags }},
	{"hg_sat_rebuilds_total", "", "encoder rebuilds that discarded learned clauses (kCap growth)", func(c *Counters) int64 { return c.SATRebuilds }},
}

// totalsFamily is one family of counterRows, registered as one metric
// so the registry's duplicate-name check covers it.
type totalsFamily []counterRow

func init() {
	for i := 0; i < len(counterRows); {
		j := i + 1
		for j < len(counterRows) && counterRows[j].family == counterRows[i].family {
			j++
		}
		defaultRegistry.register(totalsFamily(counterRows[i:j]))
		i = j
	}
}

func (f totalsFamily) metricName() string { return f[0].family }

func (f totalsFamily) write(w io.Writer) {
	c := Totals()
	writeHeader(w, f[0].family, f[0].help, "counter")
	for _, r := range f {
		if r.label == "" {
			fmt.Fprintf(w, "%s %d\n", r.family, r.field(&c))
		} else {
			fmt.Fprintf(w, "%s{%s} %d\n", r.family, r.label, r.field(&c))
		}
	}
}
