package telemetry

// trace.go — the per-request solve trace. A Trace is an append-only
// event log plus a small aggregate-counter block, created by WithTrace
// and carried through the solve pipeline in the request context.
// Producers (internal/solve) record preprocessing stats, each portfolio
// strategy's start/stop with wall time, every iterative-deepening
// k-step, cache lookups, and — through Publish — the engine, cover-LP,
// SAT and cache Counters their request actually
// incurred. Consumers render it three ways: hgserve embeds the
// Summary in /width and /decompose responses under ?trace=1 and in its
// access log, hgwidth -stats prints it through WriteText, and the
// corpus runner appends the counters and k-trajectory to its JSONL
// records.
//
// All methods are safe for concurrent use (portfolio strategies race on
// one Trace) and no-ops on a nil receiver, so untraced requests pay
// nothing.

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"
)

type traceCtxKey struct{}

// WithTrace returns a child context carrying a fresh Trace, and the
// trace itself.
func WithTrace(ctx context.Context) (context.Context, *Trace) {
	tr := NewTrace()
	return context.WithValue(ctx, traceCtxKey{}, tr), tr
}

// FromContext returns the context's Trace, or nil when the request is
// untraced. A nil Trace is valid: every method no-ops on it.
func FromContext(ctx context.Context) *Trace {
	tr, _ := ctx.Value(traceCtxKey{}).(*Trace)
	return tr
}

// Event is one timestamped trace entry. Kinds used by internal/solve:
//
//	preprocess      Detail = "isolated=… removed=… blocks=…"
//	cache           Detail = "hit" | "miss"
//	strategy_start  Strategy, Block
//	strategy_end    Strategy, Block, DurMS; Detail = outcome
//	deepen          Strategy, Block, K — one iterative-deepening level
//	bipartite       Detail = "block=… sizes=…/… class=[…]" — an fhw
//	                block routed to the ghw race, with its 2-colouring
type Event struct {
	AtMS     float64 `json:"at_ms"`
	Kind     string  `json:"kind"`
	Strategy string  `json:"strategy,omitempty"`
	Block    int     `json:"block,omitempty"`
	K        int     `json:"k,omitempty"`
	DurMS    float64 `json:"dur_ms,omitempty"`
	Detail   string  `json:"detail,omitempty"`
}

// Trace is one request's event log. Construct with NewTrace (or
// WithTrace); the zero value is not usable, but a nil *Trace is — every
// method no-ops on it.
type Trace struct {
	mu       sync.Mutex
	start    time.Time
	events   []Event
	counters Counters
}

// NewTrace returns an empty trace whose clock starts now.
func NewTrace() *Trace { return &Trace{start: time.Now()} }

// Eventf appends an event with a formatted detail string.
func (t *Trace) Eventf(kind string, format string, args ...any) {
	if t == nil {
		return
	}
	t.append(Event{Kind: kind, Detail: fmt.Sprintf(format, args...)})
}

// StrategyStart records a portfolio strategy launching on a block.
func (t *Trace) StrategyStart(block int, strategy string) {
	if t == nil {
		return
	}
	t.append(Event{Kind: "strategy_start", Strategy: strategy, Block: block})
}

// StrategyEnd records a strategy finishing (or being cancelled) with
// its wall time and outcome ("winner", "done", "canceled", …).
func (t *Trace) StrategyEnd(block int, strategy string, dur time.Duration, outcome string) {
	if t == nil {
		return
	}
	t.append(Event{Kind: "strategy_end", Strategy: strategy, Block: block,
		DurMS: durMS(dur), Detail: outcome})
}

// Deepen records one iterative-deepening level k of a strategy.
func (t *Trace) Deepen(block int, strategy string, k int) {
	if t == nil {
		return
	}
	t.append(Event{Kind: "deepen", Strategy: strategy, Block: block, K: k})
}

// addCounters folds a counter delta into the request aggregate; the
// producers' entry point is Publish.
func (t *Trace) addCounters(c Counters) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counters.add(c)
	t.mu.Unlock()
}

func (t *Trace) append(e Event) {
	now := time.Now()
	t.mu.Lock()
	e.AtMS = durMS(now.Sub(t.start))
	t.events = append(t.events, e)
	t.mu.Unlock()
}

func durMS(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// Summary is the serializable snapshot of a trace, embedded in HTTP
// responses (?trace=1) and printed by hgwidth -stats.
type Summary struct {
	ElapsedMS float64  `json:"elapsed_ms"`
	Events    []Event  `json:"events"`
	Counters  Counters `json:"counters"`
}

// Summary snapshots the trace. Safe to call while producers are still
// appending; the snapshot is a copy. Returns nil on a nil trace.
func (t *Trace) Summary() *Summary {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	ev := make([]Event, len(t.events))
	copy(ev, t.events)
	return &Summary{
		ElapsedMS: durMS(time.Since(t.start)),
		Events:    ev,
		Counters:  t.counters,
	}
}

// KTrajectory returns the deepening levels recorded for the named
// strategy in event order, or for every strategy when name is empty.
func (s *Summary) KTrajectory(strategy string) []int {
	if s == nil {
		return nil
	}
	var ks []int
	for _, e := range s.Events {
		if e.Kind == "deepen" && (strategy == "" || e.Strategy == strategy) {
			ks = append(ks, e.K)
		}
	}
	return ks
}

// WriteText renders the summary human-readably: the event timeline
// indented under a header, then the non-zero counters.
func (s *Summary) WriteText(w io.Writer) {
	if s == nil {
		return
	}
	fmt.Fprintf(w, "trace (%.1f ms):\n", s.ElapsedMS)
	for _, e := range s.Events {
		fmt.Fprintf(w, "  %8.2fms  %-15s", e.AtMS, e.Kind)
		if e.Strategy != "" {
			fmt.Fprintf(w, " %s", e.Strategy)
		}
		if e.Kind == "deepen" {
			fmt.Fprintf(w, " k=%d", e.K)
		}
		if e.Block > 0 {
			fmt.Fprintf(w, " block=%d", e.Block)
		}
		if e.DurMS > 0 {
			fmt.Fprintf(w, " (%.2f ms)", e.DurMS)
		}
		if e.Detail != "" {
			fmt.Fprintf(w, " %s", e.Detail)
		}
		fmt.Fprintln(w)
	}
	c := s.Counters
	fmt.Fprintf(w, "  engine: runs=%d subproblems=%d memo_hits=%d dyn_resets=%d dyn_seeded=%d\n",
		c.EngineRuns, c.EngineSubproblems, c.EngineMemoHits, c.DynResets, c.DynSeeded)
	fmt.Fprintf(w, "  lp: solves=%d float=%d cold=%d\n", c.LPSolves, c.LPFloat, c.LPCold)
	fmt.Fprintf(w, "  caches: result=%d/%d\n",
		c.ResultCacheHits, c.ResultCacheHits+c.ResultCacheMisses)
}
