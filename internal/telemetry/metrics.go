// Package telemetry is the dependency-free measurement substrate of the
// width service: a process-wide metrics registry (atomic counters and
// fixed-bucket histograms with a Prometheus text-exposition writer), a
// per-request solve trace threaded through contexts, and Counters, the
// solve counter block that Publish adds to both (counters.go).
//
// The package is built to be safe to leave in hot paths. Every metric
// operation is a single atomic read-modify-write (plus one lock-free map
// read for labeled counters; Publish takes one short lock per delta) and
// allocates nothing; every method is a no-op on a nil receiver, so call
// sites never need a "telemetry enabled?" branch — a component
// constructed without a sink simply holds nils. Traces follow the same discipline: telemetry.FromContext returns
// nil on untraced requests and every Trace method no-ops on nil, so the
// untraced solve path is byte-for-byte the pre-telemetry one (pinned by
// AllocsPerRun tests in internal/solve).
//
// Metric names follow the Prometheus conventions: hg_<subsystem>_<what>
// with a _total suffix on counters and base units (seconds) on
// histograms. OBSERVABILITY.md catalogs every name the repo registers.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// A metric is one named time series family the registry can expose.
type metric interface {
	metricName() string
	write(w io.Writer)
}

// Registry holds registered metrics and renders them in Prometheus text
// exposition format. Registration is cheap but locked; do it once at
// package init (or construction), not per request. The zero value is
// not usable; use NewRegistry or the package-level Default registry.
type Registry struct {
	mu      sync.Mutex
	metrics []metric
	names   map[string]bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: map[string]bool{}}
}

// defaultRegistry is the process-wide registry every subsystem registers
// into; hgserve's GET /metrics exposes it.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

// register adds m, panicking on a duplicate name — duplicate
// registration is a wiring bug, and catching it at init beats exposing
// two families under one name.
func (r *Registry) register(m metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.names[m.metricName()] {
		panic("telemetry: duplicate metric " + m.metricName())
	}
	r.names[m.metricName()] = true
	r.metrics = append(r.metrics, m)
}

// WritePrometheus renders every registered metric in text exposition
// format, in registration order.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	ms := r.metrics[:len(r.metrics):len(r.metrics)]
	r.mu.Unlock()
	for _, m := range ms {
		m.write(w)
	}
}

// Counter is a monotonically increasing int64. All methods are safe for
// concurrent use and no-ops on a nil receiver.
type Counter struct {
	name string
	help string
	v    atomic.Int64
}

// NewCounter registers and returns a counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	c := &Counter{name: name, help: help}
	r.register(c)
	return c
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (negative n is ignored; counters only go up).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

func (c *Counter) metricName() string { return c.name }

func (c *Counter) write(w io.Writer) {
	writeHeader(w, c.name, c.help, "counter")
	fmt.Fprintf(w, "%s %d\n", c.name, c.v.Load())
}

// CounterVec is a family of counters distinguished by one label (e.g.
// hg_solve_strategy_wins_total{strategy="detk"}). With never allocates
// after a label value's first use; pre-warm known values at init when a
// call site must stay strictly zero-alloc from the first increment.
type CounterVec struct {
	name  string
	help  string
	label string
	kids  sync.Map // label value → *Counter
}

// NewCounterVec registers and returns a one-label counter family.
func (r *Registry) NewCounterVec(name, help, label string) *CounterVec {
	v := &CounterVec{name: name, help: help, label: label}
	r.register(v)
	return v
}

// With returns the counter for the given label value, creating it on
// first use. Returns nil (a usable no-op counter) on a nil receiver.
func (v *CounterVec) With(value string) *Counter {
	if v == nil {
		return nil
	}
	if c, ok := v.kids.Load(value); ok {
		return c.(*Counter)
	}
	c, _ := v.kids.LoadOrStore(value, &Counter{name: v.name})
	return c.(*Counter)
}

// Values returns a snapshot of every label value's count.
func (v *CounterVec) Values() map[string]int64 {
	if v == nil {
		return nil
	}
	out := map[string]int64{}
	v.kids.Range(func(k, c any) bool {
		out[k.(string)] = c.(*Counter).Value()
		return true
	})
	return out
}

func (v *CounterVec) metricName() string { return v.name }

func (v *CounterVec) write(w io.Writer) {
	vals := v.Values()
	if len(vals) == 0 {
		return
	}
	keys := make([]string, 0, len(vals))
	for k := range vals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	writeHeader(w, v.name, v.help, "counter")
	for _, k := range keys {
		fmt.Fprintf(w, "%s{%s=%q} %d\n", v.name, v.label, k, vals[k])
	}
}

// Histogram is a fixed-bucket histogram over float64 observations
// (Prometheus-style cumulative le buckets plus _sum and _count).
// Observe is lock-free: one bucket increment, one count increment and a
// CAS loop on the bit-packed sum; it never allocates.
type Histogram struct {
	name    string
	help    string
	bounds  []float64 // ascending upper bounds; +Inf bucket implicit
	buckets []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64
}

// DefBuckets is the default latency bucket layout in seconds: 1ms to
// ~30s in roughly 3× steps, matching the solve budgets the service
// actually runs under.
var DefBuckets = []float64{0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1, 3, 10, 30}

// NewHistogram registers and returns a histogram over the given
// ascending upper bounds (nil = DefBuckets).
func (r *Registry) NewHistogram(name, help string, bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("telemetry: histogram bounds must ascend")
		}
	}
	h := &Histogram{name: name, help: help, bounds: bounds, buckets: make([]atomic.Int64, len(bounds)+1)}
	r.register(h)
	return h
}

// Observe records one observation. No-op on nil.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

func (h *Histogram) metricName() string { return h.name }

func (h *Histogram) write(w io.Writer) {
	writeHeader(w, h.name, h.help, "histogram")
	cum := int64(0)
	for i, b := range h.bounds {
		cum += h.buckets[i].Load()
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", h.name, formatFloat(b), cum)
	}
	cum += h.buckets[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", h.name, cum)
	fmt.Fprintf(w, "%s_sum %s\n", h.name, formatFloat(h.Sum()))
	fmt.Fprintf(w, "%s_count %d\n", h.name, h.count.Load())
}

func formatFloat(f float64) string { return fmt.Sprintf("%g", f) }

func writeHeader(w io.Writer, name, help, typ string) {
	if help != "" {
		fmt.Fprintf(w, "# HELP %s %s\n", name, help)
	}
	fmt.Fprintf(w, "# TYPE %s %s\n", name, typ)
}
