package telemetry

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("t_total", "a test counter")
	c.Inc()
	c.Add(4)
	c.Add(-7) // ignored: counters only go up
	if got := c.Value(); got != 5 {
		t.Fatalf("Value = %d, want 5", got)
	}
	var nilC *Counter
	nilC.Inc()
	nilC.Add(3)
	if nilC.Value() != 0 {
		t.Fatal("nil counter must read 0")
	}
}

func TestCounterVec(t *testing.T) {
	r := NewRegistry()
	v := r.NewCounterVec("t_wins_total", "wins", "strategy")
	v.With("detk").Inc()
	v.With("detk").Add(2)
	v.With("minfill").Inc()
	vals := v.Values()
	if vals["detk"] != 3 || vals["minfill"] != 1 {
		t.Fatalf("Values = %v", vals)
	}
	var nilV *CounterVec
	nilV.With("x").Inc() // must not panic
	if nilV.Values() != nil {
		t.Fatal("nil vec Values must be nil")
	}
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("t_seconds", "latency", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("Count = %d, want 5", h.Count())
	}
	if got := h.Sum(); got != 56.05 {
		t.Fatalf("Sum = %v, want 56.05", got)
	}
	var sb strings.Builder
	r.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		`t_seconds_bucket{le="0.1"} 1`,
		`t_seconds_bucket{le="1"} 3`,
		`t_seconds_bucket{le="10"} 4`,
		`t_seconds_bucket{le="+Inf"} 5`,
		`t_seconds_sum 56.05`,
		`t_seconds_count 5`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	var nilH *Histogram
	nilH.Observe(1)
	if nilH.Count() != 0 || nilH.Sum() != 0 {
		t.Fatal("nil histogram must read 0")
	}
}

func TestHistogramExpositionAllBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("lat_seconds", "", []float64{0.1, 1, 10})
	h.Observe(0.05)
	h.Observe(5)
	h.Observe(50)
	var sb strings.Builder
	r.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		`lat_seconds_bucket{le="0.1"} 1`,
		`lat_seconds_bucket{le="1"} 1`,
		`lat_seconds_bucket{le="10"} 2`,
		`lat_seconds_bucket{le="+Inf"} 3`,
		`lat_seconds_count 3`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("hg_test_total", "things done")
	c.Add(7)
	v := r.NewCounterVec("hg_test_wins_total", "wins by strategy", "strategy")
	v.With("b").Inc()
	v.With("a").Add(2)

	var sb strings.Builder
	r.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		"# HELP hg_test_total things done",
		"# TYPE hg_test_total counter",
		"hg_test_total 7",
		"# TYPE hg_test_wins_total counter",
		`hg_test_wins_total{strategy="a"} 2`,
		`hg_test_wins_total{strategy="b"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// Labeled values must be sorted for stable scrapes.
	if strings.Index(out, `strategy="a"`) > strings.Index(out, `strategy="b"`) {
		t.Fatalf("vec labels not sorted:\n%s", out)
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("dup_total", "")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration must panic")
		}
	}()
	r.NewCounter("dup_total", "")
}

// TestConcurrentIncrements exercises every metric type from many
// goroutines; run under -race in CI.
func TestConcurrentIncrements(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("cc_total", "")
	v := r.NewCounterVec("cv_total", "", "l")
	h := r.NewHistogram("ch_seconds", "", []float64{1, 10})

	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lbl := string(rune('a' + w%2))
			for i := 0; i < per; i++ {
				c.Inc()
				v.With(lbl).Inc()
				h.Observe(float64(i % 20))
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != workers*per {
		t.Fatalf("counter = %d, want %d", c.Value(), workers*per)
	}
	vals := v.Values()
	if vals["a"]+vals["b"] != workers*per {
		t.Fatalf("vec sum = %d, want %d", vals["a"]+vals["b"], workers*per)
	}
	if h.Count() != workers*per {
		t.Fatalf("histogram count = %d, want %d", h.Count(), workers*per)
	}
}

// TestMetricOpsZeroAlloc pins the zero-overhead claim: increments and
// observations on live and nil metrics allocate nothing.
func TestMetricOpsZeroAlloc(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("za_total", "")
	v := r.NewCounterVec("zv_total", "", "l")
	h := r.NewHistogram("zh_seconds", "", nil)
	v.With("warm") // label slot pre-created; steady state is lookup only
	var nc *Counter
	var nh *Histogram
	if n := testing.AllocsPerRun(200, func() {
		c.Inc()
		v.With("warm").Add(2)
		h.Observe(0.02)
		nc.Inc()
		nh.Observe(1)
	}); n != 0 {
		t.Fatalf("metric ops allocate %v per run, want 0", n)
	}
}
