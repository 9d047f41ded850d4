package telemetry

import (
	"strings"
	"sync"
	"testing"
)

// TestPublish checks the one recording path: a delta lands in the
// process totals and in the trace, also from racing goroutines, a nil
// trace is accepted without an allocation, and /metrics renders each
// totals family under a single # TYPE line with its label rows grouped
// beneath it.
func TestPublish(t *testing.T) {
	before := Totals()
	tr := NewTrace()
	Publish(tr, Counters{EngineRuns: 1, LPFloat: 3, LPCold: 2, SATSolves: 1})
	Publish(nil, Counters{EngineRuns: 1})
	after := Totals()
	if d := after.EngineRuns - before.EngineRuns; d != 2 {
		t.Fatalf("EngineRuns total moved by %d, want 2", d)
	}
	if d := after.LPFloat - before.LPFloat; d != 3 {
		t.Fatalf("LPFloat total moved by %d, want 3", d)
	}
	if c := tr.Summary().Counters; c.EngineRuns != 1 || c.LPFloat != 3 || c.LPCold != 2 || c.SATSolves != 1 {
		t.Fatalf("trace counters = %+v, want the first delta only", c)
	}

	// Racing lanes publish into one trace and the shared totals.
	const workers, per = 4, 100
	shared, runs := NewTrace(), Totals().EngineRuns
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				Publish(shared, Counters{EngineRuns: 1})
			}
		}()
	}
	wg.Wait()
	if got := shared.Summary().Counters.EngineRuns; got != workers*per {
		t.Fatalf("concurrent trace EngineRuns = %d, want %d", got, workers*per)
	}
	if d := Totals().EngineRuns - runs; d != workers*per {
		t.Fatalf("concurrent EngineRuns total moved by %d, want %d", d, workers*per)
	}

	if n := testing.AllocsPerRun(200, func() {
		Publish(nil, Counters{EngineSubproblems: 5, DynResets: 1})
	}); n != 0 {
		t.Fatalf("Publish(nil, c) allocates %v per run, want 0", n)
	}

	var sb strings.Builder
	Default().WritePrometheus(&sb)
	lines := strings.Split(sb.String(), "\n")
	for i := 0; i < len(counterRows); {
		fam := counterRows[i].family
		j := i
		for j < len(counterRows) && counterRows[j].family == fam {
			j++
		}
		types, at := 0, -1
		for k, l := range lines {
			if l == "# TYPE "+fam+" counter" {
				types++
				at = k
			}
		}
		if types != 1 {
			t.Fatalf("%s: %d # TYPE lines, want 1", fam, types)
		}
		for k, r := range counterRows[i:j] {
			want := fam + " "
			if r.label != "" {
				want = fam + "{" + r.label + "} "
			}
			if got := lines[at+1+k]; !strings.HasPrefix(got, want) {
				t.Fatalf("%s: row %d is %q, want prefix %q", fam, k, got, want)
			}
		}
		i = j
	}
	if !strings.Contains(sb.String(), "# HELP hg_lp_solves_total cover-LP solves by path") {
		t.Fatal("labelled family lost its help line")
	}
}
