package telemetry

import (
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestWithTraceRoundTrip(t *testing.T) {
	ctx, tr := WithTrace(context.Background())
	if tr == nil {
		t.Fatal("WithTrace returned nil trace")
	}
	if got := FromContext(ctx); got != tr {
		t.Fatal("FromContext did not return the installed trace")
	}
	if got := FromContext(context.Background()); got != nil {
		t.Fatal("FromContext on a bare context must be nil")
	}
}

func TestNilTraceIsSafe(t *testing.T) {
	var tr *Trace
	tr.Eventf("preprocess", "blocks=%d", 1)
	tr.StrategyStart(0, "detk")
	tr.StrategyEnd(0, "detk", time.Millisecond, "winner")
	tr.Deepen(0, "detk", 2)
	tr.addCounters(Counters{LPSolves: 3})
	if s := tr.Summary(); s != nil {
		t.Fatal("nil trace Summary must be nil")
	}
	var s *Summary
	if ks := s.KTrajectory(""); ks != nil {
		t.Fatal("nil summary KTrajectory must be nil")
	}
	s.WriteText(&strings.Builder{}) // must not panic
}

func TestTraceEventsAndCounters(t *testing.T) {
	tr := NewTrace()
	tr.Eventf("preprocess", "isolated=%d removed=%d blocks=%d", 0, 1, 2)
	tr.StrategyStart(1, "fhd-check")
	tr.Deepen(1, "fhd-check", 2)
	tr.Deepen(1, "fhd-check", 3)
	tr.Deepen(1, "bip", 2)
	tr.StrategyEnd(1, "fhd-check", 5*time.Millisecond, "winner")
	tr.addCounters(Counters{LPSolves: 10, LPCold: 2, BasisHits: 4})
	tr.addCounters(Counters{LPSolves: 5, BasisMisses: 1})

	s := tr.Summary()
	if len(s.Events) != 6 {
		t.Fatalf("got %d events, want 6", len(s.Events))
	}
	for i := 1; i < len(s.Events); i++ {
		if s.Events[i].AtMS < s.Events[i-1].AtMS {
			t.Fatalf("event timestamps not monotone: %v", s.Events)
		}
	}
	if s.Events[0].Detail != "isolated=0 removed=1 blocks=2" {
		t.Fatalf("bad preprocess detail %q", s.Events[0].Detail)
	}
	if c := s.Counters; c.LPSolves != 15 || c.LPCold != 2 || c.BasisHits != 4 || c.BasisMisses != 1 {
		t.Fatalf("counters not accumulated: %+v", c)
	}
	if ks := s.KTrajectory("fhd-check"); len(ks) != 2 || ks[0] != 2 || ks[1] != 3 {
		t.Fatalf("KTrajectory(fhd-check) = %v, want [2 3]", ks)
	}
	if ks := s.KTrajectory(""); len(ks) != 3 {
		t.Fatalf("KTrajectory(all) = %v, want 3 entries", ks)
	}
}

func TestSummaryJSONAndText(t *testing.T) {
	tr := NewTrace()
	tr.StrategyStart(0, "detk")
	tr.Deepen(0, "detk", 3)
	tr.StrategyEnd(0, "detk", 2*time.Millisecond, "winner")
	tr.addCounters(Counters{EngineSubproblems: 7, EngineMemoHits: 2})
	s := tr.Summary()

	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Summary
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Events) != 3 || back.Counters.EngineSubproblems != 7 {
		t.Fatalf("JSON round trip lost data: %+v", back)
	}

	var sb strings.Builder
	s.WriteText(&sb)
	out := sb.String()
	for _, want := range []string{"strategy_end", "detk", "k=3", "winner", "subproblems=7", "memo_hits=2"} {
		if !strings.Contains(out, want) {
			t.Fatalf("WriteText missing %q:\n%s", want, out)
		}
	}
}

// TestTraceConcurrent exercises one trace from racing strategy
// goroutines, as the portfolio does; run under -race in CI.
func TestTraceConcurrent(t *testing.T) {
	tr := NewTrace()
	const workers, per = 6, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := string(rune('a' + w))
			tr.StrategyStart(0, name)
			for k := 1; k <= per; k++ {
				tr.Deepen(0, name, k)
			}
			tr.addCounters(Counters{LPSolves: per})
			tr.StrategyEnd(0, name, time.Microsecond, "done")
		}(w)
	}
	// A concurrent reader must see consistent snapshots.
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				tr.Summary()
			}
		}
	}()
	wg.Wait()
	close(stop)
	s := tr.Summary()
	if want := workers * (per + 2); len(s.Events) != want {
		t.Fatalf("got %d events, want %d", len(s.Events), want)
	}
	if s.Counters.LPSolves != workers*per {
		t.Fatalf("LPSolves = %d, want %d", s.Counters.LPSolves, workers*per)
	}
}
