package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestMetricsEndpoint(t *testing.T) {
	ts := testServer(t)
	// One solve so the counters are live.
	if resp, _ := post(t, ts, "/width", widthRequest{Hypergraph: "e1(a,b), e2(b,c)", Measure: "hw"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("solve status %d", resp.StatusCode)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	out := string(body)
	for _, want := range []string{
		"# TYPE hg_solve_solves_total counter",
		"hg_engine_runs_total",
		"hg_solve_duration_seconds_bucket",
		"hg_server_uptime_seconds",
		"hg_server_cache_entries",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics exposition missing %q:\n%s", want, out)
		}
	}
}

func TestTraceQueryFlag(t *testing.T) {
	ts := testServer(t)
	// Untraced request: no trace in the response.
	if _, wr := post(t, ts, "/width", widthRequest{Hypergraph: "e1(a,b,c), e2(c,d)", Measure: "hw"}); wr.Trace != nil {
		t.Fatalf("untraced request carries a trace: %+v", wr.Trace)
	}
	// ?trace=1 embeds the solve trace (fresh instance so it computes).
	resp, wr := post(t, ts, "/width?trace=1", widthRequest{Hypergraph: "e1(a,b), e2(b,c), e3(c,d)", Measure: "hw"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if wr.Trace == nil || len(wr.Trace.Events) == 0 {
		t.Fatalf("no trace in response: %+v", wr)
	}
	var sawStrategy bool
	for _, e := range wr.Trace.Events {
		if e.Kind == "strategy_end" {
			sawStrategy = true
		}
	}
	if !sawStrategy {
		t.Fatalf("trace lacks strategy events: %+v", wr.Trace.Events)
	}
	if wr.Trace.Counters.EngineSubproblems == 0 {
		t.Fatalf("trace lacks engine counters: %+v", wr.Trace.Counters)
	}
}

// TestMetricsEngineSubproblems checks that the process-wide solve
// counters reach /metrics: after one solve the engine's subproblem
// total cannot be zero.
func TestMetricsEngineSubproblems(t *testing.T) {
	ts := testServer(t)
	if resp, _ := post(t, ts, "/width", widthRequest{Hypergraph: "e1(a,b), e2(b,c), e3(c,d)", Measure: "hw"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("solve status %d", resp.StatusCode)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, "hg_engine_subproblems_total "); ok {
			if v == "0" {
				t.Fatalf("hg_engine_subproblems_total is 0 after a solve")
			}
			return
		}
	}
	t.Fatalf("/metrics lacks hg_engine_subproblems_total:\n%s", body)
}

func TestPprofGated(t *testing.T) {
	// Off by default.
	ts := testServer(t)
	resp, err := http.Get(ts.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("pprof reachable without -pprof")
	}
	// Mounted behind the flag.
	s := newServer(2, 8, 128, 0, 5*time.Second, 10*time.Second)
	s.pprof = true
	ts2 := httptest.NewServer(s.routes())
	defer ts2.Close()
	resp2, err := http.Get(ts2.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("pprof cmdline status %d", resp2.StatusCode)
	}
}
