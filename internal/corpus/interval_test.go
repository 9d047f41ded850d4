package corpus

// interval_test.go — the corpus-side pins of the hardened interval
// contract: a full run under heavy time pressure produces zero
// interval-less JSONL records, every record carries a provenance, and
// the summary breaks results down by guarantee class.

import (
	"context"
	"strings"
	"testing"
	"time"

	"hypertree/internal/solve"
)

// TestRunZeroIntervalLessRecords: a corpus run with a ~1ms budget per
// instance — every exact strategy loses the race — still yields a full
// [lower, upper] interval and a provenance on every record.
func TestRunZeroIntervalLessRecords(t *testing.T) {
	instances, err := LoadDir(testCorpusDir)
	if err != nil {
		t.Fatal(err)
	}
	solver := solve.NewSolver(nil, 1)
	report, err := Run(context.Background(), solver, instances, RunOptions{
		Measure: solve.FHW,
		Timeout: time.Millisecond,
		Shards:  4,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range report.Results {
		if r.Err != "" {
			t.Fatalf("%s: %s", r.Name, r.Err)
		}
		if r.Upper == "" || r.Lower == "" {
			t.Fatalf("%s: interval-less record: %+v", r.Name, r)
		}
		if r.Provenance == "" {
			t.Fatalf("%s: missing provenance", r.Name)
		}
		if !r.Exact && r.Provenance == string(solve.ProvExact) {
			t.Fatalf("%s: inexact record claims exact provenance", r.Name)
		}
	}
	s := report.Summarize()
	if s.IntervalLess != 0 {
		t.Fatalf("summary counts %d interval-less records, want 0", s.IntervalLess)
	}
	if len(s.Provenance) == 0 {
		t.Fatal("summary has no provenance breakdown")
	}
}

// TestSummaryProvenanceBreakdown pins the aggregate's new columns on a
// synthetic mixed log, including the interval-less warning for old
// pre-contract records.
func TestSummaryProvenanceBreakdown(t *testing.T) {
	rp := &Report{Measure: solve.GHW, Results: []InstanceResult{
		{Name: "a", Exact: true, Upper: "2", Lower: "2", Provenance: "exact"},
		{Name: "b", Partial: true, Upper: "3", Lower: "2", Provenance: "approx-certified"},
		{Name: "c", Partial: true, Upper: "4", Lower: "1", Provenance: "heuristic"},
		{Name: "d", Partial: true, Lower: "2"}, // old log line: no upper, no provenance
		{Name: "e", Err: "boom"},
	}}
	s := rp.Summarize()
	if s.Provenance["exact"] != 1 || s.Provenance["approx-certified"] != 1 || s.Provenance["heuristic"] != 1 || s.Provenance[""] != 1 {
		t.Fatalf("provenance breakdown: %v", s.Provenance)
	}
	if s.IntervalLess != 1 {
		t.Fatalf("interval-less count %d, want 1", s.IntervalLess)
	}
	table := rp.Table()
	if !strings.Contains(table, "provenance: approx-certified×1 exact×1 heuristic×1 unknown×1") {
		t.Fatalf("table missing provenance line:\n%s", table)
	}
	if !strings.Contains(table, "WARNING: 1 records carry no upper bound") {
		t.Fatalf("table missing interval-less warning:\n%s", table)
	}
}
