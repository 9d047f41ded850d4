package corpus

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"hypertree/internal/hypergraph"
	"hypertree/internal/solve"
)

// testCorpusDir is the checked-in mini corpus with its golden file.
const testCorpusDir = "../../testdata/corpus"

func TestLoadDir(t *testing.T) {
	instances, err := LoadDir(testCorpusDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(instances) != 30 {
		t.Fatalf("got %d instances, want 30", len(instances))
	}
	formats := map[Format]int{}
	for i := 1; i < len(instances); i++ {
		if instances[i-1].Name >= instances[i].Name {
			t.Fatalf("instances not sorted: %q before %q", instances[i-1].Name, instances[i].Name)
		}
	}
	for _, in := range instances {
		h, f, err := in.Read()
		if err != nil {
			t.Fatalf("%s: %v", in.Name, err)
		}
		if err := h.ValidateNonEmpty(); err != nil {
			t.Fatalf("%s: %v", in.Name, err)
		}
		formats[f]++
	}
	// The mini corpus deliberately spans all three formats.
	for _, f := range []Format{FormatEdgeList, FormatPACE, FormatJSON} {
		if formats[f] < 5 {
			t.Errorf("only %d instances in format %v", formats[f], f)
		}
	}
	// The golden file must not be picked up as an instance.
	for _, in := range instances {
		if strings.Contains(in.Name, "GOLDEN") {
			t.Errorf("golden file loaded as instance %q", in.Name)
		}
	}
}

func TestLoadIndex(t *testing.T) {
	dir := t.TempDir()
	idx := filepath.Join(dir, "index.txt")
	abs, err := filepath.Abs(filepath.Join(testCorpusDir, "triangle.hg"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(idx, []byte("# a comment\n\n"+abs+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	instances, err := Load(idx)
	if err != nil {
		t.Fatal(err)
	}
	if len(instances) != 1 {
		t.Fatalf("got %d instances", len(instances))
	}
	h, _, err := instances[0].Read()
	if err != nil || h.NumEdges() != 3 {
		t.Fatalf("read: %v %v", h, err)
	}
}

// TestRunGolden is the acceptance check: a full run over the mini
// corpus must reproduce the checked-in golden classification/width
// file.
func TestRunGolden(t *testing.T) {
	instances, err := LoadDir(testCorpusDir)
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "results.jsonl")
	solver := solve.NewSolver(solve.NewCache(0, 0), 1)
	report, err := Run(context.Background(), solver, instances, RunOptions{
		Measure:     solve.GHW,
		Timeout:     time.Minute,
		Shards:      4,
		ResultsPath: out,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := CompareGolden(report, filepath.Join(testCorpusDir, "GOLDEN.tsv")); err != nil {
		t.Fatal(err)
	}
	// The log round-trips: stats over the written JSONL reproduce the
	// same golden comparison.
	logged, err := ReadResults(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(logged) != len(instances) {
		t.Fatalf("log has %d lines, want %d", len(logged), len(instances))
	}
	if err := CompareGolden(&Report{Measure: solve.GHW, Results: logged}, filepath.Join(testCorpusDir, "GOLDEN.tsv")); err != nil {
		t.Fatalf("golden vs log: %v", err)
	}
	if !strings.Contains(report.Table(), "30 instances: 30 exact") {
		t.Fatalf("table summary wrong:\n%s", report.Table())
	}
	// Every computed (non-cached) record carries its telemetry snapshot
	// — at minimum the result-cache miss that triggered the compute. On
	// instances this small the exact DP usually wins before the racing
	// deepeners flush engine counters, so only their presence is pinned.
	for _, r := range logged {
		if r.Err == "" && !r.Cached && r.Telemetry == nil {
			t.Fatalf("computed record %q lacks telemetry", r.Name)
		}
	}
}

// TestRunResume pins the resume semantics: a partial results log makes
// a rerun skip every fingerprint already solved, including across
// renamed/reformatted twins, and the combined report still matches the
// golden file.
func TestRunResume(t *testing.T) {
	instances, err := LoadDir(testCorpusDir)
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "results.jsonl")
	solver := solve.NewSolver(solve.NewCache(0, 0), 1)
	opt := RunOptions{Measure: solve.GHW, Timeout: time.Minute, Shards: 2, ResultsPath: out}

	// First run: only a prefix of the corpus, simulating a killed run.
	prefix := instances[:11]
	if _, err := Run(context.Background(), solver, prefix, opt); err != nil {
		t.Fatal(err)
	}
	before, err := ReadResults(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(before) != len(prefix) {
		t.Fatalf("prefix log has %d lines", len(before))
	}

	// Corrupt the log's tail with a partial line: a kill mid-write must
	// not poison the resume.
	f, err := os.OpenFile(out, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"name":"torn-`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Resume skips by canonical fingerprint, so every instance whose
	// fingerprint the prefix already solved is skipped — including
	// renamed/reformatted twins outside the prefix.
	solvedFP := map[string]bool{}
	for _, r := range before {
		solvedFP[r.Fingerprint] = true
	}
	wantResumed := 0
	for _, in := range instances {
		h, _, err := in.Read()
		if err != nil {
			t.Fatal(err)
		}
		if solvedFP[Fingerprint(h)] {
			wantResumed++
		}
	}
	if wantResumed <= len(prefix) {
		t.Fatalf("test corpus lost its fingerprint twins (prefix %d, resumable %d)", len(prefix), wantResumed)
	}

	// Resume over the full corpus.
	opt.Resume = true
	var resumed, computed int
	opt.Progress = func(done, total int, r InstanceResult) {
		if r.Resumed {
			resumed++
		} else {
			computed++
		}
	}
	report, err := Run(context.Background(), solver, instances, opt)
	if err != nil {
		t.Fatal(err)
	}
	if resumed != wantResumed {
		t.Errorf("resumed %d instances, want %d", resumed, wantResumed)
	}
	if computed != len(instances)-wantResumed {
		t.Errorf("computed %d instances, want %d", computed, len(instances)-wantResumed)
	}
	if err := CompareGolden(report, filepath.Join(testCorpusDir, "GOLDEN.tsv")); err != nil {
		t.Fatal(err)
	}
	// The log now covers every instance exactly once: the prefix,
	// everything recomputed, and one carried-over record per resumed
	// twin whose name the log had never seen; the torn line parses
	// away. A standalone stats pass over it matches the golden file.
	after, err := ReadResults(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(instances) {
		t.Fatalf("final log has %d parsed lines, want %d", len(after), len(instances))
	}
	if err := CompareGolden(&Report{Measure: solve.GHW, Results: DedupeResults(after)}, filepath.Join(testCorpusDir, "GOLDEN.tsv")); err != nil {
		t.Fatalf("golden vs resumed log: %v", err)
	}
}

// TestResumeCrossFormatTwin pins that resume dedup is canonical, not
// name-based: k3_pace.htd and triangle.hg are the same hypergraph, so
// solving one marks the other solved.
func TestResumeCrossFormatTwin(t *testing.T) {
	tri := Instance{Name: "triangle", Path: filepath.Join(testCorpusDir, "triangle.hg"), Format: FormatEdgeList}
	k3 := Instance{Name: "k3_pace", Path: filepath.Join(testCorpusDir, "k3_pace.htd"), Format: FormatPACE}
	out := filepath.Join(t.TempDir(), "results.jsonl")
	solver := solve.NewSolver(solve.NewCache(0, 0), 1)
	opt := RunOptions{Measure: solve.GHW, Timeout: time.Minute, ResultsPath: out}
	if _, err := Run(context.Background(), solver, []Instance{tri}, opt); err != nil {
		t.Fatal(err)
	}
	opt.Resume = true
	report, err := Run(context.Background(), solver, []Instance{k3}, opt)
	if err != nil {
		t.Fatal(err)
	}
	r := report.Results[0]
	if !r.Resumed || r.Name != "k3_pace" || r.Upper != "2" {
		t.Fatalf("twin not resumed: %+v", r)
	}
}

// TestRunErrors: unreadable and unparseable instances produce error
// results without failing the run, and golden comparison flags them.
func TestRunErrors(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.hg")
	if err := os.WriteFile(bad, []byte("e1(a,"), 0o644); err != nil {
		t.Fatal(err)
	}
	missing := filepath.Join(dir, "gone.hg")
	solver := solve.NewSolver(nil, 1)
	report, err := Run(context.Background(), solver, []Instance{
		{Name: "bad", Path: bad, Format: FormatEdgeList},
		{Name: "gone", Path: missing, Format: FormatEdgeList},
	}, RunOptions{Measure: solve.GHW})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range report.Results {
		if r.Err == "" {
			t.Errorf("result %d: expected error, got %+v", i, r)
		}
	}
	s := report.Summarize()
	if s.Errors != 2 || s.Solved != 0 {
		t.Fatalf("summary: %+v", s)
	}
	var sink strings.Builder
	if err := WriteGolden(&sink, report); err == nil {
		t.Fatal("WriteGolden accepted an errored run")
	}
}

// TestRunLoadedGate pins the Gate hook: every solve passes through it,
// acquire/release balanced.
func TestRunLoadedGate(t *testing.T) {
	var items []Loaded
	for _, n := range []int{4, 5, 6} {
		items = append(items, Loaded{Name: "cycle", H: hypergraph.Cycle(n)})
	}
	var mu struct {
		acq, rel int
	}
	var gateMu sync.Mutex
	opt := RunOptions{
		Measure: solve.GHW,
		Shards:  3,
		Gate: func(ctx context.Context) (func(), error) {
			gateMu.Lock()
			mu.acq++
			gateMu.Unlock()
			return func() {
				gateMu.Lock()
				mu.rel++
				gateMu.Unlock()
			}, nil
		},
	}
	results := RunLoaded(context.Background(), solve.NewSolver(nil, 1), items, opt, nil)
	if mu.acq != 3 || mu.rel != 3 {
		t.Fatalf("gate acquired %d, released %d", mu.acq, mu.rel)
	}
	for _, r := range results {
		if !r.Exact || r.Upper != "2" {
			t.Fatalf("cycle result: %+v", r)
		}
	}
}

// TestRunLoadedCancel: a dead context stops the run without emitting
// bogus results.
func TestRunLoadedCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	items := []Loaded{{Name: "a", H: hypergraph.Cycle(5)}, {Name: "b", H: hypergraph.Cycle(6)}}
	emitted := 0
	results := RunLoaded(ctx, solve.NewSolver(nil, 1), items, RunOptions{Measure: solve.GHW}, func(InstanceResult) { emitted++ })
	if emitted != 0 {
		t.Fatalf("emitted %d results on dead context", emitted)
	}
	for _, r := range results {
		if r.Err == "" {
			t.Fatalf("expected context error: %+v", r)
		}
	}
}

// TestLoadDirNameCollision: same-stem files in different formats must
// not merge into one instance name.
func TestLoadDirNameCollision(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "foo.hg"), []byte("e1(a,b)"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "foo.json"), []byte(`{"edges":[{"vertices":["x","y"]},{"vertices":["y","z"]}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	instances, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(instances) != 2 {
		t.Fatalf("got %d instances", len(instances))
	}
	names := map[string]bool{}
	for _, in := range instances {
		names[in.Name] = true
	}
	if !names["foo.hg"] || !names["foo.json"] {
		t.Fatalf("collision not disambiguated: %v", names)
	}
}

// TestSummaryStrategyBreakdown pins the strategy-win breakdown and the
// median k-trajectory length on a synthetic report: only exact results
// with a recorded strategy count as wins, trajectory lengths come from
// any result that logged one.
func TestSummaryStrategyBreakdown(t *testing.T) {
	rp := &Report{Measure: solve.GHW, Results: []InstanceResult{
		{Name: "a", Exact: true, Upper: "2", Strategy: "dp", KTrajectory: []int{1, 2}},
		{Name: "b", Exact: true, Upper: "2", Strategy: "sat-ord", KTrajectory: []int{1, 2, 3}},
		{Name: "c", Exact: true, Upper: "3", Strategy: "sat-ord", KTrajectory: []int{1, 2, 3, 4, 5}},
		{Name: "d", Exact: true, Upper: "1"}, // cached: no strategy, no trajectory
		{Name: "e", Partial: true, Lower: "2", Strategy: "deepen-ghw", KTrajectory: []int{1}},
	}}
	s := rp.Summarize()
	if s.StrategyWins["sat-ord"] != 2 || s.StrategyWins["dp"] != 1 || len(s.StrategyWins) != 2 {
		t.Fatalf("strategy wins: %v", s.StrategyWins)
	}
	// Lengths 2, 3, 5, 1 → sorted 1 2 3 5 → median (upper) 3.
	if s.KTrajMedian != 3 {
		t.Fatalf("median k-trajectory length %d, want 3", s.KTrajMedian)
	}
	table := rp.Table()
	if !strings.Contains(table, "strategy wins: sat-ord×2 dp×1") {
		t.Fatalf("table missing strategy breakdown:\n%s", table)
	}
	if !strings.Contains(table, "median k-trajectory length: 3") {
		t.Fatalf("table missing k-trajectory line:\n%s", table)
	}
}
