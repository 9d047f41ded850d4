package corpus

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"hypertree/internal/hypergraph"
	"hypertree/internal/solve"
	"hypertree/internal/telemetry"
)

// Classes records where an instance falls relative to the paper's
// tractable classes: acyclicity, the bounded intersection property
// (Definition 4.1), the bounded 3-multi-intersection property
// (Definition 4.2) and the bounded degree property (Definition 4.13).
// The BIP/BMIP/BDP booleans use the HyperBench study's thresholds
// (iwidth ≤ 2, 3-miwidth ≤ 1, degree ≤ 3).
type Classes struct {
	Acyclic  bool `json:"acyclic"`
	IWidth   int  `json:"iwidth"`
	MIWidth3 int  `json:"miwidth3"`
	Degree   int  `json:"degree"`
	BIP      bool `json:"bip"`
	BMIP     bool `json:"bmip"`
	BDP      bool `json:"bdp"`
}

// Classify computes the structural classification of h.
func Classify(h *hypergraph.Hypergraph) Classes {
	c := Classes{
		Acyclic:  h.IsAcyclic(),
		IWidth:   h.IntersectionWidth(),
		MIWidth3: h.MultiIntersectionWidth(3),
		Degree:   h.Degree(),
	}
	c.BIP = c.IWidth <= 2
	c.BMIP = c.MIWidth3 <= 1
	c.BDP = c.Degree <= 3
	return c
}

// Fingerprint returns the canonical fingerprint of h used to key the
// resumable results log: the solve cache's vertex-rename-invariant
// 64-bit canonical form, hex-encoded. Two instances that differ only in
// vertex/edge names share a fingerprint.
func Fingerprint(h *hypergraph.Hypergraph) string {
	return fmt.Sprintf("%016x", solve.KeyFor(solve.GHW, h).FP)
}

// InstanceResult is one line of the runner's JSONL results log.
type InstanceResult struct {
	Name        string `json:"name"`
	Fingerprint string `json:"fingerprint,omitempty"`
	Format      string `json:"format,omitempty"`
	Vertices    int    `json:"vertices,omitempty"`
	Edges       int    `json:"edges,omitempty"`
	Measure     string `json:"measure,omitempty"`
	Lower       string `json:"lower,omitempty"`
	Upper       string `json:"upper,omitempty"`
	Exact       bool   `json:"exact,omitempty"`
	Partial     bool   `json:"partial,omitempty"`
	Cached      bool   `json:"cached,omitempty"`
	Strategy    string `json:"strategy,omitempty"`
	// Provenance classifies the guarantee behind Upper ("exact",
	// "approx-certified" or "heuristic"); see CORPUS.md. Absent only on
	// error lines and pre-interval-contract logs.
	Provenance string  `json:"provenance,omitempty"`
	Blocks     int     `json:"blocks,omitempty"`
	ElapsedMS  int64   `json:"elapsed_ms"`
	Err        string  `json:"error,omitempty"`
	Classes    Classes `json:"classes"`
	// KTrajectory is the winning strategy's iterative-deepening levels
	// and Telemetry the solve's counter snapshot (engine/LP/cache work
	// this instance incurred), both from the per-request trace. Absent
	// on cached, resumed and pre-telemetry log lines; resume ignores
	// them, so old logs stay readable.
	KTrajectory []int               `json:"k_trajectory,omitempty"`
	Telemetry   *telemetry.Counters `json:"telemetry,omitempty"`
	// Resumed marks a result carried over from a previous run's log
	// rather than recomputed. Never serialized: resumed results are
	// already in the log.
	Resumed bool `json:"-"`
}

// Loaded is an instance already decoded in memory — the unit RunLoaded
// executes. Err carries a load/parse failure; such items produce an
// error result instead of being solved.
type Loaded struct {
	Name   string
	Format Format
	H      *hypergraph.Hypergraph
	Err    error
}

// RunOptions configure a corpus run.
type RunOptions struct {
	// Measure selects the width measure (default GHW).
	Measure solve.Measure
	// Timeout bounds each instance's solve (0 = no per-instance budget).
	Timeout time.Duration
	// Shards is the number of parallel workers (≤ 0 runs serially).
	Shards int
	// ResultsPath is the JSONL results log Run appends to (empty
	// disables logging; RunLoaded never writes files).
	ResultsPath string
	// Resume skips instances whose fingerprint already has an exact
	// result in the log and appends to it instead of truncating.
	Resume bool
	// Gate, when set, is invoked before each instance's solve; the solve
	// waits until it returns and its release func runs afterwards.
	// hgserve uses this to charge batch instances to its worker pool.
	Gate func(ctx context.Context) (release func(), err error)
	// Progress, when set, is called after each instance completes (or is
	// skipped on resume) with the running completion count. Calls are
	// serialized.
	Progress func(done, total int, r InstanceResult)
}

// runShards distributes indices 0..n-1 over up to `shards` workers
// (≤ 0 runs serially) and waits for all of them.
func runShards(n, shards int, process func(i int)) {
	if shards <= 0 {
		shards = 1
	}
	if shards > n {
		shards = n
	}
	work := make(chan int)
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				process(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
}

// RunLoaded shards items over opt.Shards parallel workers and solves
// each through solver under the per-instance budget. emit (optional) is
// called serially with each finished result in completion order; the
// returned slice is in input order. Instances that fail to load or
// solve produce error results; a canceled context stops the run early,
// marking unstarted instances with the context error without emitting
// them.
func RunLoaded(ctx context.Context, solver *solve.Solver, items []Loaded, opt RunOptions, emit func(InstanceResult)) []InstanceResult {
	results := make([]InstanceResult, len(items))
	var emitMu sync.Mutex
	done := 0
	finish := func(i int, r InstanceResult, send bool) {
		results[i] = r
		emitMu.Lock()
		defer emitMu.Unlock()
		done++
		if send && emit != nil {
			emit(r)
		}
		if opt.Progress != nil {
			opt.Progress(done, len(items), r)
		}
	}
	runShards(len(items), opt.Shards, func(i int) {
		if err := ctx.Err(); err != nil {
			finish(i, InstanceResult{Name: items[i].Name, Err: err.Error()}, false)
			return
		}
		finish(i, solveOne(ctx, solver, items[i], opt), true)
	})
	return results
}

// solveOne executes a single instance: gate, classification, solve.
// The gate comes first so that everything CPU-bound — including the
// canonical fingerprint and the branch-and-bound classification —
// is charged to the caller's admission control, not run on top of it.
func solveOne(ctx context.Context, solver *solve.Solver, it Loaded, opt RunOptions) InstanceResult {
	r := InstanceResult{Name: it.Name, Measure: opt.Measure.String()}
	if it.Format != FormatUnknown {
		r.Format = it.Format.String()
	}
	if it.Err != nil {
		r.Err = it.Err.Error()
		return r
	}
	if opt.Gate != nil {
		release, err := opt.Gate(ctx)
		if err != nil {
			r.Err = err.Error()
			return r
		}
		defer release()
	}
	h := it.H
	r.Fingerprint = Fingerprint(h)
	r.Vertices = h.NumVertices()
	r.Edges = h.NumEdges()
	r.Classes = Classify(h)
	sctx, tr := telemetry.WithTrace(ctx)
	start := time.Now()
	res, err := solver.Solve(sctx, h, solve.Options{Measure: opt.Measure, Timeout: opt.Timeout})
	r.ElapsedMS = time.Since(start).Milliseconds()
	if err != nil {
		r.Err = err.Error()
		return r
	}
	if res.Lower != nil {
		r.Lower = res.Lower.RatString()
	}
	if res.Upper != nil {
		r.Upper = res.Upper.RatString()
	}
	r.Exact = res.Exact
	r.Partial = res.Partial
	r.Cached = res.FromCache
	r.Strategy = res.Strategy
	r.Provenance = string(res.Provenance)
	r.Blocks = res.Pre.Blocks
	if sum := tr.Summary(); !res.FromCache {
		r.KTrajectory = sum.KTrajectory(res.Strategy)
		if c := sum.Counters; c != (telemetry.Counters{}) {
			r.Telemetry = &c
		}
	}
	return r
}

// resumeKey keys the skip set: same measure, same canonical instance.
func resumeKey(measure, fingerprint string) string { return measure + "|" + fingerprint }

// Run executes a full corpus run: shard the instances over parallel
// workers, and in each worker decode the instance, skip it if its
// canonical fingerprint is already solved exactly in the results log
// (when resuming), solve it otherwise, and append one JSON line per
// finished instance to the log. Decoding happens inside the shards, so
// startup cost and peak memory stay independent of corpus size. The
// returned report covers all instances in input order, including
// resumed ones (marked Resumed).
func Run(ctx context.Context, solver *solve.Solver, instances []Instance, opt RunOptions) (*Report, error) {
	prior := map[string]InstanceResult{}
	loggedNames := map[string]bool{}
	if opt.Resume && opt.ResultsPath != "" {
		logged, err := ReadResults(opt.ResultsPath)
		if err != nil && !os.IsNotExist(err) {
			return nil, fmt.Errorf("corpus: reading results log: %w", err)
		}
		for _, r := range logged {
			loggedNames[r.Name] = true
			if r.Err == "" && r.Exact && r.Fingerprint != "" {
				prior[resumeKey(r.Measure, r.Fingerprint)] = r
			}
		}
	}

	var logFile *os.File
	if opt.ResultsPath != "" {
		flags := os.O_CREATE | os.O_RDWR
		if opt.Resume {
			flags |= os.O_APPEND
		} else {
			flags |= os.O_TRUNC
		}
		var err error
		logFile, err = os.OpenFile(opt.ResultsPath, flags, 0o644)
		if err != nil {
			return nil, fmt.Errorf("corpus: opening results log: %w", err)
		}
		defer logFile.Close()
		// A killed run can leave a torn final line with no newline;
		// terminate it so appended lines don't merge into it.
		if st, err := logFile.Stat(); err == nil && st.Size() > 0 {
			b := make([]byte, 1)
			if _, err := logFile.ReadAt(b, st.Size()-1); err == nil && b[0] != '\n' {
				logFile.Write([]byte("\n"))
			}
		}
	}

	results := make([]InstanceResult, len(instances))
	total := len(instances)
	done := 0
	// emitMu serializes log writes, the loggedNames set, the completion
	// counter and the Progress callback across shards.
	var emitMu sync.Mutex
	writeLine := func(r InstanceResult) {
		if logFile == nil {
			return
		}
		// One Write call per line: a killed run leaves at most one
		// partial trailing line, which ReadResults tolerates.
		if b, err := json.Marshal(r); err == nil {
			logFile.Write(append(b, '\n'))
		}
	}
	finish := func(i int, r InstanceResult, log bool) {
		results[i] = r
		emitMu.Lock()
		defer emitMu.Unlock()
		if log {
			writeLine(r)
		}
		done++
		if opt.Progress != nil {
			opt.Progress(done, total, r)
		}
	}

	runShards(total, opt.Shards, func(i int) {
		in := instances[i]
		if err := ctx.Err(); err != nil {
			results[i] = InstanceResult{Name: in.Name, Err: err.Error()}
			return
		}
		h, f, err := in.Read()
		it := Loaded{Name: in.Name, Format: f, H: h, Err: err}
		if err == nil {
			if p, ok := prior[resumeKey(opt.Measure.String(), Fingerprint(h))]; ok {
				p.Name = in.Name // fingerprint match may come from a renamed twin
				p.Resumed = true
				results[i] = p
				emitMu.Lock()
				// A twin resumed under a name the log has never seen still
				// gets its own record, so the finished log is complete on
				// its own (hgcorpus stats over it sees every instance).
				if logFile != nil && !loggedNames[in.Name] {
					loggedNames[in.Name] = true
					writeLine(p)
				}
				done++
				if opt.Progress != nil {
					opt.Progress(done, total, p)
				}
				emitMu.Unlock()
				return
			}
		}
		finish(i, solveOne(ctx, solver, it, opt), true)
	})
	return &Report{Measure: opt.Measure, Results: results}, nil
}

// ReadResults parses a JSONL results log. Unparseable lines (e.g. a
// partial trailing line from a killed run) are skipped.
func ReadResults(path string) ([]InstanceResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []InstanceResult
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 8<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var r InstanceResult
		if err := json.Unmarshal(line, &r); err != nil {
			continue
		}
		out = append(out, r)
	}
	return out, sc.Err()
}
