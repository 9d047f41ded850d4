// Command hgcorpus runs width solves over a whole corpus of hypergraph
// instances — a HyperBench-style pipeline over the internal/solve
// portfolio.
//
// Usage:
//
//	hgcorpus run    [-measure ghw] [-timeout 10s] [-shards N] [-cache N]
//	                [-out results.jsonl] [-golden file] [-write-golden file]
//	                [-q] <dir | index-file>
//	hgcorpus resume [same flags] <dir | index-file>
//	hgcorpus stats  [-golden file] <results.jsonl>
//
// "run" walks the corpus (any mix of the supported formats: edge-list,
// PACE htd, JSON), shards the instances over parallel workers, solves
// each under the per-instance budget and appends one JSON line per
// instance to the results log. "resume" is "run" against an existing
// log: instances whose canonical fingerprint already has an exact
// result are skipped, so a killed run continues where it stopped.
// Both print the classification/width table (the paper's tractable
// classes — acyclic, BIP, BMIP, BDP — next to the solved widths) and,
// with -golden, verify the run against a golden file. "stats"
// reprints the table of a finished log without solving anything.
//
// Exit status is 0 on success, 1 on usage or I/O errors, and 2 when a
// -golden comparison fails or the run left unsolved instances.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"hypertree/internal/corpus"
	"hypertree/internal/solve"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

const usage = `usage: hgcorpus <run|resume|stats> [flags] <path>

  run    solve every instance under <dir or index file>, logging JSONL results
  resume like run, but skip instances already solved exactly in the log
  stats  reprint the report of an existing results log

Run "hgcorpus <command> -h" for the command's flags.
`

func run(argv []string, stdout, stderr io.Writer) int {
	if len(argv) == 0 {
		fmt.Fprint(stderr, usage)
		return 1
	}
	switch argv[0] {
	case "run":
		return runCorpus(argv[1:], stdout, stderr, false)
	case "resume":
		return runCorpus(argv[1:], stdout, stderr, true)
	case "stats":
		return runStats(argv[1:], stdout, stderr)
	case "-h", "-help", "--help", "help":
		fmt.Fprint(stdout, usage)
		return 0
	}
	fmt.Fprintf(stderr, "hgcorpus: unknown command %q\n%s", argv[0], usage)
	return 1
}

func runCorpus(argv []string, stdout, stderr io.Writer, resume bool) int {
	name := "run"
	if resume {
		name = "resume"
	}
	fs := flag.NewFlagSet("hgcorpus "+name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	measure := fs.String("measure", "ghw", "width measure: hw, ghw or fhw")
	timeout := fs.Duration("timeout", 10*time.Second, "per-instance budget (0 = unbounded)")
	shards := fs.Int("shards", 0, "parallel shards (0 = GOMAXPROCS)")
	cacheSize := fs.Int("cache", solve.DefaultCacheSize, "result cache entries (negative disables)")
	out := fs.String("out", "results.jsonl", "JSONL results log (appended to on resume)")
	golden := fs.String("golden", "", "verify the run against this golden file")
	writeGolden := fs.String("write-golden", "", "write the run's golden file here (requires an all-exact run)")
	quiet := fs.Bool("q", false, "suppress per-instance progress on stderr")
	if err := fs.Parse(argv); err != nil {
		return 1
	}
	if fs.NArg() != 1 {
		fmt.Fprintf(stderr, "hgcorpus %s: exactly one corpus path required\n", name)
		return 1
	}
	m, err := solve.ParseMeasure(*measure)
	if err != nil {
		fmt.Fprintln(stderr, "hgcorpus:", err)
		return 1
	}

	instances, err := corpus.Load(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "hgcorpus:", err)
		return 1
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	nshards := *shards
	if nshards <= 0 {
		nshards = runtime.GOMAXPROCS(0)
	}
	// Shards carry the parallelism; each solve runs its blocks serially.
	solver := solve.NewSolver(solve.NewCache(*cacheSize, 0), 1)
	opt := corpus.RunOptions{
		Measure:     m,
		Timeout:     *timeout,
		Shards:      nshards,
		ResultsPath: *out,
		Resume:      resume,
	}
	if !*quiet {
		opt.Progress = func(done, total int, r corpus.InstanceResult) {
			status := r.Upper
			switch {
			case r.Err != "":
				status = "error: " + r.Err
			case !r.Exact:
				status = "partial [" + r.Lower + "," + r.Upper + "]"
			}
			if r.Resumed {
				status += " (resumed)"
			}
			fmt.Fprintf(stderr, "[%d/%d] %s %s=%s (%dms)\n", done, total, r.Name, r.Measure, status, r.ElapsedMS)
		}
	}
	report, err := corpus.Run(ctx, solver, instances, opt)
	if err != nil {
		fmt.Fprintln(stderr, "hgcorpus:", err)
		return 1
	}
	fmt.Fprint(stdout, report.Table())

	code := 0
	if s := report.Summarize(); s.Errors > 0 || s.Solved < s.Total-s.Errors {
		code = 2
	}
	if ctx.Err() != nil {
		fmt.Fprintln(stderr, "hgcorpus: interrupted; rerun with \"resume\" to continue")
		code = 2
	}
	if *writeGolden != "" {
		f, err := os.Create(*writeGolden)
		if err == nil {
			err = corpus.WriteGolden(f, report)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(stderr, "hgcorpus:", err)
			return 1
		}
	}
	if *golden != "" {
		if err := corpus.CompareGolden(report, *golden); err != nil {
			fmt.Fprintln(stderr, "hgcorpus:", err)
			return 2
		}
		fmt.Fprintf(stdout, "golden: %d instances match %s\n", len(report.Results), *golden)
	}
	return code
}

func runStats(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hgcorpus stats", flag.ContinueOnError)
	fs.SetOutput(stderr)
	golden := fs.String("golden", "", "verify the log against this golden file")
	if err := fs.Parse(argv); err != nil {
		return 1
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "hgcorpus stats: exactly one results.jsonl required")
		return 1
	}
	results, err := corpus.ReadResults(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "hgcorpus:", err)
		return 1
	}
	if len(results) == 0 {
		fmt.Fprintln(stderr, "hgcorpus: no results in", fs.Arg(0))
		return 1
	}
	// A resumed log may hold several attempts per instance (partials
	// and errors are retried); report each instance once.
	results = corpus.DedupeResults(results)
	m, err := solve.ParseMeasure(results[0].Measure)
	if err != nil {
		m = solve.GHW
	}
	report := &corpus.Report{Measure: m, Results: results}
	fmt.Fprint(stdout, report.Table())
	if *golden != "" {
		if err := corpus.CompareGolden(report, *golden); err != nil {
			fmt.Fprintln(stderr, "hgcorpus:", err)
			return 2
		}
		fmt.Fprintf(stdout, "golden: %d instances match %s\n", len(report.Results), *golden)
	}
	return 0
}
