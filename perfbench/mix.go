package main

// mix.go — the two closed-loop solve mixes: one caller, no result cache,
// every op one solve.Solve call. A pass presents every shape afresh and
// solves it at the workload budget; a traced pass first probes every
// shape at the 1 ms budget for the time to the first interval.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"hypertree/internal/corpus"
	"hypertree/internal/solve"
	"hypertree/internal/telemetry"
)

// mixSpec names one mix, the measures each instance is solved under, in
// order, and the nominal length of one pass on a 2-CPU host. A run
// measures round(seconds / pass) passes, at least one: a fixed amount
// of work for a given --seconds, so a faster program finishes sooner
// rather than measuring a different mix.
type mixSpec struct {
	name     string
	measures []solve.Measure
	pass     time.Duration
}

var mixSpecs = map[string]mixSpec{
	"mix-integral": {"mix-integral", []solve.Measure{solve.HW, solve.GHW}, 10 * time.Second},
	"mix-fhw":      {"mix-fhw", []solve.Measure{solve.FHW}, 15 * time.Second},
}

// passes returns how many passes a run of the given length measures.
func (s mixSpec) passes(seconds time.Duration) int {
	return max(int(math.Round(float64(seconds)/float64(s.pass))), 1)
}

const (
	mixBudget   = 2 * time.Second
	probeBudget = time.Millisecond
	// probeRounds repeats the cheap 1 ms probes of a pass, so their p90
	// rests on several samples per instance.
	probeRounds = 3
)

type mixOp struct {
	inst    instance
	measure solve.Measure
}

// genMix generates the passes for a seed. Each pass presents every shape
// anew, decodes the presentation from its text as a caller's input
// would be, and orders the instances randomly; each instance is solved
// under the spec's measures in order.
func genMix(spec mixSpec, shapes []shape, seed int64, passes int) ([][]mixOp, *fingerprint, error) {
	rng := rand.New(rand.NewSource(seed))
	fp := &fingerprint{}
	out := make([][]mixOp, passes)
	for p := range out {
		insts := buildInstances(shapes, rng)
		rng.Shuffle(len(insts), func(a, b int) { insts[a], insts[b] = insts[b], insts[a] })
		for _, in := range insts {
			h, _, err := corpus.DecodeString(in.text)
			if err != nil {
				return nil, nil, fmt.Errorf("decode %s: %w", in.shape, err)
			}
			in.h = h
			for _, m := range spec.measures {
				out[p] = append(out[p], mixOp{in, m})
				fp.add("%s pass=%d %s %s %s", spec.name, p, in.shape, m, in.text)
			}
		}
	}
	return out, fp, nil
}

// opRec is one measured op.
type opRec struct {
	out      outcome
	lat      time.Duration
	budget   time.Duration
	partial  bool
	probe    bool
	strategy string

	// How long the goroutines Solve left behind took to end, and, for
	// traced ops, the trace as Solve returned and once they had.
	straggler      time.Duration
	atReturn, late *telemetry.Summary
}

// runSolve runs one op through solve.Solve. Every op starts after a
// garbage collection and, once timed, waits for the goroutines the solve
// left running (solve.straggler_ms in traced runs), so each op starts
// from the same state whatever ran before it.
func runSolve(op mixOp, budget time.Duration, traced bool) opRec {
	ctx := context.Background()
	var tr *telemetry.Trace
	if traced {
		ctx, tr = telemetry.WithTrace(ctx)
	}
	runtime.GC()
	base := runtime.NumGoroutine()
	t0 := time.Now()
	res, err := solve.Solve(ctx, op.inst.h, solve.Options{Measure: op.measure, Timeout: budget})
	rec := opRec{lat: time.Since(t0), budget: budget, out: outcome{shape: op.inst.shape, measure: op.measure}}
	rec.atReturn = tr.Summary() // nil when untraced
	rec.straggler = waitGoroutines(base, time.Second)
	rec.late = tr.Summary()
	if err != nil {
		rec.out.err = "solve: " + err.Error()
		return rec
	}
	rec.out.lower, rec.out.upper, rec.out.exact, rec.out.witness = res.Lower, res.Upper, res.Exact, res.Witness
	rec.partial, rec.strategy = res.Partial, res.Strategy
	return rec
}

// waitGoroutines polls until at most base goroutines run, up to limit,
// and returns how long that took.
func waitGoroutines(base int, limit time.Duration) time.Duration {
	t0 := time.Now()
	for runtime.NumGoroutine() > base && time.Since(t0) < limit {
		time.Sleep(200 * time.Microsecond)
	}
	return time.Since(t0)
}

// runMix measures the passes: in traced runs every op at the probe
// budget first, then every op at the workload budget (the probe budget
// too in smoke mode).
func runMix(passes [][]mixOp, cfg runConfig) []opRec {
	budget := mixBudget
	if cfg.smoke {
		budget = probeBudget
	}
	rounds := 0
	if cfg.trace {
		rounds = probeRounds
	}
	var recs []opRec
	for _, ops := range passes {
		for round := 0; round < rounds; round++ {
			for _, op := range ops {
				rec := runSolve(op, probeBudget, false)
				rec.probe = true
				recs = append(recs, rec)
			}
		}
		for _, op := range ops {
			recs = append(recs, runSolve(op, budget, cfg.trace))
		}
	}
	return recs
}

// mixEndToEnd computes the end-to-end metrics of a mix run.
func mixEndToEnd(r *result, recs []opRec) {
	var lat, gaps []float64
	var busy time.Duration
	exact := 0
	for _, rec := range recs {
		if rec.probe {
			continue
		}
		lat = append(lat, ms(rec.lat))
		busy += rec.lat
		gaps = append(gaps, gapOf(rec.out.lower, rec.out.upper))
		if rec.out.exact {
			exact++
		}
	}
	r.set("throughput_ops_s", "1/s", ratio(float64(len(lat)), busy.Seconds()))
	r.set("latency_geomean_ms", "ms", geomean(lat))
	r.set("latency_p90_ms", "ms", quantile(lat, 0.9))
	r.set("latency_p99_ms", "ms", quantile(lat, 0.99))
	r.set("exact_rate", "ratio", ratio(float64(exact), float64(len(lat))))
	r.set("gap_mean", "ratio", mean(gaps))
}
