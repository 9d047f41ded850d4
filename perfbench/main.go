// Command perfbench is the repository's end-to-end benchmark. It drives
// three seeded workloads — two closed-loop solve.Solve mixes and an
// open-loop query stream against the hgserve binary — checks every
// answer against a reference-width table, and prints the metrics as one
// JSON line. With -trace 1 it prints the per-layer metrics instead.
// README.md maps each layer metric to the end-to-end metric it should
// move; run.sh builds and runs it from a checkout root:
//
//	bash perfbench/run.sh --workload mix-fhw --seed 1 --seconds 30 --trace 0
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"hypertree/internal/solve"
)

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	smoke    bool
	hgserve  string // path to the hgserve binary (serve-zipf and traced mix runs)
	ref      refTable
}

var workloads = []string{"mix-integral", "mix-fhw", "serve-zipf"}

// mixSetups is how many times a mix generates its inputs; setup_s is
// the median.
const mixSetups = 21

func main() {
	workload := flag.String("workload", "", "mix-integral, mix-fhw or serve-zipf")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 20, "measurement time per run")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run")
	smoke := flag.Bool("smoke", false, "one short pass at the 1 ms budget")
	root := flag.String("root", ".", "repository checkout root")
	bin := flag.String("hgserve", ".bench_build/hgserve", "hgserve binary, relative to -root")
	makeRefBudget := flag.Duration("make-ref", 0, "regenerate the reference table to stdout with this per-solve budget, and exit")
	flag.Parse()

	if *makeRefBudget > 0 {
		if err := makeRef(os.Stdout, mixShapes, *makeRefBudget); err != nil {
			fail(err)
		}
		return
	}
	ref, err := loadRef(filepath.Join(*root, "perfbench", "reference.tsv"))
	if err != nil {
		fail(err)
	}
	cfg := runConfig{
		workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, smoke: *smoke, hgserve: filepath.Join(*root, *bin), ref: ref,
	}
	res, fp, err := run(cfg)
	if err != nil {
		fail(err)
	}
	fmt.Printf("fingerprint %s workload=%s seed=%d\n", fp, cfg.workload, cfg.seed)
	if err := res.write(os.Stdout); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// run executes one workload and returns its result and input
// fingerprint.
func run(cfg runConfig) (*result, string, error) {
	if spec, ok := mixSpecs[cfg.workload]; ok {
		return runMixWorkload(cfg, spec)
	}
	if cfg.workload == "serve-zipf" {
		return runServeWorkload(cfg)
	}
	return nil, "", fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, workloads)
}

// gateAll runs the correctness gate over the outcomes, reporting each
// failure on stderr, and returns how many failed.
func gateAll(ref refTable, outs []outcome) int {
	failed := 0
	for i := range outs {
		if why := ref.gate(&outs[i]); why != "" {
			failed++
			if failed <= 10 {
				fmt.Fprintf(os.Stderr, "perfbench: gate: %s %s: %s\n", outs[i].shape, outs[i].measure, why)
			}
		}
	}
	return failed
}

func runMixWorkload(cfg runConfig, spec mixSpec) (*result, string, error) {
	np := spec.passes(cfg.seconds)
	if cfg.smoke {
		np = 1
	}
	var passes [][]mixOp
	var fp *fingerprint
	var setups []float64
	for i := 0; i < mixSetups; i++ {
		t0 := time.Now()
		var err error
		if passes, fp, err = genMix(spec, mixShapes, cfg.seed, np); err != nil {
			return nil, "", err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	recs := runMix(passes, cfg)

	outs := make([]outcome, len(recs))
	for i := range recs {
		outs[i] = recs[i].out
	}
	res := newResult()
	res.Attempted, res.Failed = len(outs), gateAll(cfg.ref, outs)
	res.Correct = res.Failed == 0
	if !cfg.trace {
		mixEndToEnd(res, recs)
		res.set("setup_s", "s", median(setups))
		return res, fp.sum(), nil
	}

	// Traced run: the trace-derived layers, the straggler wait, then
	// timed calls into each module.
	e2e := newResult()
	mixEndToEnd(e2e, recs)
	res.set("trace.throughput_ops_s", "1/s", e2e.Metrics["throughput_ops_s"].Value)
	var ops []tracedOp
	var strag, probeLat []float64
	var ws []witnessOf
	for _, rec := range recs {
		if rec.probe {
			probeLat = append(probeLat, ms(rec.lat))
			continue
		}
		ops = append(ops, tracedOp{atReturn: rec.atReturn, late: rec.late, strategy: rec.strategy,
			deadline: rec.partial, overshoot: rec.lat - rec.budget})
		strag = append(strag, ms(rec.straggler))
		if rec.out.witness != nil {
			ws = append(ws, witnessOf{rec.out.witness, rec.out.measure.Kind()})
		}
	}
	traceLayers(res, ops)
	res.set("solve.straggler_ms", "ms", mean(strag))
	res.set("solve.straggler_max_ms", "ms", quantile(strag, 1))
	res.set("solve.first_interval_p90_ms", "ms", quantile(probeLat, 0.9))
	witnessLayers(res, ws)

	byName := map[string]instance{}
	var texts []string
	var kinds []solve.Measure
	for _, op := range passes[0] {
		byName[op.inst.shape] = op.inst
		texts = append(texts, op.inst.text)
		kinds = append(kinds, op.measure)
	}
	inputLayers(res, texts, kinds)
	limit, compare := mixBudget, mixBudget
	if cfg.smoke {
		limit, compare = probeBudget, probeBudget
	}
	fhw := spec.name == "mix-fhw"
	kind := solve.GHW
	if fhw {
		kind = solve.FHW
	}
	moduleLayers(res, byName, kind, !fhw, fhw, limit, compare)

	// The serving layers are not on a mix's path: a short traced
	// serve-zipf session against the hgserve binary measures them.
	scfg := cfg
	scfg.workload, scfg.seconds = "serve-zipf", serveLayerTime
	sres, _, err := runServeWorkload(scfg)
	if err != nil {
		return nil, "", fmt.Errorf("serving layers: %w", err)
	}
	for _, n := range []string{"solve.cache_hit_ratio", "hgserve.overhead_ms", "hgserve.shed", "loadgen.late_p99_ms"} {
		res.Metrics[n] = sres.Metrics[n]
	}
	res.Attempted += sres.Attempted
	res.Failed += sres.Failed
	res.Correct = res.Failed == 0
	res.set("gate.error_rate", "ratio", ratio(float64(res.Failed), float64(res.Attempted)))
	return res, fp.sum(), nil
}

// serveLayerTime is the length of the serve-zipf session a traced mix
// run measures the serving layers with.
const serveLayerTime = 10 * time.Second

func runServeWorkload(cfg runConfig) (*result, string, error) {
	n, budget := int(serveRate*cfg.seconds.Seconds()), serveBudget
	if cfg.smoke {
		n, budget = smokeServeOp, probeBudget
	}
	var sched *serveSchedule
	var fp *fingerprint
	var srv *hgserve
	var setups []float64
	for i := 0; i < serveSetups; i++ {
		if srv != nil {
			srv.stop()
		}
		t0 := time.Now()
		var err error
		if sched, fp, err = genServe(cfg.seed, n, budget, cfg.trace); err != nil {
			return nil, "", err
		}
		if srv, err = startServer(cfg.hgserve); err != nil {
			return nil, "", err
		}
		if err := srv.warm(sched.warm); err != nil {
			srv.stop()
			return nil, "", err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer srv.stop()

	before, err := srv.health()
	if err != nil {
		return nil, "", err
	}
	ctx, cancel := context.WithTimeout(context.Background(), cfg.seconds+60*time.Second)
	defer cancel()
	resps, window := srv.run(ctx, sched.reqs)
	after, err := srv.health()
	if err != nil {
		return nil, "", err
	}
	if ctx.Err() != nil {
		return nil, "", errors.New("request schedule did not finish in time")
	}

	outs := make([]outcome, len(resps))
	for i := range resps {
		outs[i] = serveOutcome(sched.reqs[i], &resps[i])
	}
	res := newResult()
	res.Attempted, res.Failed = len(outs), gateAll(cfg.ref, outs)
	res.Correct = res.Failed == 0
	run := &serveRun{sched: sched, resps: resps, window: window, outcomes: outs}
	if !cfg.trace {
		serveEndToEnd(res, run)
		res.set("setup_s", "s", median(setups))
		return res, fp.sum(), nil
	}

	e2e := newResult()
	serveEndToEnd(e2e, run)
	res.set("trace.throughput_ops_s", "1/s", e2e.Metrics["throughput_ops_s"].Value)
	var ops []tracedOp
	var ws []witnessOf
	var overhead, late, probeLat []float64
	shed := float64(after.Rejected - before.Rejected)
	var texts []string
	var kinds []solve.Measure
	for i, resp := range resps {
		req := sched.reqs[i]
		texts = append(texts, req.text)
		kinds = append(kinds, req.measure)
		late = append(late, ms(resp.late))
		if req.class == "probe" {
			probeLat = append(probeLat, ms(resp.lat))
		}
		if resp.status == http.StatusServiceUnavailable {
			shed++
		}
		if resp.status != http.StatusOK {
			continue
		}
		b := &resp.body
		overhead = append(overhead, ms(resp.rtt)-float64(b.ElapsedMS))
		op := tracedOp{atReturn: b.Trace, strategy: b.Strategy, deadline: b.Partial && !b.Cached}
		if op.deadline {
			op.overshoot = time.Duration(b.ElapsedMS)*time.Millisecond - req.budget
		}
		ops = append(ops, op)
		if w := outs[i].witness; w != nil {
			ws = append(ws, witnessOf{w, req.measure.Kind()})
		}
	}
	traceLayers(res, ops)
	witnessLayers(res, ws)
	inputLayers(res, texts, kinds)
	res.set("hgserve.overhead_ms", "ms", median(overhead))
	res.set("hgserve.shed", "count", shed)
	res.set("loadgen.late_p99_ms", "ms", quantile(late, 0.99))
	hits := float64(after.Cache.Hits - before.Cache.Hits)
	misses := float64(after.Cache.Misses - before.Cache.Misses)
	res.set("solve.cache_hit_ratio", "ratio", ratio(hits, hits+misses))

	// Deadline behaviour in process at the serve budget: the server's
	// goroutines are not visible from outside.
	byName := map[string]instance{}
	for _, in := range buildInstances(mixShapes, fixedRand(cfg.seed)) {
		byName[in.shape] = in
	}
	var strag []float64
	for _, name := range homeProbe {
		rec := runSolve(mixOp{byName[name], solve.FHW}, budget, true)
		strag = append(strag, ms(rec.straggler))
	}
	res.set("solve.straggler_ms", "ms", mean(strag))
	res.set("solve.straggler_max_ms", "ms", quantile(strag, 1))
	res.set("solve.first_interval_p90_ms", "ms", quantile(probeLat, 0.9))
	limit, compare := budget, mixBudget
	if cfg.smoke {
		compare = probeBudget
	}
	moduleLayers(res, byName, solve.GHW, false, false, limit, compare)
	res.set("gate.error_rate", "ratio", ratio(float64(res.Failed), float64(res.Attempted)))
	return res, fp.sum(), nil
}
