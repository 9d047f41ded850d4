package main

// layers.go — the per-layer metrics of a traced run. Each layer is
// measured from outside: timed calls into its module's public functions,
// the solve trace the program already emits (telemetry.WithTrace), and
// hgserve's response fields and /healthz.

import (
	"context"
	"math/big"
	"time"

	"hypertree/internal/approx"
	"hypertree/internal/core"
	"hypertree/internal/corpus"
	"hypertree/internal/cover"
	"hypertree/internal/decomp"
	"hypertree/internal/hypergraph"
	"hypertree/internal/lp"
	"hypertree/internal/ordenc"
	"hypertree/internal/solve"
	"hypertree/internal/telemetry"
)

// strategies are the portfolio strategies attributed per layer. Only the
// ones that run as their own portfolio goroutine emit strategy_end
// events and so have a busy time; local-improve runs inside minfill and
// approx-logn, and trivial-ub synchronously before the race.
var strategies = []string{"detk", "bip", "fhd-check", "exact-dp", "minfill", "approx-logn",
	"local-improve", "sat-ord", "sat-ord-lb", "trivial-ub"}

var noBusy = map[string]bool{"local-improve": true, "trivial-ub": true}

// tracedOp is one traced solve as the layer metrics see it.
type tracedOp struct {
	atReturn, late *telemetry.Summary
	strategy       string
	overshoot      time.Duration // > 0 only for ops that hit their deadline
	deadline       bool
}

// traceLayers derives the solve, strategy and counter metrics from the
// traces.
func traceLayers(r *result, ops []tracedOp) {
	var pre, tail, over []float64
	busy := map[string]float64{}
	wins := map[string]int{}
	var c telemetry.Counters
	for _, op := range ops {
		if op.atReturn == nil {
			continue
		}
		lastEnd := -1.0
		for _, e := range op.atReturn.Events {
			switch e.Kind {
			case "preprocess":
				pre = append(pre, e.AtMS)
			case "strategy_end":
				if e.AtMS > lastEnd {
					lastEnd = e.AtMS
				}
			}
		}
		if lastEnd >= 0 && !op.deadline {
			tail = append(tail, op.atReturn.ElapsedMS-lastEnd)
		}
		if op.deadline {
			over = append(over, ms(op.overshoot))
		}
		late := op.late
		if late == nil {
			late = op.atReturn
		}
		for _, e := range late.Events {
			if e.Kind == "strategy_end" {
				busy[e.Strategy] += e.DurMS
			}
		}
		wins[op.strategy]++
		addCounters(&c, late.Counters)
	}
	n := float64(len(ops))
	r.set("solve.preprocess_ms", "ms", median(pre))
	r.set("solve.tail_ms", "ms", median(tail))
	r.set("solve.overshoot_ms", "ms", mean(over))
	for _, s := range strategies {
		if !noBusy[s] {
			r.set("strategy."+s+".busy_ms", "ms", ratio(busy[s], n))
		}
		r.set("strategy."+s+".win_ratio", "ratio", ratio(float64(wins[s]), n))
	}
	r.set("lp.solves", "count", ratio(float64(c.LPSolves), n))
	r.set("lp.cold_ratio", "ratio", ratio(float64(c.LPCold), float64(c.LPSolves)))
	r.set("cover.basis_hit_ratio", "ratio", ratio(float64(c.BasisHits), float64(c.BasisHits+c.BasisMisses)))
	r.set("cdcl.conflicts", "count", ratio(float64(c.SATConflicts), n))
	r.set("cdcl.reuse_ratio", "ratio", ratio(float64(c.SATReuseHits), float64(c.SATSolves)))
	r.set("core.memo_hit_ratio", "ratio", ratio(float64(c.EngineMemoHits), float64(c.EngineMemoHits+c.EngineSubproblems)))
}

func addCounters(c *telemetry.Counters, o telemetry.Counters) {
	c.EngineSubproblems += o.EngineSubproblems
	c.EngineMemoHits += o.EngineMemoHits
	c.LPSolves += o.LPSolves
	c.LPCold += o.LPCold
	c.BasisHits += o.BasisHits
	c.BasisMisses += o.BasisMisses
	c.SATSolves += o.SATSolves
	c.SATConflicts += o.SATConflicts
	c.SATReuseHits += o.SATReuseHits
}

// Layer probe sets. A workload runs the layers it exercises over its
// full probe set and the others over the small away set, so every layer
// metric is measured on every workload at a bounded cost.
var (
	homeProbe = []string{"grid4x4", "grid4x6", "grid4x7", "hcycle10_4_2", "bip24_a", "rand_csp_a", "rand_cq_a", "cycle_cq"}
	awayProbe = []string{"grid3x4", "cycle_cq"}
	// The two grids on which the SAT lane and engine deepening are
	// compared instance by instance.
	compareGrids = []string{"grid4x6", "grid4x7"}
)

// timed runs f under a context capped at limit and returns its wall
// time; a call cut by the cap counts at the time it took.
func timed(limit time.Duration, f func(ctx context.Context)) time.Duration {
	ctx, cancel := context.WithTimeout(context.Background(), limit)
	defer cancel()
	t0 := time.Now()
	f(ctx)
	return time.Since(t0)
}

// deepen runs check for k = lo, lo+1, … until it accepts, errs or the
// context ends.
func deepen(ctx context.Context, lo, hi int, check func(k int) (bool, error)) {
	for k := lo; k <= hi && ctx.Err() == nil; k++ {
		if ok, err := check(k); ok || err != nil {
			return
		}
	}
}

func checkHD(h *hypergraph.Hypergraph, limit time.Duration) time.Duration {
	return timed(limit, func(ctx context.Context) {
		deepen(ctx, core.GHWLowerBound(h), h.NumEdges(), func(k int) (bool, error) {
			d, err := core.CheckHDOptCtx(ctx, h, k, core.Options{Parallelism: 1})
			return d != nil, err
		})
	})
}

func checkGHD(h *hypergraph.Hypergraph, limit time.Duration) time.Duration {
	return timed(limit, func(ctx context.Context) {
		deepen(ctx, core.GHWLowerBound(h), h.NumEdges(), func(k int) (bool, error) {
			d, err := core.CheckGHDViaBIPCtx(ctx, h, k, core.Options{Parallelism: 1})
			return d != nil, err
		})
	})
}

// checkFHD deepens Check(FHD,k) over integer k from the clique bound,
// with one basis cache shared across levels or a fresh one per level.
func checkFHD(h *hypergraph.Hypergraph, limit time.Duration, shared bool) time.Duration {
	lo := ceilRat(core.FHWLowerBound(h))
	basis := cover.NewBasisCache(0)
	return timed(limit, func(ctx context.Context) {
		deepen(ctx, lo, h.NumEdges(), func(k int) (bool, error) {
			if !shared {
				basis = cover.NewBasisCache(0)
			}
			d, err := core.CheckFHDCtx(ctx, h, lp.RI(int64(k)), core.FHDOptions{Basis: basis, Parallelism: 1})
			return d != nil, err
		})
	})
}

// ghwSweep is the SAT lane's ghw sweep: one incremental search, levels
// from the clique bound until SAT.
func ghwSweep(h *hypergraph.Hypergraph, limit time.Duration) time.Duration {
	return timed(limit, func(ctx context.Context) {
		lo := core.GHWLowerBound(h)
		s, err := ordenc.NewGHWSearch(h, lo+2)
		if err != nil {
			return
		}
		deepen(ctx, lo, h.NumEdges(), func(k int) (bool, error) {
			d, err := s.Check(ctx.Done(), k)
			return d != nil, err
		})
	})
}

// fhwSweep is the SAT lane's fhw path: CheckLevel over integer levels,
// then RefineBelow until UNSAT proves the incumbent.
func fhwSweep(h *hypergraph.Hypergraph, limit time.Duration) time.Duration {
	return timed(limit, func(ctx context.Context) {
		s, err := ordenc.NewFHWSearch(h, nil)
		if err != nil {
			return
		}
		done := ctx.Done()
		for k := ceilRat(core.FHWLowerBound(h)); k <= h.NumEdges() && ctx.Err() == nil; k++ {
			d, w, err := s.CheckLevel(done, lp.RI(int64(k)))
			if err != nil {
				return
			}
			if d == nil {
				continue
			}
			for d != nil {
				if d, w, err = s.RefineBelow(done, w); err != nil {
					return
				}
			}
			return
		}
	})
}

func ceilRat(r *big.Rat) int {
	q, m := new(big.Int).DivMod(r.Num(), r.Denom(), new(big.Int))
	k := int(q.Int64())
	if m.Sign() != 0 {
		k++
	}
	if k < 1 {
		k = 1
	}
	return k
}

// moduleLayers times the core, cover, ordenc and approx entry points,
// each call capped at limit. integralHome and fractionalHome choose the
// layers that run over homeProbe; kind is the measure the exact-DP,
// min-fill and approx calls price with. compareLimit caps the per-grid
// comparison of the SAT lane with engine deepening.
func moduleLayers(r *result, byName map[string]instance, kind solve.Measure, integralHome, fractionalHome bool, limit, compareLimit time.Duration) {
	pick := func(home bool) []instance {
		names := awayProbe
		if home {
			names = homeProbe
		}
		out := make([]instance, len(names))
		for i, n := range names {
			out[i] = byName[n]
		}
		return out
	}
	integral, fractional := pick(integralHome), pick(fractionalHome)
	home := integral
	if kind == solve.FHW {
		home = fractional
	}

	var hd, ghd, ghwSAT, fhdShared, fhdFresh, fhwSAT, exactDP, minfill, logn, improve []float64
	for _, in := range integral {
		hd = append(hd, ms(checkHD(in.h, limit)))
		ghd = append(ghd, ms(checkGHD(in.h, limit)))
		ghwSAT = append(ghwSAT, ms(ghwSweep(in.h, limit)))
	}
	for _, in := range fractional {
		fhdShared = append(fhdShared, ms(checkFHD(in.h, limit, true)))
		fhdFresh = append(fhdFresh, ms(checkFHD(in.h, limit, false)))
		fhwSAT = append(fhwSAT, ms(fhwSweep(in.h, limit)))
	}
	for _, in := range home {
		h := in.h
		if h.NumVertices() <= 20 { // the portfolio's exact-DP gate
			exactDP = append(exactDP, ms(timed(limit, func(ctx context.Context) {
				if kind == solve.FHW {
					_, _, _ = core.ExactFHWCtx(ctx, h)
				} else {
					_, _, _ = core.ExactGHWCtx(ctx, h)
				}
			})))
		}
		var mf *decomp.Decomp
		minfill = append(minfill, ms(timed(limit, func(ctx context.Context) {
			if kind == solve.FHW {
				_, mf, _ = core.MinFillFHDCtx(ctx, h)
			} else {
				_, mf, _ = core.MinFillGHDCtx(ctx, h)
			}
		})))
		integralKind := kind != solve.FHW
		logn = append(logn, ms(timed(limit, func(ctx context.Context) {
			_, _, _ = approx.LogN(ctx, h, approx.Options{Integral: integralKind})
		})))
		if mf != nil {
			improve = append(improve, ms(timed(limit, func(ctx context.Context) {
				_, _, _ = approx.Improve(ctx, h, mf, approx.ImproveOptions{Integral: integralKind})
			})))
		}
	}
	r.set("core.check_hd_ms", "ms", mean(hd))
	r.set("core.check_ghd_ms", "ms", mean(ghd))
	r.set("core.check_fhd_ms", "ms", mean(fhdShared))
	r.set("core.exact_dp_ms", "ms", mean(exactDP))
	r.set("core.minfill_ms", "ms", mean(minfill))
	r.set("cover.basis_shared_speedup", "ratio", ratio(sum(fhdFresh), sum(fhdShared)))
	r.set("ordenc.ghw_sweep_ms", "ms", mean(ghwSAT))
	r.set("ordenc.fhw_sweep_ms", "ms", mean(fhwSAT))
	r.set("approx.logn_ms", "ms", mean(logn))
	r.set("approx.improve_ms", "ms", mean(improve))

	// The SAT lane against engine deepening, instance by instance, on
	// every workload and always at the mix budget.
	for _, g := range compareGrids {
		h := byName[g].h
		r.set("core.check_ghd_ms."+g, "ms", ms(checkGHD(h, compareLimit)))
		r.set("ordenc.ghw_sweep_ms."+g, "ms", ms(ghwSweep(h, compareLimit)))
	}
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// witnessLayers times validation, text encoding and the bag cover LPs
// over the witnesses a run produced.
func witnessLayers(r *result, ws []witnessOf) {
	var val, enc, lps []float64
	for _, w := range ws {
		t0 := time.Now()
		_ = w.d.Validate(w.kind) // the gate reports failures; here only the time counts
		val = append(val, ms(time.Since(t0)))
		t0 = time.Now()
		_ = w.d.MarshalText()
		enc = append(enc, ms(time.Since(t0))*1000)
		t0 = time.Now()
		for i := range w.d.Nodes {
			cover.FractionalEdgeCover(w.d.H, w.d.Nodes[i].Bag)
		}
		lps = append(lps, ms(time.Since(t0)))
	}
	r.set("decomp.validate_ms", "ms", median(val))
	r.set("decomp.encode_us", "us", median(enc))
	r.set("cover.lp_ms", "ms", mean(lps))
}

type witnessOf struct {
	d    *decomp.Decomp
	kind decomp.Kind
}

// inputLayers times decoding each input text and computing its cache
// key.
func inputLayers(r *result, texts []string, kinds []solve.Measure) {
	var dec, key []float64
	for i, t := range texts {
		t0 := time.Now()
		h, _, err := corpus.DecodeString(t)
		dec = append(dec, ms(time.Since(t0))*1000)
		if err != nil {
			continue
		}
		t0 = time.Now()
		_ = solve.KeyFor(kinds[i], h)
		key = append(key, ms(time.Since(t0))*1000)
	}
	r.set("corpus.decode_us", "us", median(dec))
	r.set("solve.key_us", "us", median(key))
}
