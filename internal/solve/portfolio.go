package solve

import (
	"context"
	"math/big"
	"sync"
	"time"

	"hypertree/internal/core"
	"hypertree/internal/decomp"
	"hypertree/internal/hypergraph"
	"hypertree/internal/lp"
	"hypertree/internal/telemetry"
)

// The portfolio races bounded strategies for one block under a shared
// context. All strategies publish into a race struct holding the
// incumbent bounds: lower bounds rise as deepening proves levels
// infeasible, upper bounds fall as heuristics and exact searches find
// witnesses, and the moment the two meet the block context is cancelled
// so the losing strategies stop burning cycles. Which strategies run
// depends on the measure and the block size:
//
//	hw:   clique lower bound, then Check(HD,k) iterative deepening from
//	      the bound (success at level k after failures below is exact);
//	      the sat-ord-lb ordering encoding contributes ghw-based lower
//	      bounds in parallel (ghw ≤ hw).
//	ghw:  clique lower bound; exact elimination DP for small blocks;
//	      min-fill GHD as a fast upper bound; Check(HD,k) deepening as
//	      an upper-bound lane (every HD is a GHD, and Check(HD,k) is
//	      polynomial where Check(GHD,k) needs subedge augmentation),
//	      so on blocks with ghw = hw the deciders below only have to
//	      refute the levels under its witness; Check(GHD,k)-via-BIP
//	      iterative deepening; sat-ord incremental ordering-encoding
//	      deepening (internal/ordenc) on blocks within its size gate.
//	fhw:  a bipartite block of rank ≤ 2 (a grid, an even cycle, a CQ
//	      with binary atoms) runs the ghw race above: its incidence
//	      matrix is totally unimodular, so every bag's cover LP has an
//	      integral optimum and fhw = ghw. Every other block races the
//	      fractional clique lower bound; exact elimination DP for small
//	      blocks; min-fill FHD (plus local improvement) and the log n
//	      approximation as fast upper bounds; sat-ord LP-hybrid (SAT
//	      fixes orderings, the cover LP prices bags) which refines
//	      accepted levels down to the exact fractional width. The
//	      paper's Check(FHD,k) is not raced: deciding fhw ≤ k is
//	      NP-complete even for k = 2, so it could only offer upper
//	      bounds, and it never finished first on the benchmark mix.

// blockResult carries the outcome for one block.
type blockResult struct {
	lower    *big.Rat
	upper    *big.Rat       // nil if no witness was found within budget
	witness  *decomp.Decomp // over the block hypergraph
	exact    bool
	partial  bool // the budget expired before exactness
	strategy string
	prov     Provenance // guarantee class of the incumbent witness
}

// race is the shared incumbent state of one block's strategy race.
type race struct {
	mu     sync.Mutex
	res    blockResult
	cancel context.CancelFunc
}

// raiseLower publishes a proven lower bound.
func (r *race) raiseLower(lb *big.Rat, strategy string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.res.exact {
		return
	}
	if r.res.lower == nil || lb.Cmp(r.res.lower) > 0 {
		r.res.lower = lb
	}
	r.closeIfMet(strategy)
}

// offerUpper publishes a witness of the given width with the guarantee
// class of the strategy that produced it.
func (r *race) offerUpper(w *big.Rat, d *decomp.Decomp, strategy string, prov Provenance) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.res.exact {
		return
	}
	if r.res.upper == nil || w.Cmp(r.res.upper) < 0 {
		r.res.upper, r.res.witness, r.res.strategy = w, d, strategy
		r.res.prov = prov
	}
	r.closeIfMet(strategy)
}

// offerExact publishes a witness proven optimal by its strategy.
func (r *race) offerExact(w *big.Rat, d *decomp.Decomp, strategy string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.res.exact {
		return
	}
	r.res.lower, r.res.upper, r.res.witness = w, w, d
	r.res.exact, r.res.strategy = true, strategy
	r.res.prov = ProvExact
	r.cancel()
}

// closeIfMet declares exactness when the bounds meet. Callers hold mu.
func (r *race) closeIfMet(strategy string) {
	if r.res.exact || r.res.upper == nil || r.res.lower == nil {
		return
	}
	if r.res.lower.Cmp(r.res.upper) >= 0 {
		r.res.exact = true
		r.res.prov = ProvExact
		if r.res.strategy == "" {
			r.res.strategy = strategy
		}
		r.cancel()
	}
}

// snapshotLower reads the current lower bound as an int (for deepening
// start levels).
func (r *race) snapshotLower() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.res.lower == nil {
		return 1
	}
	return ratCeilInt(r.res.lower)
}

// upperBelow reports whether the incumbent upper bound is ≤ k.
func (r *race) upperBelow(k int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.res.upper != nil && r.res.upper.Cmp(lp.RI(int64(k))) <= 0
}

// outcome classifies how a strategy's run ended, for trace strategy_end
// events: "winner" when the strategy produced the incumbent result
// ("incumbent" when the bounds have not met yet), "canceled" when the
// race was over or the budget expired before it finished, "done"
// otherwise (ran to completion without the best result).
func (r *race) outcome(name string, ctx context.Context) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch {
	case r.res.strategy == name && r.res.exact:
		return "winner"
	case r.res.strategy == name:
		return "incumbent"
	case ctx.Err() != nil:
		return "canceled"
	default:
		return "done"
	}
}

// ratCeilInt returns ⌈r⌉ as an int, at least 1.
func ratCeilInt(r *big.Rat) int {
	q := new(big.Int).Div(r.Num(), r.Denom())
	k := int(q.Int64())
	if new(big.Rat).SetInt(q).Cmp(r) < 0 {
		k++
	}
	if k < 1 {
		k = 1
	}
	return k
}

// solveBlock runs the portfolio for block blk (the index is only used
// to label trace events).
func solveBlock(ctx context.Context, bh *hypergraph.Hypergraph, opt Options, blk int) blockResult {
	tr := telemetry.FromContext(ctx)
	// A block of rank ≤ 2 whose primal graph is bipartite has a totally
	// unimodular incidence matrix, and so does its restriction to any
	// bag's rows. Every bag's cover LP then has an integral optimum,
	// ρ*(B) = ρ(B) (Berge; Fulkerson–Hoffman–Oppenheim 1974), so fhw =
	// ghw on the block and it runs the ghw race: its GHD witnesses
	// validate as FHDs at the same width, and the lower bounds its lanes
	// prove are fhw lower bounds. Odd cycles, rank-3 blocks and every
	// other non-bipartite block keep the fhw race.
	if opt.Measure == FHW {
		if colour, ok := bh.TwoColouring(); ok {
			traceBipartite(tr, blk, colour)
			opt.Measure = GHW
		}
	}
	bctx, cancel := context.WithCancel(ctx)
	defer cancel()
	r := &race{cancel: cancel}
	r.res.lower = lp.RI(1)

	// Inline clique lower bound: cheap, and it gives the deepening
	// strategies their start level.
	nv := bh.NumVertices()
	if nv > 0 && nv <= 64 {
		if opt.Measure == FHW {
			r.raiseLower(core.FHWLowerBound(bh), "clique-lb")
		} else {
			r.raiseLower(lp.RI(int64(core.GHWLowerBound(bh))), "clique-lb")
		}
	}

	// The interval contract's floor: a single-bag witness under a
	// greedy cover, computed synchronously before any budget check so
	// even a ~1ms deadline (or an already-dead context) leaves the
	// block with a finite certified upper bound. One greedy sweep is
	// O(|E|·|V|) — cheap enough to be uncancellable.
	if d := trivialDecomp(bh, opt.Measure); d != nil {
		r.offerUpper(d.Width(), d, "trivial-ub", ProvHeuristic)
	}

	maxK := bh.NumEdges()
	exactLimit := opt.ExactVertexLimit
	if exactLimit <= 0 {
		exactLimit = defaultExactVertexLimit
	}

	type strat struct {
		name string
		run  func()
	}
	var strategies []strat
	satGate := nv > 1 && nv <= satOrdLimit(opt)
	switch opt.Measure {
	case HW:
		strategies = append(strategies, strat{"detk", func() { deepenHD(bctx, bh, r, opt, maxK, tr, blk) }})
		if satGate {
			strategies = append(strategies, strat{"sat-ord-lb", func() { deepenSATOrdHWLower(bctx, bh, r, opt, maxK, tr, blk) }})
		}
	case GHW:
		if nv <= exactLimit {
			strategies = append(strategies, strat{"exact-dp", func() {
				if w, d, err := core.ExactGHWCtx(bctx, bh); err == nil && d != nil {
					r.offerExact(lp.RI(int64(w)), d, "exact-dp")
				}
			}})
		}
		strategies = append(strategies,
			strat{"detk", func() { deepenHD(bctx, bh, r, opt, maxK, tr, blk) }},
			strat{"minfill", func() {
				w, d, err := core.MinFillGHDCtx(bctx, bh)
				switch {
				case err != nil:
					strategyFailure(bctx, tr, blk, "minfill", err)
				case d == nil:
					strategyFailure(bctx, tr, blk, "minfill", errMinFillCover)
				default:
					r.offerUpper(lp.RI(int64(w)), d, "minfill", ProvHeuristic)
					improveWitness(bctx, bh, r, d, ProvHeuristic, opt, tr, blk)
				}
			}},
			strat{"approx-logn", func() { runApproxLogN(bctx, bh, r, opt, tr, blk) }},
			strat{"bip", func() { deepenGHDViaBIP(bctx, bh, r, opt, maxK, tr, blk) }},
		)
		if satGate {
			strategies = append(strategies, strat{"sat-ord", func() { deepenSATOrdGHW(bctx, bh, r, opt, maxK, tr, blk) }})
		}
	case FHW:
		if nv <= exactLimit {
			strategies = append(strategies, strat{"exact-dp", func() {
				if w, d, err := core.ExactFHWCtx(bctx, bh); err == nil && d != nil {
					r.offerExact(w, d, "exact-dp")
				}
			}})
		}
		strategies = append(strategies,
			strat{"minfill", func() {
				w, d, err := core.MinFillFHDCtx(bctx, bh)
				switch {
				case err != nil:
					strategyFailure(bctx, tr, blk, "minfill", err)
				case d == nil:
					strategyFailure(bctx, tr, blk, "minfill", errMinFillCover)
				default:
					r.offerUpper(w, d, "minfill", ProvHeuristic)
					improveWitness(bctx, bh, r, d, ProvHeuristic, opt, tr, blk)
				}
			}},
			strat{"approx-logn", func() { runApproxLogN(bctx, bh, r, opt, tr, blk) }},
		)
		if satGate {
			strategies = append(strategies, strat{"sat-ord", func() { deepenSATOrdFHW(bctx, bh, r, opt, maxK, tr, blk) }})
		}
	}

	var wg sync.WaitGroup
	for _, st := range strategies {
		wg.Add(1)
		go func(st strat) {
			defer wg.Done()
			if tr == nil {
				st.run()
				return
			}
			tr.StrategyStart(blk, st.name)
			t0 := time.Now()
			st.run()
			tr.StrategyEnd(blk, st.name, time.Since(t0), r.outcome(st.name, bctx))
		}(st)
	}
	// Every strategy polls its context, so on expiry they all unwind
	// within one poll interval plus at most one LP/cover solve. The
	// select still returns the incumbent snapshot immediately on ctx
	// expiry so that single uncancellable solve never pads the request
	// latency; a straggler publishing into the abandoned race afterwards
	// is harmless — its mutex outlives it and nobody reads it again.
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.res.exact && ctx.Err() != nil {
		r.res.partial = true
	}
	return r.res
}

// traceBipartite records the certificate of a block routed to the ghw
// race: the block-local indices of the vertices coloured true, and both
// class sizes. The event is built only when the request is traced.
func traceBipartite(tr *telemetry.Trace, blk int, colour []bool) {
	if tr == nil {
		return
	}
	var class []int
	for v, c := range colour {
		if c {
			class = append(class, v)
		}
	}
	tr.Eventf("bipartite", "block=%d sizes=%d/%d class=%v", blk, len(class), len(colour)-len(class), class)
}

// deepenHD runs Check(HD,k) iterative deepening. What a level proves
// depends on the measure. Under hw every failed level is a proven lower
// bound and the first success is exact. Under ghw (every HD is a GHD,
// so ghw ≤ hw) a failure proves nothing and a success is only an upper
// bound: the lane hands the race a cheap witness, and the ghw deciders
// are left to refute the levels below it. Either way no level at or
// above the incumbent upper bound is attempted, and the next level
// skips past any lower bound another lane has proven meanwhile.
func deepenHD(ctx context.Context, bh *hypergraph.Hypergraph, r *race, opt Options, maxK int, tr *telemetry.Trace, blk int) {
	var es *core.EngineStats
	if tr != nil {
		es = &core.EngineStats{}
		defer func() { tr.AddCounters(engineCounters(es)) }()
	}
	exact := opt.Measure == HW
	copt := core.Options{Stats: es}
	for k := r.snapshotLower(); k <= maxK && !r.upperBelow(k); k = max(k+1, r.snapshotLower()) {
		mDeepenSteps.With("detk").Inc()
		tr.Deepen(blk, "detk", k)
		d, err := core.CheckHDOptCtx(ctx, bh, k, copt)
		if err != nil {
			return
		}
		switch {
		case d != nil && exact:
			r.offerExact(lp.RI(int64(k)), d, "detk")
			return
		case d != nil:
			r.offerUpper(d.Width(), d, "detk", ProvHeuristic)
			return
		case exact:
			r.raiseLower(lp.RI(int64(k+1)), "detk")
		}
	}
}

// deepenGHDViaBIP runs Check(GHD,k) iterative deepening through the
// subedge-augmentation reduction. If the subedge closure exceeds its cap
// the strategy retires and leaves the field to the others. As in
// deepenHD, the next level skips past lower bounds other lanes proved.
func deepenGHDViaBIP(ctx context.Context, bh *hypergraph.Hypergraph, r *race, opt Options, maxK int, tr *telemetry.Trace, blk int) {
	var es *core.EngineStats
	if tr != nil {
		es = &core.EngineStats{}
		defer func() { tr.AddCounters(engineCounters(es)) }()
	}
	copt := core.Options{Stats: es}
	for k := r.snapshotLower(); k <= maxK; k = max(k+1, r.snapshotLower()) {
		mDeepenSteps.With("bip").Inc()
		tr.Deepen(blk, "bip", k)
		d, err := core.CheckGHDViaBIPCtx(ctx, bh, k, copt)
		if err != nil {
			return // context done or closure cap exceeded
		}
		if d != nil {
			r.offerExact(lp.RI(int64(k)), d, "bip")
			return
		}
		r.raiseLower(lp.RI(int64(k+1)), "bip")
		if r.upperBelow(k + 1) {
			return
		}
	}
}
