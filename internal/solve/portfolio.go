package solve

import (
	"context"
	"errors"
	"math/big"
	"slices"
	"sync"
	"time"

	"hypertree/internal/core"
	"hypertree/internal/cover"
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
// so the losing strategies stop burning cycles. The lanes table lists
// each strategy with the measures and blocks it runs on and what its
// answers prove. Per measure, following fhw ≤ ghw ≤ hw:
//
//	hw:   Check(HD,k) decides hw itself, so its deepening is exact on
//	      every block and no other decider races it.
//	ghw:  Check(GHD,k) and the ghw encoding decide ghw, so their
//	      deepening is exact. Check(HD,k) is polynomial where
//	      Check(GHD,k) needs subedge augmentation, and every HD is a
//	      GHD, so the probe below offers cheap upper bounds; on blocks
//	      with ghw = hw the deciders then only have to refute the
//	      levels under them.
//	fhw:  a bipartite block of rank ≤ 2 (a grid, an even cycle, a CQ
//	      with binary atoms) runs the ghw race: its incidence matrix is
//	      totally unimodular, so every bag's cover LP has an integral
//	      optimum and fhw = ghw. On every other block only the
//	      LP-hybrid encoding, whose SAT core fixes orderings while the
//	      cover LP prices bags, proves lower bounds beyond the clique
//	      bound. The paper's Check(FHD,k) is not raced: deciding
//	      fhw ≤ k is NP-complete even for k = 2, so it could only offer
//	      upper bounds, and it never finished first on the benchmark
//	      mix.
//
// Every race also runs the probe: Check(HD,k) from one level above the
// lower bound, each level under a short timer. Check(HD,k) accepts fast
// at or just above the width and spends its time refuting, so a level
// whose timer fires is skipped and the first acceptance is an anytime
// upper bound for all three measures: an HD is a GHD, and repricing its
// bags by ρ* turns it into an FHD of no larger width. Under ghw and fhw
// a refutation proves nothing about the width, so the probe is the
// race's only Check(HD,k) lane: after its first acceptance it retries
// the levels it skipped, top down and without a timer, until a
// refutation. Under hw a refutation is a lower bound, and the unbudgeted
// detk row keeps the refutation frontier to itself; a descent
// competing with it for a CPU costs lower bounds.

// blockResult carries the outcome for one block.
type blockResult struct {
	lower    *big.Rat
	upper    *big.Rat       // the witness's width
	witness  *decomp.Decomp // over the block hypergraph; solveBlock always offers one
	exact    bool
	partial  bool // the budget expired before exactness
	strategy string
}

// race is the shared incumbent state of one block's strategy race, with
// the block and request inputs every lane reads.
type race struct {
	bh  *hypergraph.Hypergraph
	opt Options
	tr  *telemetry.Trace
	blk int // the block's index, labels trace events

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

// offerUpper publishes a witness of the given width.
func (r *race) offerUpper(w *big.Rat, d *decomp.Decomp, strategy string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.res.exact {
		return
	}
	if r.res.upper == nil || w.Cmp(r.res.upper) < 0 {
		r.res.upper, r.res.witness, r.res.strategy = w, d, strategy
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
	r.cancel()
}

// closeIfMet declares exactness when the bounds meet. Callers hold mu.
func (r *race) closeIfMet(strategy string) {
	if r.res.exact || r.res.upper == nil || r.res.lower == nil {
		return
	}
	if r.res.lower.Cmp(r.res.upper) >= 0 {
		r.res.exact = true
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
	r := &race{bh: bh, opt: opt, tr: tr, blk: blk, cancel: cancel}
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
	if d := trivialDecomp(bh); d != nil {
		r.offerUpper(d.Width(), d, "trivial-ub")
	}
	// Closed before the race: no lane has anything left to prove.
	if r.res.exact {
		return r.res
	}

	var wg sync.WaitGroup
	for i := range lanes {
		l := &lanes[i]
		if !slices.Contains(l.measures, opt.Measure) || (l.gate != nil && !l.gate(nv, opt)) {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if tr == nil {
				l.runIn(bctx, r)
				return
			}
			tr.StrategyStart(blk, l.name)
			t0 := time.Now()
			l.runIn(bctx, r)
			tr.StrategyEnd(blk, l.name, time.Since(t0), r.outcome(l.name, bctx))
		}()
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

// A lane is one strategy of a block's race. A one-shot lane runs once
// and publishes what it finds; a deepening lane opens a per-level
// decider that deepen runs from the race's lower bound upwards.
type lane struct {
	name     string                         // strategy label in traces and metrics
	measures []Measure                      // the races it runs in
	gate     func(nv int, opt Options) bool // by block vertex count; nil admits every block
	run      func(ctx context.Context, r *race)
	open     func(r *race) (check levelCheck, flush func(), err error)
	yes, no  proof // what an accepted and a refuted level prove
	// budget caps each deepening level; 0 lets every level finish. A
	// budgeted lane works one level above the race's lower bound, and a
	// level whose timer fires while the race is live proves nothing and
	// is skipped.
	budget time.Duration
}

// probeBudget is the probe's per-level budget: long enough for
// Check(HD,k) to accept at or near the width, short enough that a
// refutation it cannot finish costs little.
const probeBudget = 50 * time.Millisecond

// levelCheck decides one deepening level: a witness of width w ≤ k, or
// a nil witness when no decomposition of width ≤ k exists.
type levelCheck func(ctx context.Context, k int) (d *decomp.Decomp, w *big.Rat, err error)

// A proof is what a deepening lane publishes for its answer at level k.
// An accepted level retires the lane whatever it proves.
type proof int

const (
	proofNone      proof = iota // nothing
	proofLowerNext              // width > k: the lower bound k+1
	// fhw > k, published as the closed bound k: strict bounds are not
	// expressible in the race.
	proofLowerClosed
	proofExact // the witness's width is optimal
	proofUpper // the witness's width is an upper bound
)

// lanes is every block's roster. A measure's race runs the rows that
// list it, in table order, on the blocks their gates admit.
var lanes = []lane{
	// hw: Check(HD,k) decides hw, so a rejection is a lower bound and
	// the first acceptance is exact.
	{name: "detk", measures: []Measure{HW}, open: openEngine(core.CheckHDOptCtx), yes: proofExact, no: proofLowerNext},
	{name: "minfill", measures: []Measure{GHW}, run: func(ctx context.Context, r *race) {
		w, d, err := core.MinFillGHDCtx(ctx, r.bh)
		offerMinFill(ctx, r, lp.RI(int64(w)), d, err)
	}},
	{name: "minfill", measures: []Measure{FHW}, run: func(ctx context.Context, r *race) {
		w, d, err := core.MinFillFHDCtx(ctx, r.bh)
		offerMinFill(ctx, r, w, d, err)
	}},
	// The probe works above the lower bound, so an acceptance is an
	// upper bound. Under hw a refutation inside the budget is a lower
	// bound; under ghw and fhw it proves nothing, and the probe
	// descends; under fhw the accepted HD's bags are repriced by ρ*.
	{name: "probe", measures: []Measure{HW}, budget: probeBudget, open: openEngine(core.CheckHDOptCtx), yes: proofUpper, no: proofLowerNext},
	{name: "probe", measures: []Measure{GHW}, budget: probeBudget, open: openEngine(core.CheckHDOptCtx), yes: proofUpper, no: proofNone},
	{name: "probe", measures: []Measure{FHW}, budget: probeBudget, open: openProbeFHW, yes: proofUpper, no: proofNone},
	// Check(GHD,k) through subedge augmentation; it retires when the
	// subedge closure exceeds its cap.
	{name: "bip", measures: []Measure{GHW}, open: openEngine(core.CheckGHDViaBIPCtx), yes: proofExact, no: proofLowerNext},
	{name: "sat-ord", measures: []Measure{GHW}, gate: satOrdGate, open: openSATOrdGHW, yes: proofExact, no: proofLowerNext},
	{name: "sat-ord", measures: []Measure{FHW}, gate: satOrdGate, open: openSATOrdFHW, yes: proofExact, no: proofLowerClosed},
}

// runIn runs the lane in race r.
func (l *lane) runIn(ctx context.Context, r *race) {
	if l.open == nil {
		l.run(ctx, r)
		return
	}
	deepen(ctx, l, r)
}

// deepen runs a deepening lane level by level from the race's lower
// bound (one above it for a budgeted lane), publishing what each answer
// proves. The next level skips past any lower bound another lane proved
// meanwhile. A budgeted level runs on a child context; if its timer
// fires while the race is live, the level is unknown and the lane moves
// on to the next. In the integral races no level at or above the
// incumbent upper bound is attempted: uppers there are integers and a
// refuting lane starts each level with lower ≥ k, so upper ≤ k means the
// race has closed, or that an upper-bound lane could at best re-find the
// incumbent's width. Under fhw an upper bound ≤ k may be fractional, and
// the level can still tighten or certify it. A budgeted lane whose
// refutations prove nothing descends after its first acceptance. An
// error ends the lane through strategyFailure; a timed-out level does not.
func deepen(ctx context.Context, l *lane, r *race) {
	check, flush, err := l.open(r)
	if err != nil {
		strategyFailure(ctx, r.tr, r.blk, l.name, err)
		return
	}
	defer flush()
	integral := r.opt.Measure != FHW
	above := 0
	if l.budget > 0 {
		above = 1
	}
	floor := 0 // the decider refuted every level below it
	for k := r.snapshotLower() + above; k <= r.bh.NumEdges(); k = max(k+1, r.snapshotLower()+above) {
		if integral && r.upperBelow(k) {
			return
		}
		mDeepenSteps.With(l.name).Inc()
		r.tr.Deepen(r.blk, l.name, k)
		lctx, cancel := ctx, func() {}
		if l.budget > 0 {
			lctx, cancel = context.WithTimeout(ctx, l.budget)
		}
		d, w, err := check(lctx, k)
		timedOut := err != nil && lctx.Err() != nil && ctx.Err() == nil
		cancel()
		switch {
		case timedOut:
			continue
		case err != nil: // canceled, or the decider gave up (bip's closure cap)
			strategyFailure(ctx, r.tr, r.blk, l.name, err)
			return
		case d != nil:
			switch l.yes {
			case proofExact:
				r.offerExact(w, d, l.name)
			case proofUpper:
				r.offerUpper(w, d, l.name)
			}
			if l.budget > 0 && l.no == proofNone {
				descend(ctx, l, r, check, k-1, floor)
			}
			return
		}
		floor = k + 1
		switch l.no {
		case proofLowerNext:
			r.raiseLower(lp.RI(int64(k+1)), l.name)
		case proofLowerClosed:
			r.raiseLower(lp.RI(int64(k)), l.name)
		}
	}
}

// descend retries the levels a budgeted upper-bound lane skipped, from
// k down to its floor or the race's lower bound, unbudgeted on the race
// context, publishing each acceptance. Check(HD,k) refuting k refutes
// every lower level, so the first refutation ends the descent, and in
// the integral races a level at or above the incumbent is passed over.
func descend(ctx context.Context, l *lane, r *race, check levelCheck, k, floor int) {
	integral := r.opt.Measure != FHW
	for ; k >= max(floor, r.snapshotLower()); k-- {
		if integral && r.upperBelow(k) {
			continue
		}
		mDeepenSteps.With(l.name).Inc()
		r.tr.Deepen(r.blk, l.name, k)
		d, w, err := check(ctx, k)
		if err != nil {
			strategyFailure(ctx, r.tr, r.blk, l.name, err)
		}
		if d == nil {
			return
		}
		r.offerUpper(w, d, l.name)
	}
}

// openEngine opens a Check(·,k) lane over the decomposition engine.
// Each engine run publishes its own counters into the request trace, so
// retiring has nothing left to flush.
func openEngine(decide func(context.Context, *hypergraph.Hypergraph, int, core.Options) (*decomp.Decomp, error)) func(*race) (levelCheck, func(), error) {
	return func(r *race) (levelCheck, func(), error) {
		copt := core.Options{Trace: r.tr}
		return func(ctx context.Context, k int) (*decomp.Decomp, *big.Rat, error) {
			return withWidth(decide(ctx, r.bh, k, copt))
		}, func() {}, nil
	}
}

// withWidth pairs an integer decider's answer with its witness's width.
func withWidth(d *decomp.Decomp, err error) (*decomp.Decomp, *big.Rat, error) {
	if d == nil || err != nil {
		return nil, nil, err
	}
	return d, d.Width(), nil
}

// offerMinFill publishes a min-fill witness, or classifies the run's
// failure.
func offerMinFill(ctx context.Context, r *race, w *big.Rat, d *decomp.Decomp, err error) {
	switch {
	case err != nil:
		strategyFailure(ctx, r.tr, r.blk, "minfill", err)
	case d == nil:
		strategyFailure(ctx, r.tr, r.blk, "minfill", errMinFillCover)
	default:
		r.offerUpper(w, d, "minfill")
	}
}

// openProbeFHW opens the fhw probe: Check(HD,k) with every bag of an
// accepted witness repriced by ρ*. The HD's λ covers its bag, so
// ρ*(bag) ≤ |λ| and the FHD is no wider than k. Retiring publishes the
// pricing LP's counters.
func openProbeFHW(r *race) (levelCheck, func(), error) {
	copt := core.Options{Trace: r.tr}
	tl := cover.NewTargetLP(r.bh)
	flush := func() {
		var c telemetry.Counters
		setLP(&c, tl.Stats())
		telemetry.Publish(r.tr, c)
	}
	return func(ctx context.Context, k int) (*decomp.Decomp, *big.Rat, error) {
		d, err := core.CheckHDOptCtx(ctx, r.bh, k, copt)
		if d == nil || err != nil {
			return nil, nil, err
		}
		for i := range d.Nodes {
			if _, g := tl.Solve(d.Nodes[i].Bag); g != nil {
				d.Nodes[i].Cover = g
			}
		}
		return d, d.Width(), nil
	}, flush, nil
}

// errMinFillCover marks a min-fill run that produced an elimination
// order but could not price one of its bags — the silent (nil, nil)
// return of core.MinFill*Ctx, distinct from budget cancellation.
var errMinFillCover = errors.New("min-fill: no cover for an elimination bag")

// trivialDecomp builds the one-node decomposition whose bag is the
// union of every edge, covered greedily with integral weights. It is a
// valid HD, GHD and FHD (the special condition is vacuous on a single
// node), so it is a sound — if weak — upper bound for every measure.
// Returns nil on an edgeless hypergraph.
func trivialDecomp(bh *hypergraph.Hypergraph) *decomp.Decomp {
	if bh.NumEdges() == 0 {
		return nil
	}
	bag := hypergraph.NewVertexSet(bh.NumVertices())
	for e := 0; e < bh.NumEdges(); e++ {
		bag.UnionInPlace(bh.Edge(e))
	}
	cov := cover.IntegralCover(bh, bag, 0)
	if cov == nil {
		return nil
	}
	d := decomp.New(bh)
	d.AddNode(-1, bag, cov)
	return d
}

// strategyFailure classifies a portfolio strategy's failed run: budget
// expiry and race cancellation are expected and only counted, while a
// real error additionally lands in the trace so operators can see which
// strategy degraded the answer to a wider interval.
func strategyFailure(ctx context.Context, tr *telemetry.Trace, blk int, name string, err error) {
	if ctx.Err() != nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		mStrategyCanceled.With(name).Inc()
		return
	}
	mStrategyErrors.With(name).Inc()
	tr.Eventf("strategy_error", "%s block=%d: %v", name, blk, err)
}
