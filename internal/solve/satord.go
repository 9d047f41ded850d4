package solve

// satord.go — the ordering-based SAT lanes. One ordenc.GHWSearch (or
// FHWSearch for the fractional measure) per block runs incremental
// k-refinement: the CDCL solver keeps its learned clauses across
// deepening levels because the width bound enters only through
// assumptions on the cardinality registers. Racing the elimination DP
// and the engine deepening lanes, sat-ord is the intended winner on the
// mid-size blocks (20–60 vertices) where the DP is out of reach and
// Check(·,k) subproblem counts explode. The encoding characterizes ghw,
// so under hw it yields lower bounds only; the ghw race borrows in the
// other direction through its detk lane, so each race takes from the
// other measure the bound side it can prove cheaply. Under fhw the SAT
// core fixes orderings and the cover LP prices every decoded bag.

import (
	"context"
	"math/big"

	"hypertree/internal/decomp"
	"hypertree/internal/lp"
	"hypertree/internal/ordenc"
	"hypertree/internal/telemetry"
)

// defaultSATOrdLimit is the block vertex-count gate for the sat-ord
// strategy: the encoding is Θ(n³) clauses, which near 64 vertices is
// ~500k — still fine; beyond it the propagation alone stops paying.
const defaultSATOrdLimit = 64

// satOrdGate admits the blocks the sat-ord lanes run on: more than one
// vertex and at most Options.SATOrdLimit (0 applies the default, a
// negative limit admits none).
func satOrdGate(nv int, opt Options) bool {
	limit := opt.SATOrdLimit
	if limit == 0 {
		limit = defaultSATOrdLimit
	}
	return nv > 1 && nv <= limit
}

// openSATOrdGHW opens the ghw encoding, sized for the levels just above
// the race's lower bound. Retiring publishes the search's SAT counters.
func openSATOrdGHW(r *race) (levelCheck, func(), error) {
	s, err := ordenc.NewGHWSearch(r.bh, r.snapshotLower()+2)
	if err != nil {
		return nil, nil, err
	}
	flush := func() {
		var c telemetry.Counters
		setSAT(&c, s.Stats())
		telemetry.Publish(r.tr, c)
	}
	return func(ctx context.Context, k int) (*decomp.Decomp, *big.Rat, error) {
		return withWidth(s.Check(ctx.Done(), k))
	}, flush, nil
}

// openSATOrdFHW opens the LP-hybrid. An accepted level yields a witness
// at its exact priced width, which RefineBelow then sweeps down, offering
// each tighter witness, until UNSAT proves the last one optimal.
func openSATOrdFHW(r *race) (levelCheck, func(), error) {
	s, err := ordenc.NewFHWSearch(r.bh, nil)
	if err != nil {
		return nil, nil, err
	}
	// Retiring publishes the SAT counters and the bag-pricing LP's.
	flush := func() {
		var c telemetry.Counters
		setLP(&c, s.LPStats())
		setSAT(&c, s.Stats())
		telemetry.Publish(r.tr, c)
	}
	return func(ctx context.Context, k int) (*decomp.Decomp, *big.Rat, error) {
		done := ctx.Done()
		d, w, err := s.CheckLevel(done, lp.RI(int64(k)))
		if d == nil || err != nil {
			return nil, nil, err
		}
		for {
			r.offerUpper(w, d, "sat-ord", ProvHeuristic)
			d2, w2, err := s.RefineBelow(done, w)
			if d2 == nil || err != nil {
				return d, w, err
			}
			d, w = d2, w2
		}
	}, flush, nil
}
