package solve

// satord.go — the ordering-based SAT portfolio strategy. One
// ordenc.GHWSearch (or FHWSearch for the fractional measure) per block
// runs incremental k-refinement: the CDCL solver keeps its learned
// clauses across deepening levels because the width bound enters only
// through assumptions on the cardinality registers. Racing the
// elimination DP and the engine deepening strategies, sat-ord is the
// intended winner on the mid-size blocks (20–60 vertices) where the DP
// is out of reach and Check(·,k) subproblem counts explode.
//
//	ghw:  UNSAT at k raises the lower bound to k+1; the first SAT level
//	      after rejecting below it is exact, with a decoded GHD witness.
//	hw:   lower bounds only (ghw ≤ hw and the encoding characterizes
//	      ghw; the special condition is not expressible in it).
//	      The ghw race borrows in the other direction: its detk lane
//	      (deepenHD) offers hw witnesses as ghw upper bounds, so each
//	      race takes from the other measure the bound side it can
//	      prove cheaply.
//	fhw:  the SAT core fixes orderings, the cover LP prices every
//	      decoded bag; an accepted level yields a witness at its exact
//	      fractional width, then RefineBelow sweeps the bound down until
//	      UNSAT proves exactness.
//
// Cancellation bridges the block context onto the solver's done
// channel; strategy retirement flushes the hg_sat_* counters.

import (
	"context"

	"hypertree/internal/hypergraph"
	"hypertree/internal/lp"
	"hypertree/internal/ordenc"
	"hypertree/internal/telemetry"
)

// defaultSATOrdLimit is the block vertex-count gate for the sat-ord
// strategy: the encoding is Θ(n³) clauses, which near 64 vertices is
// ~500k — still fine; beyond it the propagation alone stops paying.
const defaultSATOrdLimit = 64

// satOrdLimit resolves the option field to an effective gate.
func satOrdLimit(opt Options) int {
	switch {
	case opt.SATOrdLimit < 0:
		return 0
	case opt.SATOrdLimit == 0:
		return defaultSATOrdLimit
	}
	return opt.SATOrdLimit
}

// ctxDone adapts a context to the solver's done-channel cancellation.
func ctxDone(ctx context.Context) <-chan struct{} { return ctx.Done() }

// deepenSATOrdGHW races the ordering encoding on the ghw measure. Every
// UNSAT level is a proven lower bound; the first SAT level after them
// is exact with a validated GHD witness. As in deepenHD, the next level
// skips past lower bounds other lanes proved.
func deepenSATOrdGHW(ctx context.Context, bh *hypergraph.Hypergraph, r *race, opt Options, maxK int, tr *telemetry.Trace, blk int) {
	kCap := r.snapshotLower() + 2
	s, err := ordenc.NewGHWSearch(bh, kCap)
	if err != nil {
		return
	}
	defer func() { flushSAT(tr, s.Stats()) }()
	for k := r.snapshotLower(); k <= maxK; k = max(k+1, r.snapshotLower()) {
		mDeepenSteps.With("sat-ord").Inc()
		tr.Deepen(blk, "sat-ord", k)
		d, err := s.Check(ctxDone(ctx), k)
		if err != nil {
			return // canceled or decode failure
		}
		if d != nil {
			r.offerExact(lp.RI(int64(k)), d, "sat-ord")
			return
		}
		r.raiseLower(lp.RI(int64(k+1)), "sat-ord")
		if r.upperBelow(k + 1) {
			return
		}
	}
}

// deepenSATOrdHWLower contributes hw lower bounds: a level the ghw
// encoding rejects is below ghw ≤ hw. It never offers witnesses — an
// accepted ordering is a GHD, not necessarily an HD — and retires on
// the first SAT level, leaving the upper bound to detk. Like the ghw
// lane, it skips levels other lanes already refuted.
func deepenSATOrdHWLower(ctx context.Context, bh *hypergraph.Hypergraph, r *race, opt Options, maxK int, tr *telemetry.Trace, blk int) {
	kCap := r.snapshotLower() + 2
	s, err := ordenc.NewGHWSearch(bh, kCap)
	if err != nil {
		return
	}
	defer func() { flushSAT(tr, s.Stats()) }()
	for k := r.snapshotLower(); k <= maxK; k = max(k+1, r.snapshotLower()) {
		mDeepenSteps.With("sat-ord-lb").Inc()
		tr.Deepen(blk, "sat-ord-lb", k)
		d, err := s.Check(ctxDone(ctx), k)
		if err != nil || d != nil {
			return // canceled, or ghw ≤ k reached: no more hw bounds here
		}
		r.raiseLower(lp.RI(int64(k+1)), "sat-ord-lb")
		if r.upperBelow(k + 1) {
			return
		}
	}
}

// deepenSATOrdFHW races the LP-hybrid on the fhw measure: integer
// levels until a SAT level yields a witness at its exact priced width,
// then RefineBelow sweeps the width down; the final UNSAT proves the
// incumbent exact.
func deepenSATOrdFHW(ctx context.Context, bh *hypergraph.Hypergraph, r *race, opt Options, maxK int, tr *telemetry.Trace, blk int) {
	s, err := ordenc.NewFHWSearch(bh, nil)
	if err != nil {
		return
	}
	defer func() {
		flushSAT(tr, s.Stats())
		flushBasis(tr, s.Basis())
	}()
	done := ctxDone(ctx)
	for k := r.snapshotLower(); k <= maxK; k++ {
		mDeepenSteps.With("sat-ord").Inc()
		tr.Deepen(blk, "sat-ord", k)
		d, w, err := s.CheckLevel(done, lp.RI(int64(k)))
		if err != nil {
			return
		}
		if d == nil {
			// No ordering prices ≤ k: fhw > k, so the closed bound k
			// is sound (strict bounds are not expressible in the race).
			r.raiseLower(lp.RI(int64(k)), "sat-ord")
			continue
		}
		r.offerUpper(w, d, "sat-ord", ProvHeuristic)
		// Exactness sweep: tighten until no ordering beats w.
		for {
			d2, w2, err := s.RefineBelow(done, w)
			if err != nil {
				return
			}
			if d2 == nil {
				r.offerExact(w, d, "sat-ord")
				return
			}
			d, w = d2, w2
			r.offerUpper(w, d, "sat-ord", ProvHeuristic)
		}
	}
}
