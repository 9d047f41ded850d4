package core

import (
	"context"
	"math/big"

	"hypertree/internal/decomp"
	"hypertree/internal/hypergraph"
)

// Context-aware entry points for the long-running searches. The searches
// are deep recursions with memo tables that die with the run, so
// cancellation is implemented as cooperative unwinding: the search polls
// its context's done channel every pollMask+1 subproblems and, when it
// fires, panics with a canceled sentinel that the wrapper recovers into
// ctx.Err(). Nothing observable escapes an abandoned run — the partially
// filled memo tables are garbage-collected with it.

// pollMask gates how often the searches poll for cancellation: every
// pollMask+1 steps. A power-of-two mask keeps the common path to one
// increment and one AND.
const pollMask = 255

// canceled is the sentinel panicked by a search whose context is done.
type canceled struct{}

// pollCancel panics with the canceled sentinel if done has fired.
func pollCancel(done <-chan struct{}) {
	select {
	case <-done:
		panic(canceled{})
	default:
	}
}

// recoverCanceled converts a canceled panic into ctx.Err(); any other
// panic is re-raised.
func recoverCanceled(ctx context.Context, err *error) {
	if r := recover(); r != nil {
		if _, ok := r.(canceled); ok {
			*err = ctx.Err()
			return
		}
		panic(r)
	}
}

// CheckHDCtx is CheckHD under a context: it returns (nil, ctx.Err()) if
// the deadline expires or the context is canceled mid-search, and
// otherwise behaves exactly like CheckHD.
func CheckHDCtx(ctx context.Context, h *hypergraph.Hypergraph, k int) (d *decomp.Decomp, err error) {
	return CheckHDStatsCtx(ctx, h, k, nil)
}

// CheckHDStatsCtx is CheckHDCtx with an optional engine-stats sink:
// when stats is non-nil the run's counters are added to it on return
// (including cancelled returns — the deferred flush runs during
// unwinding). Traced solves use this; pass nil otherwise.
func CheckHDStatsCtx(ctx context.Context, h *hypergraph.Hypergraph, k int, stats *EngineStats) (d *decomp.Decomp, err error) {
	return CheckHDOptCtx(ctx, h, k, Options{Stats: stats})
}

// CheckHDOptCtx is CheckHDOpt under a context: cancellable, with the
// stats sink of Options.
func CheckHDOptCtx(ctx context.Context, h *hypergraph.Hypergraph, k int, opt Options) (d *decomp.Decomp, err error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	defer recoverCanceled(ctx, &err)
	d = checkHD(h, k, ctx.Done(), opt)
	return d, nil
}

// HWCtx is HW under a context. On cancellation it returns the highest k
// proven infeasible so far plus one as a lower bound (lb ≥ 1; the start
// level is backed by the clique bound of Lemma 2.8), with a nil witness
// and ctx.Err().
func HWCtx(ctx context.Context, h *hypergraph.Hypergraph, maxK int) (lb int, d *decomp.Decomp, err error) {
	if maxK <= 0 {
		maxK = h.NumEdges()
	}
	for k := cliqueStartK(h); k <= maxK; k++ {
		d, err := CheckHDCtx(ctx, h, k)
		if err != nil {
			return k, nil, err
		}
		if d != nil {
			return k, d, nil
		}
	}
	return maxK + 1, nil, nil
}

// ExactGHWCtx is ExactGHW under a context.
func ExactGHWCtx(ctx context.Context, h *hypergraph.Hypergraph) (w int, d *decomp.Decomp, err error) {
	if err := ctx.Err(); err != nil {
		return -1, nil, err
	}
	defer recoverCanceled(ctx, &err)
	s := newExactState(h, ghwBagCost(h))
	s.stopCh = ctx.Done()
	r, d := s.run(true)
	if r == nil {
		return -1, nil, nil
	}
	return int(r.Num().Int64()), d, nil
}

// ExactFHWCtx is ExactFHW under a context.
func ExactFHWCtx(ctx context.Context, h *hypergraph.Hypergraph) (w *big.Rat, d *decomp.Decomp, err error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	defer recoverCanceled(ctx, &err)
	s := newExactState(h, fhwBagCost(h))
	s.stopCh = ctx.Done()
	w, d = s.run(false)
	return w, d, nil
}

// CheckGHDViaBIPCtx is CheckGHDViaBIP under a context: both the lazy
// subedge generation (also bounded by opt.MaxSubedges) and the engine
// search are cancellable.
func CheckGHDViaBIPCtx(ctx context.Context, h *hypergraph.Hypergraph, k int, opt Options) (d *decomp.Decomp, err error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	defer recoverCanceled(ctx, &err)
	return checkGHD(h, k, opt, false, ctx.Done())
}

// CheckFHDCtx is CheckFHD under a context: the lazy per-scope subedge
// generation and the engine search are cancellable (a single in-flight
// cover LP is not, matching the other searches). The fhw portfolio
// races this as an upper-bound strategy; with the lazy default there is
// no pool to precompute across deepening levels anymore.
func CheckFHDCtx(ctx context.Context, h *hypergraph.Hypergraph, k *big.Rat, opt FHDOptions) (d *decomp.Decomp, err error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	defer recoverCanceled(ctx, &err)
	return checkFHD(h, k, opt, ctx.Done())
}

// MinFillGHDCtx is MinFillGHD under a context.
func MinFillGHDCtx(ctx context.Context, h *hypergraph.Hypergraph) (w int, d *decomp.Decomp, err error) {
	if err := ctx.Err(); err != nil {
		return -1, nil, err
	}
	defer recoverCanceled(ctx, &err)
	d = eliminationDecomp(h, minFillOrder(h, ctx.Done()), true, ctx.Done())
	if d == nil {
		return -1, nil, nil
	}
	return int(d.Width().Num().Int64()), d, nil
}

// MinFillFHDCtx is MinFillFHD under a context.
func MinFillFHDCtx(ctx context.Context, h *hypergraph.Hypergraph) (w *big.Rat, d *decomp.Decomp, err error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	defer recoverCanceled(ctx, &err)
	d = eliminationDecomp(h, minFillOrder(h, ctx.Done()), false, ctx.Done())
	if d == nil {
		return nil, nil, nil
	}
	return d.Width(), d, nil
}
