package solve

// approxstrat.go — the approximation ladder's portfolio glue. The two
// rungs live in internal/approx (LogN recursive balanced separation and
// Improve local-improvement sweeps); this file wires them into a
// block's strategy race as anytime upper-bound producers, provides the
// single-bag trivial witness that floors every block's interval, and
// classifies strategy failures into canceled-by-budget vs real errors
// for the hg_solve_strategy_* counters.

import (
	"context"
	"errors"

	"hypertree/internal/approx"
	"hypertree/internal/decomp"
	"hypertree/internal/hypergraph"
	"hypertree/internal/telemetry"
)

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
	cov := approx.IntegralCover(bh, bag, 0)
	if cov == nil {
		return nil
	}
	d := decomp.New(bh)
	d.AddNode(-1, bag, cov)
	return d
}

// runApproxLogN runs the ladder's first rung: the Korchemna-style
// O(log n)-ratio decomposition. Its witness carries a structural
// certificate (width ≤ CertBound, and ≤ RatioBound(n)·fhw), so it is
// offered as approx-certified rather than heuristic; a success chains
// straight into the improvement rung under the same provenance (local
// improvement only tightens, so the original certificate keeps holding).
func runApproxLogN(ctx context.Context, r *race) {
	mApproxRuns.With("logn").Inc()
	d, st, err := approx.LogN(ctx, r.bh, approx.Options{Integral: r.opt.Measure == GHW})
	if st != nil {
		mApproxSepRetries.Add(int64(st.SepRetries))
		flushLP(r.tr, st.LP)
		r.tr.AddCounters(telemetry.Counters{ApproxRuns: 1, ApproxSepRetries: int64(st.SepRetries)})
	}
	if err != nil {
		strategyFailure(ctx, r.tr, r.blk, "approx-logn", err)
		return
	}
	mApproxWitnesses.With("logn").Inc()
	r.tr.Eventf("approx_cert", "block=%d width=%s cert_bound=%s ratio_bound=%s sep_budget=%d depth=%d",
		r.blk, d.Width().RatString(), st.CertBound.RatString(),
		approx.RatioBound(r.bh.NumVertices()).RatString(), st.SepBudget, st.Depth)
	r.offerUpper(d.Width(), d, "approx-logn", ProvApproxCertified)
	improveWitness(ctx, r, d, ProvApproxCertified)
}

// improveWitness runs the ladder's second rung over a freshly produced
// witness: monotone prune/reprice/split sweeps that publish every
// strictly tighter snapshot into the race as soon as it exists. The
// improved decomposition inherits the provenance of its starting point
// (improvement never loosens, so a certified bound stays certified).
// Not run for hw — the sweeps preserve GHD validity, not the special
// condition.
func improveWitness(ctx context.Context, r *race, base *decomp.Decomp, prov Provenance) {
	if ctx.Err() != nil {
		return
	}
	mApproxRuns.With("improve").Inc()
	out, st, err := approx.Improve(ctx, r.bh, base, approx.ImproveOptions{
		Integral: r.opt.Measure == GHW,
		OnImprove: func(d *decomp.Decomp) {
			mApproxImproved.Inc()
			r.offerUpper(d.Width(), d, "local-improve", prov)
		},
	})
	if st != nil {
		mApproxImprovePasses.Add(int64(st.Passes))
		flushLP(r.tr, st.LP)
		r.tr.AddCounters(telemetry.Counters{ApproxImprovePasses: int64(st.Passes)})
		if st.Passes > 0 {
			r.tr.Eventf("approx_improve", "block=%d passes=%d pruned=%d repriced=%d splits=%d",
				r.blk, st.Passes, st.Pruned, st.Repriced, st.Splits)
		}
	}
	if out != nil {
		// Improve returns its best-so-far even when cancelled mid-pass;
		// offerUpper ignores anything not strictly tighter.
		mApproxWitnesses.With("improve").Inc()
		r.offerUpper(out.Width(), out, "local-improve", prov)
	}
	if err != nil {
		strategyFailure(ctx, r.tr, r.blk, "local-improve", err)
	}
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
