// Package core implements the paper's algorithmic contributions: the
// Check(HD,k) procedure of Gottlob, Leone and Scarcello (det-k-decomp),
// the subedge-augmentation technique that makes Check(GHD,k) tractable
// under the bounded-(multi-)intersection property (Section 4), the
// Check(FHD,k) procedure for bounded-degree hypergraphs (Section 5), the
// fhw-approximation algorithms of Section 6 — c-bounded fractional parts,
// the (k,ε,c)-frac-decomp algorithm, the PTAAS for K-bounded fhw
// optimization, and the O(k·log k) integral-cover approximation — and
// exact ghw/fhw computation via elimination orderings (the method of
// Moll, Tazari and Thurley cited by the paper as the exact baseline).
//
// The Check(·,k) procedures all run on the shared cover-oracle engine of
// engine.go; this file contributes the HD oracle (integral λ of ≤ k
// edges, special condition by construction) and the CheckHD/HW entry
// points.
package core

import (
	"math/bits"

	"hypertree/internal/cover"
	"hypertree/internal/decomp"
	"hypertree/internal/hypergraph"
	"hypertree/internal/lp"
)

// hdOracle chooses covers for Check(HD,k): a guess λ of ≤ k edges with
// bag := B(λ) ∩ (W ∪ C) succeeds if
//
//	(a) W ⊆ bag            (connector covered; connectedness),
//	(b) bag ∩ C ≠ ∅        (progress; FNF condition 2),
//	(c) every [bag]-component C' ⊆ C decomposes with connector
//	    W' = bag ∩ V(edges(C'))   (the engine's recursion).
//
// The special condition holds by construction since bags are exactly
// B(λ) ∩ (W ∪ C) and subtrees stay inside C ∪ bag.
//
// Test (a) fails for almost every λ, so connBound applies it early: it
// drops each partial λ that can no longer cover W, keeping the order.
type hdOracle struct {
	h *hypergraph.Hypergraph
	k int

	// Scratch buffers reused across guesses. Each buffer is fully
	// consumed before the engine recurses, so reuse is safe.
	scope, b, bag hypergraph.VertexSet
	ebuf          hypergraph.EdgeSet

	// Mark-rolled per-subproblem stacks shared across the recursion
	// (same discipline as ghdOracle.ordBuf/lamBuf).
	candBuf []int    // candidate edges of the enumerating subproblems
	wmBuf   []uint64 // connector masks, parallel to candBuf
	lamBuf  []int    // the shared λ stack
}

func newHDOracle(h *hypergraph.Hypergraph, k int) *hdOracle {
	n := h.NumVertices()
	return &hdOracle{
		h: h, k: k,
		scope: hypergraph.NewVertexSet(n),
		b:     hypergraph.NewVertexSet(n),
		bag:   hypergraph.NewVertexSet(n),
		ebuf:  hypergraph.NewEdgeSet(h.NumEdges()),
	}
}

func (o *hdOracle) guesses(e *engine, c hypergraph.VertexSet, st engineState, try func(engineGuess) bool) bool {
	w := st.a
	// Candidate edges must contribute vertices inside W ∪ C; edges that
	// intersect C come first — they create progress. The two ascending
	// passes reproduce the historical sorted order exactly.
	o.scope = o.scope.CopyFrom(w).UnionInPlace(c)
	o.ebuf = o.h.EdgesIntersectingSet(o.scope, o.ebuf)
	candMark, lamMark := len(o.candBuf), len(o.lamBuf)
	o.ebuf.ForEach(func(ed int) bool {
		if o.h.Edge(ed).Intersects(c) {
			o.candBuf = append(o.candBuf, ed)
		}
		return true
	})
	o.ebuf.ForEach(func(ed int) bool {
		if !o.h.Edge(ed).Intersects(c) {
			o.candBuf = append(o.candBuf, ed)
		}
		return true
	})

	for _, ed := range o.candBuf[candMark:] {
		o.wmBuf = append(o.wmBuf, connMask(w, o.h.Edge(ed)))
	}
	cb := newConnBound(w, o.wmBuf[candMark:])

	// rec extends λ from candidate start on; u is the part of W it leaves
	// uncovered, slots the number of atoms it may still take.
	var rec func(start int, u uint64, slots int) bool
	rec = func(start int, u uint64, slots int) bool {
		e.poll()
		if u == 0 && len(o.lamBuf) > lamMark && o.check(c, w, o.lamBuf[lamMark:], try) {
			return true
		}
		if slots == 0 {
			return false
		}
		for i := start; candMark+i < len(o.candBuf); i++ {
			nu := u &^ o.wmBuf[candMark+i]
			if !cb.viable(nu, slots-1) {
				continue
			}
			ed := o.candBuf[candMark+i]
			o.lamBuf = append(o.lamBuf, ed)
			// Mirror the push into the engine's component structure: the
			// components of c under B(λ) ∩ scope equal those under B(λ),
			// since c ⊆ scope. Keyed by candidate index.
			e.compPush(i, o.h.Edge(ed))
			if rec(i+1, nu, slots-1) {
				return true
			}
			e.compPop()
			o.lamBuf = o.lamBuf[:len(o.lamBuf)-1]
		}
		return false
	}
	res := cb.viable(cb.full, o.k) && rec(0, cb.full, o.k)
	o.candBuf = o.candBuf[:candMark]
	o.wmBuf = o.wmBuf[:candMark]
	o.lamBuf = o.lamBuf[:lamMark]
	return res
}

// connBound is the connector-pruning bound shared by the HD and GHD λ
// enumerations. A guess passes W ⊆ bag only if its atoms cover all of
// W, and no atom covers more than maxW vertices of W (subedge atoms are
// subsets of their originators). So a partial λ with s free slots and
// uncovered part u of W can still succeed only if |u| ≤ s·maxW. A
// connector of more than 64 vertices gets full = 0: no pruning.
type connBound struct {
	full uint64 // every connector position; 0 when the bound is off
	maxW int    // most connector positions one candidate covers
}

// newConnBound builds the bound of connector w from the masks of the
// original candidates.
func newConnBound(w hypergraph.VertexSet, masks []uint64) connBound {
	var cb connBound
	if n := w.Count(); n <= 64 {
		cb.full = 1<<n - 1 // n = 64 wraps to all ones
	}
	for _, m := range masks {
		cb.maxW = max(cb.maxW, bits.OnesCount64(m))
	}
	return cb
}

// viable reports whether slots more candidates can still cover the
// uncovered connector positions u.
func (cb connBound) viable(u uint64, slots int) bool {
	return bits.OnesCount64(u) <= slots*cb.maxW
}

// connMask returns the connector positions set covers: bit j stands for
// the j-th vertex of w, up to the 64th.
func connMask(w, set hypergraph.VertexSet) uint64 {
	var m uint64
	j := 0
	w.ForEach(func(v int) bool {
		if set.Has(v) {
			m |= 1 << j
		}
		j++
		return j < 64
	})
	return m
}

// dynAware: the λ stack above is mirrored into the engine's incremental
// component structure.
func (o *hdOracle) dynAware() {}

// check tests one guess λ on scratch buffers. Its W ⊆ bag test decides
// only for connectors too large for connBound.
func (o *hdOracle) check(c, w hypergraph.VertexSet, lambda []int, try func(engineGuess) bool) bool {
	o.b = o.b.Reset()
	for _, ed := range lambda {
		o.b = o.b.UnionInPlace(o.h.Edge(ed))
	}
	o.bag = o.bag.CopyFrom(w).UnionInPlace(c).IntersectInPlace(o.b)
	if !w.IsSubsetOf(o.bag) {
		return false
	}
	if !o.bag.Intersects(c) {
		return false
	}
	lam := lambda
	return try(engineGuess{bag: o.bag, cover: func() cover.Fractional {
		cov := cover.Fractional{}
		one := lp.RI(1)
		for _, ed := range lam {
			cov[ed] = one
		}
		return cov
	}})
}

// CheckHD decides Check(HD,k): whether h has a hypertree decomposition of
// width ≤ k, and if so returns one (in the normal form of [27]). It
// returns nil if none exists. The algorithm is the deterministic
// simulation of the alternating k-decomp procedure with memoization on
// (component, connector) subproblems; it runs in polynomial time for
// fixed k.
func CheckHD(h *hypergraph.Hypergraph, k int) *decomp.Decomp {
	return checkHD(h, k, nil, Options{})
}

// CheckHDOpt is CheckHD with engine options — the request trace; the
// GHD-specific subedge cap is ignored.
func CheckHDOpt(h *hypergraph.Hypergraph, k int, opt Options) *decomp.Decomp {
	return checkHD(h, k, nil, opt)
}

// checkHD is CheckHD with an optional cancellation channel and engine
// options; see CheckHDCtx and CheckHDOptCtx in cancel.go for the
// context-aware entry points.
func checkHD(h *hypergraph.Hypergraph, k int, done <-chan struct{}, opt Options) *decomp.Decomp {
	if k <= 0 || h.NumEdges() == 0 {
		return nil
	}
	e := newEngine(h, newHDOracle(h, k), false, done)
	e.trace = opt.Trace
	defer e.finish()
	key, ok := e.decompose(h.Vertices(), engineState{a: hypergraph.NewVertexSet(h.NumVertices())})
	if !ok {
		return nil
	}
	d := decomp.New(h)
	e.build(d, -1, key, nil)
	return d
}

// cliqueStartK returns the level iterative deepening should start at.
// Every maximal clique of the primal graph must fit in one bag of any
// decomposition (Lemma 2.8), so levels below ρ of the worst clique are
// infeasible for the integral measures hw and ghw (ρ is not an fhw
// lower bound — ρ(K3) = 2 > fhw(K3) = 3/2; the fractional portfolio
// uses FHWLowerBound instead). The preamble is strictly bounded so the
// deepening loops (HW, GHWViaBIP) cannot stall
// before their first poll: clique enumeration stops after a fixed
// number of cliques and each per-clique cover search is size-capped;
// both truncations only lower the start level, never raise it above
// the true bound, so deepening stays correct.
func cliqueStartK(h *hypergraph.Hypergraph) int {
	const maxCliques, maxCoverSize = 64, 8
	n := h.NumVertices()
	if n == 0 || n > 64 || h.NumEdges() == 0 {
		return 1
	}
	best := 1
	for _, kq := range maximalCliquesBounded(h, maxCliques) {
		if c := cover.EdgeCover(h, kq, maxCoverSize); c != nil && len(c) > best {
			best = len(c)
		}
	}
	return best
}

// HW computes the hypertree width hw(h) by iterating CheckHD from the
// clique lower bound, together with a witness HD. maxK bounds the search
// (≤ 0 means |E(H)|).
func HW(h *hypergraph.Hypergraph, maxK int) (int, *decomp.Decomp) {
	if maxK <= 0 {
		maxK = h.NumEdges()
	}
	for k := cliqueStartK(h); k <= maxK; k++ {
		if d := CheckHD(h, k); d != nil {
			return k, d
		}
	}
	return -1, nil
}
