package core

import (
	"math/big"

	"hypertree/internal/cover"
	"hypertree/internal/decomp"
	"hypertree/internal/hypergraph"
	"hypertree/internal/lp"
)

// FracDecompParams are the parameters of Algorithm 3,
// (k,ε,c)-frac-decomp: the target width is k+ε and c bounds the
// fractional part of every node cover.
type FracDecompParams struct {
	K   *big.Rat
	Eps *big.Rat
	C   int
}

// fdOracle chooses covers for Algorithm 3's f-decomp procedure. A
// subproblem is (Cr, Wr, V(R)): the component, the fractional part
// guessed at the parent, and the vertices of the parent's integral
// edges — the engine states carry (Wr, V(R)) and key all three. Each
// guess is a set S of ≤ ⌊k+ε⌋ edges with weight 1 plus a fractional
// part Ws of ≤ c vertices coverable with the remaining weight (checked
// by exact LP), exactly as in the paper's listing. Children all receive
// the fixed state (Ws, V(S)); witness bags are trimmed by the engine to
// B(γs) ∩ (Br ∪ comp) per the witness-tree definition after Algorithm 3.
type fdOracle struct {
	h      *hypergraph.Hypergraph
	target *big.Rat // k + ε
	c      int

	// The Ws-cover LPs depend only on Ws, so they are memoized on the
	// interned vertex set: the enumeration re-derives the same Ws for
	// many S guesses and subproblems. Memo misses are solved by tl, whose
	// answers coverWs copies out before the engine recurses.
	wsSets hypergraph.Interner
	wsMemo map[int]wsCover
	tl     *cover.TargetLP

	ebuf hypergraph.EdgeSet
}

// wsCover is a memoized ρ*(Ws) solve: the optimal weight (nil if Ws is
// uncoverable) and an optimal cover.
type wsCover struct {
	w *big.Rat
	g cover.Fractional
}

func (o *fdOracle) guesses(e *engine, cr hypergraph.VertexSet, st engineState, try func(engineGuess) bool) bool {
	wr, vr := st.a, st.b
	// (1.b) candidates for Ws: vertices of V(R) ∪ Wr ∪ Cr.
	wsScope := vr.Union(wr).UnionInPlace(cr)
	// The connector part that S ∪ Ws must cover (check 2.b): for each
	// edge of H intersecting Cr, its intersection with V(R) ∪ Wr.
	need := hypergraph.NewVertexSet(o.h.NumVertices())
	vrwr := vr.Union(wr)
	o.ebuf = o.h.EdgesIntersectingSet(cr, o.ebuf)
	o.ebuf.ForEach(func(ed int) bool {
		need = need.UnionInPlace(o.h.Edge(ed))
		return true
	})
	need = need.IntersectInPlace(vrwr)

	maxS := int(new(big.Int).Quo(o.target.Num(), o.target.Denom()).Int64())

	// (1.a) guess S ⊆ E(H), |S| ≤ ⌊k+ε⌋. Edges must contribute inside
	// the scope of this subproblem.
	o.ebuf = o.h.EdgesIntersectingSet(wsScope, o.ebuf)
	candidates := make([]int, 0, o.ebuf.Count())
	o.ebuf.ForEach(func(ed int) bool {
		candidates = append(candidates, ed)
		return true
	})
	chosen := make([]int, 0, maxS)
	var tryS func(start int) bool
	tryS = func(start int) bool {
		if o.checkGuess(e, cr, need, wsScope, chosen, try) {
			return true
		}
		if len(chosen) == maxS {
			return false
		}
		for i := start; i < len(candidates); i++ {
			chosen = append(chosen, candidates[i])
			if tryS(i + 1) {
				return true
			}
			chosen = chosen[:len(chosen)-1]
		}
		return false
	}
	return tryS(0)
}

// checkGuess completes one guess of S by enumerating Ws (≤ c vertices of
// the still-needed connector plus component scope) and running checks
// (2.a)-(2.c); the engine handles the recursion (4).
func (o *fdOracle) checkGuess(e *engine, cr, need, wsScope hypergraph.VertexSet, chosen []int, try func(engineGuess) bool) bool {
	e.poll()
	vs := o.h.UnionOfEdges(chosen)
	// (2.b) pre-check: Ws must supply need \ V(S); if that exceeds c,
	// this S is hopeless for any Ws.
	missing := need.Diff(vs)
	if missing.Count() > o.c {
		return false
	}
	// Enumerate Ws ⊇ missing with |Ws| ≤ c from the scope.
	extra := wsScope.Diff(vs).Diff(missing).Vertices()
	budget := o.c - missing.Count()
	ell := lp.RI(int64(len(chosen)))
	fracBudget := new(big.Rat).Sub(o.target, ell)

	var tryWs func(start int, ws hypergraph.VertexSet) bool
	tryWs = func(start int, ws hypergraph.VertexSet) bool {
		if o.finishGuess(cr, chosen, vs, ws, fracBudget, try) {
			return true
		}
		if ws.Count()-missing.Count() >= budget {
			return false
		}
		for i := start; i < len(extra); i++ {
			if tryWs(i+1, ws.With(extra[i])) {
				return true
			}
		}
		return false
	}
	return tryWs(0, missing.Clone())
}

// finishGuess runs checks (2.a)-(2.c) for a fully guessed (S, Ws) and
// hands the guess to the engine.
func (o *fdOracle) finishGuess(cr hypergraph.VertexSet, chosen []int, vs, ws hypergraph.VertexSet, fracBudget *big.Rat, try func(engineGuess) bool) bool {
	if fracBudget.Sign() < 0 {
		return false
	}
	bag := vs.Union(ws)
	// (2.c) progress.
	if !bag.Intersects(cr) {
		return false
	}
	// (2.a) cover Ws fractionally with weight ≤ k+ε−ℓ.
	gamma := cover.Fractional{}
	if !ws.IsEmpty() {
		wc := o.coverWs(ws)
		if wc.w == nil || wc.w.Cmp(fracBudget) > 0 {
			return false
		}
		gamma = wc.g
	}
	// (4): the engine recurses on the [V(S) ∪ Ws]-components inside Cr,
	// each with the fixed child state (Ws, V(S)).
	return try(engineGuess{
		bag:        bag,
		childState: &engineState{a: ws, b: vs},
		cover: func() cover.Fractional {
			cov := gamma.Clone()
			one := lp.RI(1)
			for _, ed := range chosen {
				cov[ed] = one
			}
			return cov
		},
	})
}

// coverWs computes ρ*(Ws) with an optimal cover, memoized on the
// interned Ws. Memo misses keep FractionalEdgeCover's single-edge fast
// path and otherwise solve the cover LP through o.tl.
func (o *fdOracle) coverWs(ws hypergraph.VertexSet) wsCover {
	id, _, isNew := o.wsSets.Intern(ws)
	if !isNew {
		return o.wsMemo[id]
	}
	var wc wsCover
	if e := o.h.CoveringEdge(ws); e >= 0 {
		wc = wsCover{w: lp.RI(1), g: cover.Fractional{e: lp.RI(1)}}
	} else {
		w, g := o.tl.Solve(ws)
		wc = wsCover{w: w, g: g}
		if w != nil {
			wc.w = new(big.Rat).Set(w) // Solve's value is owned by the solver
		}
	}
	o.wsMemo[id] = wc
	return wc
}

// FracDecomp is the deterministic simulation of Algorithm 3,
// "(k,ε,c)-frac-decomp": it accepts iff H has an FHD of width ≤ k+ε with
// c-bounded fractional part satisfying the weak special condition
// (Theorem 6.16), and returns a witness FHD on success. Combined with
// Lemmas 6.4/6.5 — every width-k FHD of a hypergraph with iwidth ≤ i can
// be massaged into exactly this shape for c = 2ik² + 4k³i/ε — this yields
// the k+ε approximation of Theorem 6.1 for BIP classes.
func FracDecomp(h *hypergraph.Hypergraph, p FracDecompParams) *decomp.Decomp {
	if h.NumEdges() == 0 {
		return nil
	}
	target := new(big.Rat).Add(p.K, p.Eps)
	o := &fdOracle{h: h, target: target, c: p.C,
		wsMemo: map[int]wsCover{},
		tl:     cover.NewTargetLP(h),
		ebuf:   hypergraph.NewEdgeSet(h.NumEdges())}
	e := newEngine(h, o, true, nil)
	empty := hypergraph.NewVertexSet(h.NumVertices())
	key, ok := e.decompose(h.Vertices(), engineState{a: empty, b: empty})
	if !ok {
		return nil
	}
	d := decomp.New(h)
	e.build(d, -1, key, nil)
	return d
}
