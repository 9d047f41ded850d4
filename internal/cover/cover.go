// Package cover implements (fractional) edge covers and (fractional)
// vertex covers of hypergraphs (paper, Section 2.2 and Definition 5.3):
// the edge cover number ρ, the fractional edge cover number ρ*, the
// transversality τ, the fractional transversality τ*, greedy approximate
// covers, and the bounded-support machinery of Corollary 5.5 / Lemma 5.6.
package cover

import (
	"math"
	"math/big"
	"sort"

	"hypertree/internal/hypergraph"
	"hypertree/internal/lp"
)

// Fractional is a fractional edge cover: edge index → positive weight.
type Fractional map[int]*big.Rat

// Weight returns the total weight Σ γ(e).
func (f Fractional) Weight() *big.Rat {
	w := new(big.Rat)
	for _, r := range f {
		w.Add(w, r)
	}
	return w
}

// Support returns supp(γ): the edges with positive weight, sorted.
func (f Fractional) Support() []int {
	var es []int
	for e, r := range f {
		if r.Sign() > 0 {
			es = append(es, e)
		}
	}
	sort.Ints(es)
	return es
}

// Covered returns B(γ): the vertices v with Σ_{e ∋ v} γ(e) ≥ 1.
func (f Fractional) Covered(h *hypergraph.Hypergraph) hypergraph.VertexSet {
	weights := make(map[int]*big.Rat)
	for e, r := range f {
		h.Edge(e).ForEach(func(v int) bool {
			if weights[v] == nil {
				weights[v] = new(big.Rat)
			}
			weights[v].Add(weights[v], r)
			return true
		})
	}
	b := hypergraph.NewVertexSet(h.NumVertices())
	one := lp.RI(1)
	for v, w := range weights {
		if w.Cmp(one) >= 0 {
			b.Add(v)
		}
	}
	return b
}

// IsIntegral reports whether every weight is 0 or 1.
func (f Fractional) IsIntegral() bool {
	one := lp.RI(1)
	for _, r := range f {
		if r.Sign() != 0 && r.Cmp(one) != 0 {
			return false
		}
	}
	return true
}

// Clone returns a deep copy.
func (f Fractional) Clone() Fractional {
	c := make(Fractional, len(f))
	for e, r := range f {
		c[e] = new(big.Rat).Set(r)
	}
	return c
}

// FractionalEdgeCover computes ρ*(target) in H: the minimum total weight
// of an edge-weight function γ : E(H) → [0,1] with target ⊆ B(γ). It
// returns the optimal weight and an optimal cover. If target cannot be
// covered (some vertex in no edge) it returns nil, nil.
//
// Only edges intersecting target can help, so the LP uses those as
// variables; the returned cover indexes edges of H. The LP is solved by
// a fresh TargetLP, whose answers are exact rationals, so threshold
// tests like ρ* ≤ k are decided exactly.
func FractionalEdgeCover(h *hypergraph.Hypergraph, target hypergraph.VertexSet) (*big.Rat, Fractional) {
	if target.IsEmpty() {
		return new(big.Rat), Fractional{}
	}
	// Integer fast path: a single edge containing the target decides
	// ρ* = 1 without an LP (ρ* ≥ 1 for non-empty targets).
	if e := h.CoveringEdge(target); e >= 0 {
		return lp.RI(1), Fractional{e: lp.RI(1)}
	}
	w, cover := NewTargetLP(h).Solve(target)
	if w == nil {
		return nil, nil
	}
	// Copy the optimum out so callers that keep it do not pin the
	// solver's LP scratch.
	return new(big.Rat).Set(w), cover
}

// RhoStar returns ρ*(H), the fractional edge cover number of the whole
// hypergraph, or nil if H has an uncoverable vertex.
func RhoStar(h *hypergraph.Hypergraph) *big.Rat {
	w, _ := FractionalEdgeCover(h, h.Vertices())
	return w
}

// EdgeCover computes ρ(target): the minimum number of edges of H whose
// union contains target, by branch and bound (branching on a hardest
// uncovered vertex). maxSize ≤ 0 means unbounded. Returns the chosen
// edges, or nil if no cover of size ≤ maxSize exists.
func EdgeCover(h *hypergraph.Hypergraph, target hypergraph.VertexSet, maxSize int) []int {
	if target.IsEmpty() {
		return []int{}
	}
	// A single covering edge is always optimal (and satisfies any
	// maxSize ≥ 1); detect it on the incidence index before the greedy
	// bound and the branch-and-bound machinery spin up.
	if e := h.CoveringEdge(target); e >= 0 {
		return []int{e}
	}
	greedy := GreedyEdgeCover(h, target)
	if greedy == nil && maxSize <= 0 {
		return nil
	}
	bound := maxSize
	if bound <= 0 || (greedy != nil && len(greedy) < bound) {
		bound = len(greedy)
	}
	if greedy != nil && len(greedy) <= 1 {
		if maxSize > 0 && len(greedy) > maxSize {
			return nil
		}
		return greedy
	}

	var best []int
	if greedy != nil && (maxSize <= 0 || len(greedy) <= maxSize) {
		best = greedy
	}
	// Depth-indexed scratch: chosen is a shared prefix stack and bufs[d]
	// holds the remaining set entering depth d+1, so the branch-and-bound
	// allocates nothing beyond one buffer per depth level.
	chosen := make([]int, 0, bound)
	bufs := make([]hypergraph.VertexSet, bound)
	var rec func(remaining hypergraph.VertexSet)
	rec = func(remaining hypergraph.VertexSet) {
		if remaining.IsEmpty() {
			if best == nil || len(chosen) < len(best) {
				best = append([]int(nil), chosen...)
			}
			return
		}
		limit := bound
		if best != nil && len(best)-1 < limit {
			limit = len(best) - 1
		}
		if len(chosen) >= limit {
			return
		}
		// Branch on the uncovered vertex with the fewest candidate edges.
		bestV, bestCnt := -1, int(^uint(0)>>1)
		remaining.ForEach(func(v int) bool {
			if cnt := h.IncidentEdges(v).Count(); cnt < bestCnt {
				bestV, bestCnt = v, cnt
			}
			return true
		})
		if bestCnt == 0 {
			return // uncoverable
		}
		depth := len(chosen)
		h.IncidentEdges(bestV).ForEach(func(e int) bool {
			bufs[depth] = bufs[depth].CopyFrom(remaining).DiffInPlace(h.Edge(e))
			chosen = append(chosen, e)
			rec(bufs[depth])
			chosen = chosen[:depth]
			return true
		})
	}
	rec(target.Clone())
	if best != nil && maxSize > 0 && len(best) > maxSize {
		return nil
	}
	return best
}

// Rho returns ρ(H) as an int, or -1 if H has an uncoverable vertex.
func Rho(h *hypergraph.Hypergraph) int {
	c := EdgeCover(h, h.Vertices(), 0)
	if c == nil {
		return -1
	}
	return len(c)
}

// GreedyEdgeCover returns an edge cover of target obtained by repeatedly
// taking the edge covering the most uncovered vertices — the classical
// ln(n)-approximation used in Theorem 6.23 to trade ρ* for ρ. Returns nil
// if target is uncoverable.
func GreedyEdgeCover(h *hypergraph.Hypergraph, target hypergraph.VertexSet) []int {
	remaining := target.Clone()
	// Only edges intersecting the target can ever gain. Gains only fall
	// as remaining shrinks, so the gain an edge last counted bounds its
	// gain now: a round recounts only edges whose bound beats the round's
	// best so far, and ties still go to the lowest edge id.
	type candidate struct{ e, bound int }
	pool := h.EdgesIntersectingSet(target, nil)
	cands := make([]candidate, 0, pool.Count())
	pool.ForEach(func(e int) bool {
		cands = append(cands, candidate{e, math.MaxInt})
		return true
	})
	var chosen []int
	for !remaining.IsEmpty() {
		bestE, bestGain := -1, 0
		for i := range cands {
			c := &cands[i]
			if c.bound <= bestGain {
				continue
			}
			if c.bound = h.Edge(c.e).IntersectionCount(remaining); c.bound > bestGain {
				bestE, bestGain = c.e, c.bound
			}
		}
		if bestE < 0 {
			return nil
		}
		chosen = append(chosen, bestE)
		remaining = remaining.DiffInPlace(h.Edge(bestE))
	}
	return chosen
}

// IntegralCover prices a bag with an integral edge cover (unit weights):
// exact branch and bound when the bag has at most exactLimit vertices,
// greedy set cover otherwise — so a limit of 0 is always greedy on
// non-empty bags. Returns nil when some bag vertex is uncoverable.
func IntegralCover(h *hypergraph.Hypergraph, bag hypergraph.VertexSet, exactLimit int) Fractional {
	var edges []int
	if bag.Count() <= exactLimit {
		edges = EdgeCover(h, bag, 0)
	} else {
		edges = GreedyEdgeCover(h, bag)
	}
	if edges == nil {
		return nil
	}
	cov := Fractional{}
	for _, e := range edges {
		cov[e] = lp.RI(1)
	}
	return cov
}

// FractionalVertexCover computes the fractional transversality τ*(H)
// (Definition 6.22): the minimum Σ w(v) with Σ_{v ∈ e} w(v) ≥ 1 for every
// edge, w ≥ 0. Returns the weight and the vertex weights.
func FractionalVertexCover(h *hypergraph.Hypergraph) (*big.Rat, map[int]*big.Rat) {
	n := h.NumVertices()
	if h.NumEdges() == 0 {
		return new(big.Rat), map[int]*big.Rat{}
	}
	p := lp.NewProblem(n)
	for v := 0; v < n; v++ {
		p.SetObjective(v, lp.RI(1))
	}
	for e := 0; e < h.NumEdges(); e++ {
		coef := make([]*big.Rat, n)
		h.Edge(e).ForEach(func(v int) bool {
			coef[v] = lp.RI(1)
			return true
		})
		p.AddConstraint(coef, lp.GE, lp.RI(1))
	}
	s, err := p.Solve()
	if err != nil || s.Status != lp.Optimal {
		return nil, nil
	}
	w := map[int]*big.Rat{}
	for v := 0; v < n; v++ {
		if s.X[v].Sign() > 0 {
			w[v] = s.X[v]
		}
	}
	return s.Value, w
}

// VertexCover computes the transversality τ(H) exactly by branch and
// bound: the minimum number of vertices meeting every edge. Returns -1 if
// H has an empty edge.
func VertexCover(h *hypergraph.Hypergraph) int {
	// τ(H) = ρ(H^d): a transversal of H is an edge cover of the dual.
	d := h.Dual()
	for e := 0; e < h.NumEdges(); e++ {
		if h.Edge(e).IsEmpty() {
			return -1
		}
	}
	return Rho(d)
}
