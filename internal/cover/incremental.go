package cover

// incremental.go — the package's one cover-LP solver and its two
// reusable front ends.
//
// coverLP builds and solves every ρ* LP here: rows (vertex sets) cover
// a target. It answers float-first: the lp.FloatProblem answer is
// accepted when its exact duality certificate holds. When it does not,
// the same LP is solved cold by the rational simplex.
//
// The front ends only choose the rows. Incremental serves the FHD
// oracle's support enumeration: a DFS stack of candidate atoms whose
// union is the bag, with the LP minimizing the cover weight of that
// union by exactly the stacked atoms. TargetLP serves ρ*(target)
// queries over the edges of one hypergraph: Algorithm 3's Ws
// enumeration, the approximation ladder's bag pricing and sat-ord's fhw
// lane. FractionalEdgeCover runs a fresh TargetLP once.

import (
	"math/big"
	"math/bits"
	"slices"

	"hypertree/internal/hypergraph"
	"hypertree/internal/lp"
)

// floatFirst routes solves through the float path first. Only tests
// clear it, to exercise the cold rational fallback on its own.
var floatFirst = true

// LPStats counts cover-LP solves by the path that answered them;
// FloatSolves + ColdStarts == Solves.
type LPStats struct {
	Solves      int // Solve calls that ran an LP
	FloatSolves int // answered float-first under the exact certificate
	ColdStarts  int // answered by the cold rational simplex
}

// Add accumulates o into s (for aggregating stats across solvers).
func (s *LPStats) Add(o LPStats) {
	s.Solves += o.Solves
	s.FloatSolves += o.FloatSolves
	s.ColdStarts += o.ColdStarts
}

// count records one solve and the path that answered it.
func (s *LPStats) count(float bool) {
	s.Solves++
	if float {
		s.FloatSolves++
	} else {
		s.ColdStarts++
	}
}

// appendMembers appends the members of a bitset (a VertexSet or an
// EdgeSet's words) to dst in ascending order.
func appendMembers(dst []int, words []uint64) []int {
	for w, word := range words {
		for word != 0 {
			dst = append(dst, w*64+bits.TrailingZeros64(word))
			word &= word - 1
		}
	}
	return dst
}

// coverLP computes the minimum fractional cover of a target by rows:
// min Σ_i x_i subject to Σ_{i : v ∈ rows[i]} x_i ≥ 1 for all v in the
// target, x ≥ 0. The LP is solved through its dual, max Σ_v y_v with
// Σ_{v ∈ rows[i] ∩ target} y_v ≤ 1: the ≤-form starts the simplex on a
// slack basis (no artificial variables, no phase 1) and the optimal x
// is read off the row duals. Rows may reach outside the target; the
// vertices outside it would carry objective 0, so they are dropped.
// Its buffers persist across solves; the zero value is ready to use.
type coverLP struct {
	fp      lp.FloatProblem
	col     []int                // vertex → LP column, valid on the target's members
	members []int                // the target's vertices, ascending
	open    hypergraph.VertexSet // scratch: target vertices in no row yet
	val     big.Rat
	weights []big.Rat // per-row cover weights of the last solve
	stats   LPStats
}

// solve computes the minimum cover of target by rows, or nil when some
// target vertex lies in no row. The returned optimum is owned by the
// solver (copy before the next call), and so are the per-row weights,
// left in c.weights[:len(rows)].
func (c *coverLP) solve(rows []hypergraph.VertexSet, target hypergraph.VertexSet) *big.Rat {
	c.members = appendMembers(slices.Grow(c.members[:0], target.Count()), target)
	if need := len(target) * 64; len(c.col) < need {
		c.col = make([]int, need)
	}
	for j, v := range c.members {
		c.col[v] = j
	}
	n := len(c.members)
	c.fp.Reset(len(rows), n)
	for j := 0; j < n; j++ {
		c.fp.SetObjective(j, 1)
	}
	c.open = c.open.CopyFrom(target)
	for i, r := range rows {
		for w := 0; w < len(r) && w < len(target); w++ {
			word := r[w] & target[w]
			c.open[w] &^= word
			for ; word != 0; word &= word - 1 {
				c.fp.SetCoef(i, c.col[w*64+bits.TrailingZeros64(word)], 1)
			}
		}
		c.fp.SetRHS(i, 1)
	}
	if !c.open.IsEmpty() {
		return nil // uncoverable vertex: the dual is unbounded
	}
	float := floatFirst && c.fp.Solve()
	c.stats.count(float)
	if cap(c.weights) < len(rows) {
		c.weights = make([]big.Rat, len(rows))
	}
	c.weights = c.weights[:len(rows)]
	if float {
		for i := range c.weights {
			c.fp.Dual(i, &c.weights[i])
		}
		return c.fp.Value(&c.val)
	}
	w, x := solveCoverRational(rows, c.members)
	if w == nil {
		return nil // defensive: unreachable once every vertex is covered
	}
	for i := range x {
		c.weights[i].Set(x[i])
	}
	return c.val.Set(w)
}

// approxBytes is a flat estimate of the memory c retains.
func (c *coverLP) approxBytes() int64 {
	b := c.fp.ApproxBytes()
	b += int64(len(c.col)+cap(c.members)+len(c.open)) * 8
	return b + int64(cap(c.weights))*48
}

// solveCoverRational is coverLP's exact fallback: the dual ≤-form,
// maximize Σ y_v over v ∈ vs subject to Σ_{v ∈ rows[i]} y_v ≤ 1 per
// row, solved cold by the rational simplex. It returns the optimum and
// the per-row cover weights (the row duals).
func solveCoverRational(rows []hypergraph.VertexSet, vs []int) (*big.Rat, []*big.Rat) {
	one := lp.RI(1)
	p := lp.NewProblem(len(vs))
	p.Minimize = false
	for j := range vs {
		p.SetObjective(j, one)
	}
	coef := make([]*big.Rat, len(vs))
	for _, r := range rows {
		for idx, v := range vs {
			if r.Has(v) {
				coef[idx] = one
			} else {
				coef[idx] = nil
			}
		}
		p.AddConstraint(coef, lp.LE, one)
	}
	s, err := p.Solve()
	if err != nil || s.Status != lp.Optimal {
		return nil, nil
	}
	return s.Value, s.RowDuals
}

// Incremental solves the cover LPs of a DFS over candidate atoms: after
// Push/Pop edits, Solve computes min Σ γ(a) over the pushed atoms
// subject to covering their union. Push and Pop are O(1) — the LP is
// built at Solve, so branches pruned before their LP cost nothing. The
// zero value is ready to use.
type Incremental struct {
	stack []hypergraph.VertexSet // the pushed atoms, bottom first
	union hypergraph.VertexSet
	lp    coverLP
}

// Push stacks an atom. The set is retained by reference and must stay
// unchanged while stacked — the oracles pass interned canonical atoms.
func (ic *Incremental) Push(set hypergraph.VertexSet) {
	ic.stack = append(ic.stack, set)
}

// Pop unstacks the most recent atom.
func (ic *Incremental) Pop() {
	ic.stack = ic.stack[:len(ic.stack)-1]
}

// approxBytes is a flat estimate of the memory ic retains, for the
// pool's byte budget.
func (ic *Incremental) approxBytes() int64 {
	return ic.lp.approxBytes() + int64(len(ic.union))*8 + int64(cap(ic.stack))*24
}

// Solve computes the minimum weight of a fractional cover of the union
// of the stacked atoms by exactly those atoms. The returned weight is
// owned by the solver (copy before the next call); Dual reads the
// per-atom weights afterwards. Solve never fails: the union is covered
// by giving every atom weight 1.
func (ic *Incremental) Solve() *big.Rat {
	ic.union = ic.union.Reset()
	for _, s := range ic.stack {
		ic.union = ic.union.UnionInPlace(s)
	}
	return ic.lp.solve(ic.stack, ic.union)
}

// Dual returns the cover weight of the i-th stacked atom at the last
// Solve, owned by the solver.
func (ic *Incremental) Dual(i int) *big.Rat { return &ic.lp.weights[i] }

// TargetLP answers ρ*(target) queries over the edges of one hypergraph:
// each Solve prices a target by the edges meeting it, reusing the
// solver's buffers.
type TargetLP struct {
	h     *hypergraph.Hypergraph
	ebuf  hypergraph.EdgeSet
	edges []int                  // the edges meeting the target, ascending
	rows  []hypergraph.VertexSet // their vertex sets
	lp    coverLP
}

// NewTargetLP returns a TargetLP for ρ* queries in h.
func NewTargetLP(h *hypergraph.Hypergraph) *TargetLP {
	return &TargetLP{h: h}
}

// Solve computes ρ*(ws) and an optimal fractional cover over the edges
// of h, or (nil, nil) if some target vertex lies in no edge. The
// returned weight is owned by the solver (copy before the next call);
// the cover is the caller's.
func (tl *TargetLP) Solve(ws hypergraph.VertexSet) (*big.Rat, Fractional) {
	tl.ebuf = tl.h.EdgesIntersectingSet(ws, tl.ebuf)
	tl.edges = appendMembers(slices.Grow(tl.edges[:0], tl.ebuf.Count()), tl.ebuf)
	tl.rows = slices.Grow(tl.rows[:0], len(tl.edges))
	for _, e := range tl.edges {
		tl.rows = append(tl.rows, tl.h.Edge(e))
	}
	w := tl.lp.solve(tl.rows, ws)
	if w == nil {
		return nil, nil
	}
	g := Fractional{}
	for i, e := range tl.edges {
		if x := &tl.lp.weights[i]; x.Sign() > 0 {
			g[e] = new(big.Rat).Set(x)
		}
	}
	return w, g
}

// Stats returns the solve counters.
func (tl *TargetLP) Stats() LPStats { return tl.lp.stats }
