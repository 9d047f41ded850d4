package cover

// incremental.go — reusable cover-LP solvers for the engine's sibling-LP
// sequences.
//
// Two access patterns cover the sibling-LP sequences the engine's
// oracles produce. Incremental serves the FHD oracle's support
// enumeration: a DFS stack of candidate atoms whose union is the bag,
// with the LP minimizing the cover weight of that union by exactly the
// stacked atoms. TargetLP serves ρ*(target) queries over the edges of
// one hypergraph: Algorithm 3's Ws enumeration and the approximation
// ladder's bag pricing.
//
// Both rebuild the LP at every Solve in buffers they keep across calls
// and answer float-first: the lp.FloatProblem answer is accepted when
// its exact duality certificate holds. When it does not, the same LP is
// solved cold by the rational simplex (solveCoverRational), the exact
// fallback SolveCoverLP shares.

import (
	"math/big"
	"math/bits"

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

// growRats returns a slice of at least n rationals, reusing r.
func growRats(r []big.Rat, n int) []big.Rat {
	if cap(r) < n {
		return make([]big.Rat, n)
	}
	return r[:n]
}

// Incremental solves the cover LPs of a DFS over candidate atoms: after
// Push/Pop edits, Solve computes min Σ γ(a) over the pushed atoms
// subject to covering their union (the dual ≤-form of SolveCoverLP).
// Push and Pop are O(1) — the LP is built at Solve, so branches pruned
// before their LP cost nothing. The zero value is ready to use.
type Incremental struct {
	stack []hypergraph.VertexSet // the pushed atoms, bottom first

	fp      lp.FloatProblem
	union   hypergraph.VertexSet
	col     []int // vertex → LP column, valid on the union's members
	members []int // the union's vertices, ascending
	atom    []int // scratch: one atom's vertices
	val     big.Rat
	duals   []big.Rat
	stats   LPStats
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
	b := ic.fp.ApproxBytes()
	b += int64(len(ic.union)+len(ic.col)+cap(ic.members)+cap(ic.atom)) * 8
	b += int64(cap(ic.duals))*48 + int64(cap(ic.stack))*24
	return b
}

// Solve computes the minimum weight of a fractional cover of the union
// of the stacked atoms by exactly those atoms. The returned weight is
// owned by the solver (copy before the next call); Dual reads the
// per-atom weights afterwards. Solve never fails on a non-empty stack:
// the union is covered by giving every atom weight 1.
func (ic *Incremental) Solve() *big.Rat {
	ic.union = ic.union.Reset()
	for _, s := range ic.stack {
		ic.union = ic.union.UnionInPlace(s)
	}
	ic.members = appendMembers(ic.members[:0], ic.union)
	float := floatFirst && ic.solveFloat()
	ic.stats.count(float)
	if float {
		return &ic.val
	}
	w, x := solveCoverRational(ic.stack, ic.members)
	if w == nil {
		return nil // defensive: unreachable for covering duals
	}
	ic.val.Set(w)
	ic.duals = growRats(ic.duals, len(x))
	for i := range x {
		ic.duals[i].Set(x[i])
	}
	return &ic.val
}

// solveFloat builds the stack's cover LP over the union's vertices and
// solves it float-first, storing the certified optimum and per-atom
// weights on success.
func (ic *Incremental) solveFloat() bool {
	if n := len(ic.members); n > 0 {
		for len(ic.col) <= ic.members[n-1] {
			ic.col = append(ic.col, 0)
		}
	}
	for j, v := range ic.members {
		ic.col[v] = j
	}
	m, n := len(ic.stack), len(ic.members)
	ic.fp.Reset(m, n)
	for j := 0; j < n; j++ {
		ic.fp.SetObjective(j, 1)
	}
	for i, s := range ic.stack {
		ic.atom = appendMembers(ic.atom[:0], s)
		for _, v := range ic.atom {
			ic.fp.SetCoef(i, ic.col[v], 1)
		}
		ic.fp.SetRHS(i, 1)
	}
	if !ic.fp.Solve() {
		return false
	}
	ic.fp.Value(&ic.val)
	ic.duals = growRats(ic.duals, m)
	for i := range ic.duals {
		ic.fp.Dual(i, &ic.duals[i])
	}
	return true
}

// Dual returns the cover weight of the i-th stacked atom at the last
// Solve, owned by the solver.
func (ic *Incremental) Dual(i int) *big.Rat { return &ic.duals[i] }

// TargetLP answers ρ*(target) queries over the edges of one hypergraph:
// each Solve prices a target by the edges meeting it, reusing the
// solver's buffers.
type TargetLP struct {
	h *hypergraph.Hypergraph

	// Rows are the edges meeting the target, columns the target's
	// vertices (col maps a vertex to its column).
	fp        lp.FloatProblem
	col       []int
	members   []int
	rowEdges  []int
	ebuf      hypergraph.EdgeSet
	val, dual big.Rat
	stats     LPStats
}

// NewTargetLP returns a TargetLP for ρ* queries in h.
func NewTargetLP(h *hypergraph.Hypergraph) *TargetLP {
	return &TargetLP{h: h, col: make([]int, h.NumVertices())}
}

// Solve computes ρ*(ws) and an optimal fractional cover over the edges
// of h, or (nil, nil) if some target vertex lies in no edge. The LP is
// restricted to ws: columns outside the target would carry objective 0
// and non-negative coefficients, so dropping them keeps the optimum.
// The returned weight is owned by the solver (copy before the next
// call); the cover is the caller's.
func (tl *TargetLP) Solve(ws hypergraph.VertexSet) (*big.Rat, Fractional) {
	tl.members = appendMembers(tl.members[:0], ws)
	for j, v := range tl.members {
		if tl.h.IncidentEdges(v).Count() == 0 {
			return nil, nil
		}
		tl.col[v] = j
	}
	tl.ebuf = tl.h.EdgesIntersectingSet(ws, tl.ebuf)
	tl.rowEdges = appendMembers(tl.rowEdges[:0], tl.ebuf)
	float := floatFirst && tl.solveFloat(ws)
	tl.stats.count(float)
	g := Fractional{}
	if !float {
		w, x := solveCoverRational(edgeSets(tl.h, tl.rowEdges), tl.members)
		if w == nil {
			return nil, nil
		}
		for i, e := range tl.rowEdges {
			if x[i].Sign() > 0 {
				g[e] = x[i]
			}
		}
		return tl.val.Set(w), g
	}
	for i, e := range tl.rowEdges {
		if d := tl.fp.Dual(i, &tl.dual); d.Sign() > 0 {
			g[e] = new(big.Rat).Set(d)
		}
	}
	return tl.fp.Value(&tl.val), g
}

// solveFloat solves ws's cover LP, already laid out in members and
// rowEdges, float-first and reports whether the certificate held.
func (tl *TargetLP) solveFloat(ws hypergraph.VertexSet) bool {
	n := len(tl.members)
	tl.fp.Reset(len(tl.rowEdges), n)
	for j := 0; j < n; j++ {
		tl.fp.SetObjective(j, 1)
	}
	for i, e := range tl.rowEdges {
		ed := tl.h.Edge(e)
		for w := 0; w < len(ed) && w < len(ws); w++ {
			for word := ed[w] & ws[w]; word != 0; word &= word - 1 {
				tl.fp.SetCoef(i, tl.col[w*64+bits.TrailingZeros64(word)], 1)
			}
		}
		tl.fp.SetRHS(i, 1)
	}
	return tl.fp.Solve()
}

// Stats returns the solve counters.
func (tl *TargetLP) Stats() LPStats { return tl.stats }
