package cover

// incremental.go — warm-started covering LPs over lp.WarmProblem.
//
// Two access patterns cover all the sibling-LP sequences the engine's
// oracles produce. Incremental serves the FHD oracle's support
// enumeration: a DFS stack of candidate atoms whose union is the bag,
// with the LP minimizing the cover weight of that union by exactly the
// stacked atoms. TargetLP serves Algorithm 3's Ws enumeration: a fixed
// scope of vertices whose ρ*(target) is queried for a drifting target
// set, with edge rows accumulated on demand.
//
// Both answer float-first: every Solve builds the current LP in an
// lp.FloatProblem and accepts its answer when the exact duality
// certificate holds. Only when it does not do they fall back to the
// rational lp.WarmProblem, which keeps the simplex basis of its last
// optimum alive so neighbouring fallbacks cost a few pivots instead of
// a cold start. The warm problem is synced lazily, at fallback time,
// from the state it last expressed, so float solves leave it untouched
// and it stays correct however many of them ran in between.

import (
	"math/big"
	"math/bits"

	"hypertree/internal/hypergraph"
	"hypertree/internal/lp"
)

// floatFirst routes solves through the float path first. Only tests
// clear it, to exercise the rational warm path on its own.
var floatFirst = true

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
// subject to covering their union (the dual ≤-form of SolveCoverLP,
// warm-started from the previous optimum). Push and Pop are O(1) — the
// tableau is synced lazily at Solve, so branches pruned before their LP
// cost nothing.
type Incremental struct {
	scope []int // scope vertices; variable j ↔ scope[j]
	varOf []int // vertex → variable index, -1 outside the scope

	wp      *lp.WarmProblem
	desired []incAtom // the caller's current stack
	synced  []incAtom // the stack the tableau currently expresses
	refs    []int     // per variable: pushed atoms containing it
	coef    []*big.Rat
	one     *big.Rat
	zero    *big.Rat

	// Float path: the LP is rebuilt from the desired stack per Solve,
	// over the union's vertices only (col maps a vertex to its column).
	fp          lp.FloatProblem
	union       hypergraph.VertexSet
	col         []int
	members     []int
	val         big.Rat
	duals       []big.Rat
	fromFloat   bool // the last Solve was answered by the float path
	floatSolves int
}

// incAtom is one stacked atom: the caller's key (used to detect shared
// stack prefixes across Solve calls) and the atom's vertex set.
type incAtom struct {
	key   int
	set   hypergraph.VertexSet
	rowID int // valid in synced entries only
}

// NewIncremental returns an Incremental over the given scope. Reset
// re-targets an existing one, reusing its LP storage.
func NewIncremental(scope hypergraph.VertexSet) *Incremental {
	ic := &Incremental{wp: lp.NewWarm(0), one: lp.RI(1), zero: new(big.Rat)}
	ic.Reset(scope)
	return ic
}

// Reset clears the stack and re-targets the solver to a new scope.
func (ic *Incremental) Reset(scope hypergraph.VertexSet) {
	ic.scope = ic.scope[:0]
	scope.ForEach(func(v int) bool {
		ic.scope = append(ic.scope, v)
		return true
	})
	need := 0
	if n := len(ic.scope); n > 0 {
		need = ic.scope[n-1] + 1
	}
	for len(ic.varOf) < need {
		ic.varOf = append(ic.varOf, -1)
	}
	for i := range ic.varOf {
		ic.varOf[i] = -1
	}
	for j, v := range ic.scope {
		ic.varOf[v] = j
	}
	for len(ic.col) < need {
		ic.col = append(ic.col, 0)
	}
	ic.wp.Reset(len(ic.scope))
	ic.desired = ic.desired[:0]
	ic.synced = ic.synced[:0]
	ic.refs = ic.refs[:0]
	for len(ic.refs) < len(ic.scope) {
		ic.refs = append(ic.refs, 0)
	}
	ic.coef = growCoef(ic.coef, len(ic.scope))
}

func growCoef(c []*big.Rat, n int) []*big.Rat {
	for len(c) < n {
		c = append(c, nil)
	}
	return c[:n]
}

// Push stacks an atom (a vertex set within the scope) under the given
// key. The set is retained by reference and must stay unchanged while
// stacked — the oracles pass interned canonical atoms.
func (ic *Incremental) Push(key int, set hypergraph.VertexSet) {
	ic.desired = append(ic.desired, incAtom{key: key, set: set})
}

// Pop unstacks the most recent atom.
func (ic *Incremental) Pop() {
	ic.desired = ic.desired[:len(ic.desired)-1]
}

// Depth returns the current stack depth.
func (ic *Incremental) Depth() int { return len(ic.desired) }

// Retarget prepares a solver for reuse on the same scope by a new
// enumeration: the caller's stack is cleared while the synced rows and
// the factored warm basis stay alive, so the next Solve retires or
// installs only the difference between the retired enumeration's stack
// and whatever the new caller pushes. A memo-adjacent subproblem that
// re-derives a shared support prefix resumes in a few pivots instead of
// a cold start (see BasisCache).
func (ic *Incremental) Retarget() {
	ic.desired = ic.desired[:0]
}

// ApproxBytes is a flat estimate of the memory ic retains, for cache
// budgeting (see lp.WarmProblem.ApproxBytes).
func (ic *Incremental) ApproxBytes() int64 {
	b := ic.wp.ApproxBytes() + ic.fp.ApproxBytes()
	b += int64(len(ic.scope)+len(ic.varOf)+len(ic.refs)+len(ic.coef)+len(ic.col)+cap(ic.members)) * 8
	b += int64(cap(ic.duals)) * 48
	b += int64(cap(ic.desired)+cap(ic.synced)) * 48
	return b
}

// sync brings the tableau in line with the desired stack: retire rows
// past the common prefix, then install the missing ones. Along a DFS the
// prefixes are long, so the work is proportional to the stack movement
// since the last Solve.
//
// Prefix matching compares the sets, not just the keys: within one
// enumeration the keys (interned pool ids) are canonical, but a solver
// revived by a BasisCache carries rows synced by a previous engine run
// whose pool assigned the same ids to different atoms. The Equal
// confirms a matched layer really is the same atom — set identity is
// what makes reusing its row sound.
func (ic *Incremental) sync() {
	p := 0
	for p < len(ic.synced) && p < len(ic.desired) &&
		ic.synced[p].key == ic.desired[p].key &&
		ic.synced[p].set.Equal(ic.desired[p].set) {
		p++
	}
	if p == 0 && len(ic.synced) > 0 {
		// Nothing of the synced stack is reusable. Retiring it row by row
		// would pivot each slack back into the basis — exact-rational work
		// proportional to the tableau per row — so a disjoint enumeration
		// (a BasisCache revival whose new stack shares no prefix, or a DFS
		// jump to an unrelated subtree) is strictly cheaper as a cold
		// start: wipe the tableau wholesale and install only the desired
		// rows.
		ic.wp.Reset(len(ic.scope))
		ic.synced = ic.synced[:0]
		for j := range ic.refs {
			ic.refs[j] = 0
		}
	}
	for len(ic.synced) > p {
		top := ic.synced[len(ic.synced)-1]
		ic.wp.RetireRow(top.rowID)
		top.set.ForEach(func(v int) bool {
			j := ic.varOf[v]
			if ic.refs[j]--; ic.refs[j] == 0 {
				ic.wp.SetObjective(j, ic.zero)
			}
			return true
		})
		ic.synced = ic.synced[:len(ic.synced)-1]
	}
	for i := len(ic.synced); i < len(ic.desired); i++ {
		a := ic.desired[i]
		for j := range ic.coef {
			ic.coef[j] = nil
		}
		a.set.ForEach(func(v int) bool {
			j := ic.varOf[v]
			ic.coef[j] = ic.one
			if ic.refs[j]++; ic.refs[j] == 1 {
				ic.wp.SetObjective(j, ic.one)
			}
			return true
		})
		a.rowID = ic.wp.AddRow(ic.coef, ic.one)
		ic.synced = append(ic.synced, a)
	}
}

// Solve computes the minimum weight of a fractional cover of the union
// of the stacked atoms by exactly those atoms. The returned weight is
// owned by the solver (copy before the next call); Dual reads the
// per-atom weights afterwards. Solve never fails on a non-empty stack:
// the union is covered by giving every atom weight 1.
func (ic *Incremental) Solve() *big.Rat {
	if ic.fromFloat = floatFirst && ic.solveFloat(); ic.fromFloat {
		ic.floatSolves++
		return &ic.val
	}
	ic.sync()
	st, err := ic.wp.Solve()
	if err != nil || st != lp.Optimal {
		return nil // defensive: unreachable for covering duals
	}
	return ic.wp.Value()
}

// solveFloat builds the desired stack's cover LP over the union's
// vertices and solves it float-first, storing the certified optimum and
// per-atom weights on success.
func (ic *Incremental) solveFloat() bool {
	ic.union = ic.union.Reset()
	for _, a := range ic.desired {
		ic.union = ic.union.UnionInPlace(a.set)
	}
	ic.members = appendMembers(ic.members[:0], ic.union)
	for j, v := range ic.members {
		ic.col[v] = j
	}
	m, n := len(ic.desired), len(ic.members)
	ic.fp.Reset(m, n)
	for j := 0; j < n; j++ {
		ic.fp.SetObjective(j, 1)
	}
	for i, a := range ic.desired {
		ic.members = appendMembers(ic.members[:0], a.set)
		for _, v := range ic.members {
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
func (ic *Incremental) Dual(i int) *big.Rat {
	if ic.fromFloat {
		return &ic.duals[i]
	}
	return ic.wp.RowDual(ic.synced[i].rowID)
}

// Stats exposes the solve counters: the warm engine's, plus the solves
// the float path answered.
func (ic *Incremental) Stats() lp.WarmStats { return withFloat(ic.wp.Stats(), ic.floatSolves) }

// withFloat adds n float-first solves to a warm engine's counters; they
// count in both Solves and FloatSolves.
func withFloat(ws lp.WarmStats, n int) lp.WarmStats {
	ws.Solves += n
	ws.FloatSolves += n
	return ws
}

// TargetLP answers ρ*(target) queries for drifting targets inside a
// fixed scope: Solve diffs the requested target against the previous
// one, toggling objective coefficients and installing rows for newly
// relevant edges, and re-solves warm. Rows accumulate for the lifetime
// of the scope — an edge row constrains nothing once its vertices leave
// the target (its dual is 0 at any optimum), so retirement is never
// needed.
type TargetLP struct {
	h     *hypergraph.Hypergraph
	scope []int
	varOf []int

	wp      *lp.WarmProblem
	target  hypergraph.VertexSet
	edgeRow []int // edge → row id + 1; 0 = not installed
	edges   []int // installed edges, in row order
	rowIDs  []int
	nocover int // target vertices without any incident edge
	coef    []*big.Rat
	one     *big.Rat
	zero    *big.Rat

	// Float path: rows are the edges meeting the target, columns the
	// target's vertices (col maps a vertex to its column).
	fp          lp.FloatProblem
	col         []int
	members     []int
	rowEdges    []int
	ebuf        hypergraph.EdgeSet
	val, dual   big.Rat
	floatSolves int
}

// NewTargetLP returns a TargetLP for ρ* queries over targets ⊆ scope in
// h. Reset re-targets an existing one, reusing its LP storage.
func NewTargetLP(h *hypergraph.Hypergraph, scope hypergraph.VertexSet) *TargetLP {
	tl := &TargetLP{wp: lp.NewWarm(0), one: lp.RI(1), zero: new(big.Rat)}
	tl.Reset(h, scope)
	return tl
}

// Reset re-targets the solver to a new hypergraph/scope pair.
func (tl *TargetLP) Reset(h *hypergraph.Hypergraph, scope hypergraph.VertexSet) {
	tl.h = h
	tl.scope = tl.scope[:0]
	scope.ForEach(func(v int) bool {
		tl.scope = append(tl.scope, v)
		return true
	})
	for len(tl.varOf) < h.NumVertices() {
		tl.varOf = append(tl.varOf, -1)
	}
	for i := range tl.varOf {
		tl.varOf[i] = -1
	}
	for j, v := range tl.scope {
		tl.varOf[v] = j
	}
	for len(tl.col) < h.NumVertices() {
		tl.col = append(tl.col, 0)
	}
	tl.wp.Reset(len(tl.scope))
	tl.target = tl.target.Reset()
	tl.edgeRow = tl.edgeRow[:0]
	for len(tl.edgeRow) < h.NumEdges() {
		tl.edgeRow = append(tl.edgeRow, 0)
	}
	tl.edges = tl.edges[:0]
	tl.rowIDs = tl.rowIDs[:0]
	tl.nocover = 0
	tl.coef = growCoef(tl.coef, len(tl.scope))
}

// addVertex brings v into the target: objective 1 and rows for its
// incident edges.
func (tl *TargetLP) addVertex(v int) {
	tl.wp.SetObjective(tl.varOf[v], tl.one)
	es := tl.h.IncidentEdges(v)
	if es.Count() == 0 {
		tl.nocover++
		return
	}
	es.ForEach(func(e int) bool {
		if tl.edgeRow[e] != 0 {
			return true
		}
		for j := range tl.coef {
			tl.coef[j] = nil
		}
		tl.h.Edge(e).ForEach(func(u int) bool {
			if j := tl.varOf[u]; j >= 0 {
				tl.coef[j] = tl.one
			}
			return true
		})
		id := tl.wp.AddRow(tl.coef, tl.one)
		tl.edgeRow[e] = id + 1
		tl.edges = append(tl.edges, e)
		tl.rowIDs = append(tl.rowIDs, id)
		return true
	})
}

// Solve computes ρ*(ws) and an optimal fractional cover over the edges
// of h, or (nil, nil) if some target vertex lies in no edge. ws must be
// a subset of the scope. The returned weight is owned by the solver
// (copy before the next call); the cover is the caller's.
func (tl *TargetLP) Solve(ws hypergraph.VertexSet) (*big.Rat, Fractional) {
	if floatFirst {
		if w, g, ok := tl.solveFloat(ws); ok {
			return w, g
		}
	}
	// Diff the previous target against the requested one.
	tl.target.ForEach(func(v int) bool {
		if !ws.Has(v) {
			tl.wp.SetObjective(tl.varOf[v], tl.zero)
			if tl.h.IncidentEdges(v).Count() == 0 {
				tl.nocover--
			}
		}
		return true
	})
	ws.ForEach(func(v int) bool {
		if !tl.target.Has(v) {
			tl.addVertex(v)
		}
		return true
	})
	tl.target = tl.target.CopyFrom(ws)
	if tl.nocover > 0 {
		return nil, nil
	}
	st, err := tl.wp.Solve()
	if err != nil || st != lp.Optimal {
		return nil, nil
	}
	g := Fractional{}
	for i, e := range tl.edges {
		if d := tl.wp.RowDual(tl.rowIDs[i]); d.Sign() > 0 {
			g[e] = new(big.Rat).Set(d)
		}
	}
	return tl.wp.Value(), g
}

// solveFloat answers Solve float-first: ρ*(ws) over the edges meeting
// ws, restricted to ws — columns outside the target carry objective 0
// and non-negative coefficients, so dropping them keeps the optimum.
// It reports false when the certificate fails and the warm path must
// answer.
func (tl *TargetLP) solveFloat(ws hypergraph.VertexSet) (*big.Rat, Fractional, bool) {
	tl.members = appendMembers(tl.members[:0], ws)
	for j, v := range tl.members {
		if tl.h.IncidentEdges(v).Count() == 0 {
			return nil, nil, true
		}
		tl.col[v] = j
	}
	n := len(tl.members)
	tl.ebuf = tl.h.EdgesIntersectingSet(ws, tl.ebuf)
	tl.rowEdges = appendMembers(tl.rowEdges[:0], tl.ebuf)
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
	if !tl.fp.Solve() {
		return nil, nil, false
	}
	tl.floatSolves++
	g := Fractional{}
	for i, e := range tl.rowEdges {
		if d := tl.fp.Dual(i, &tl.dual); d.Sign() > 0 {
			g[e] = new(big.Rat).Set(d)
		}
	}
	return tl.fp.Value(&tl.val), g, true
}

// Stats exposes the solve counters: the warm engine's, plus the solves
// the float path answered.
func (tl *TargetLP) Stats() lp.WarmStats { return withFloat(tl.wp.Stats(), tl.floatSolves) }
