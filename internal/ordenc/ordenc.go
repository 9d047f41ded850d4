// Package ordenc implements the ordering-based SAT encoding of
// generalized hypertree width in the style of htdsmt's FraSmtSolver
// (Schidler/Szeider; Fichte et al.): Boolean ord(i,j) variables fix an
// elimination ordering of the vertices (linearized by triangle
// transitivity clauses), arc(i,j) variables derive the fill-in closure
// of the ordering, and — for the integral measures — per-vertex
// cover-weight variables wt(i,e) with sequential-counter cardinality
// gadgets bound every bag's edge cover by k. A model decodes into an
// elimination ordering whose bags form a tree decomposition; the wt
// assignment supplies the integral covers, so the decoded witness is a
// GHD of width ≤ k validated by decomp.ValidateWidth.
//
// The encoding characterizes ghw up to the usual caveat: every width-k
// GHD induces an elimination ordering whose bags are covered by k
// edges, and conversely any model decodes to a width-≤k GHD. For hw the
// same encoding is a lower-bound oracle only (ghw ≤ hw; the special
// condition is not expressed). The fractional measure reuses the
// ordering/arc core without weight variables and prices bags through
// cover LPs instead — see fhw.go.
//
// Width bounds enter exclusively through assumptions on the counter
// registers, so one solver instance refines k incrementally: learned
// clauses are resolvents of the k-independent database and stay valid
// across deepening steps (the cdcl solver counts their reuse).
package ordenc

import (
	"errors"
	"fmt"
	"io"

	"hypertree/internal/cdcl"
	"hypertree/internal/cover"
	"hypertree/internal/decomp"
	"hypertree/internal/hypergraph"
	"hypertree/internal/lp"
)

// ErrCanceled reports that the done channel fired mid-solve.
var ErrCanceled = errors.New("ordenc: canceled")

// Stats aggregates one search object's solver work for telemetry.
type Stats struct {
	Solves        int64 // SAT solver calls
	Conflicts     int64
	Propagations  int64
	Learned       int64
	Restarts      int64
	ReuseSolves   int64 // solver calls that started with retained learnts
	ReusedLearned int64 // learnt clauses alive at the start of such calls
	Rebuilds      int64 // encoder rebuilds that discarded learnts (kCap growth)
	Blocked       int64 // blocking clauses added (fhw path)
	PricedBags    int64 // bag LP pricings (fhw path)
}

// addSolver folds the delta between two solver snapshots into st.
func (st *Stats) addSolver(prev, now cdcl.Stats) {
	st.Solves += now.Solves - prev.Solves
	st.Conflicts += now.Conflicts - prev.Conflicts
	st.Propagations += now.Propagations - prev.Propagations
	st.Learned += now.Learned - prev.Learned
	st.Restarts += now.Restarts - prev.Restarts
	st.ReuseSolves += now.ReuseSolves - prev.ReuseSolves
	st.ReusedLearned += now.ReusedLearned - prev.ReusedLearned
}

// encoder holds the CNF encoding of one hypergraph's elimination
// orderings, with or without the integral cover-weight layer.
type encoder struct {
	h    *hypergraph.Hypergraph
	n, m int
	s    *cdcl.Solver

	ordV []int   // [i*n+j] for i<j: variable of ord(i,j)
	arcV []int   // [i*n+j] for i≠j: variable of arc(i,j)
	inc  [][]int // incident edge lists per vertex

	// Weight layer (nil without weights).
	kCap int
	wtV  []int   // [i*m+e]: variable of wt(i,e)
	cnt  [][]int // [i][c]: register "vertex i selects ≥ c+1 edges", c ≤ min(m,kCap+1)-1
}

// newEncoder builds the ordering encoding. withWeights adds the wt layer
// and counters up to kCap (clamped to the edge count); without it only
// the ord/arc core is emitted (the fhw path).
func newEncoder(h *hypergraph.Hypergraph, withWeights bool, kCap int) (*encoder, error) {
	n, m := h.NumVertices(), h.NumEdges()
	if n == 0 || m == 0 {
		return nil, errors.New("ordenc: empty hypergraph")
	}
	e := &encoder{h: h, n: n, m: m, s: cdcl.New()}
	e.inc = make([][]int, n)
	for v := 0; v < n; v++ {
		e.inc[v] = h.EdgesWithVertex(v)
		if len(e.inc[v]) == 0 {
			return nil, fmt.Errorf("ordenc: vertex %d has no incident edge", v)
		}
	}

	// Variables. ord(i,j) exists for i<j; ord(j,i) is its negation.
	e.ordV = make([]int, n*n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			e.ordV[i*n+j] = e.s.NewVar()
		}
	}
	e.arcV = make([]int, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				e.arcV[i*n+j] = e.s.NewVar()
			}
		}
	}

	// Transitivity triangles: ord(i,j) ∧ ord(j,l) → ord(i,l) and
	// ord(j,l) ∧ ord(l,i)... — for sorted i<j<l the two clauses
	// (¬o_ij ∨ ¬o_jl ∨ o_il) and (o_ij ∨ o_jl ∨ ¬o_il) rule out both
	// directed 3-cycles, which suffices for full transitivity.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			oij := e.ordLit(i, j)
			for l := j + 1; l < n; l++ {
				ojl := e.ordLit(j, l)
				oil := e.ordLit(i, l)
				e.s.AddClause(-oij, -ojl, oil)
				e.s.AddClause(oij, ojl, -oil)
			}
		}
	}

	// Base arcs: vertices sharing an edge are adjacent in the fill
	// graph; the earlier one gets the arc.
	for ei := 0; ei < m; ei++ {
		vs := h.Edge(ei).Vertices()
		for a := 0; a < len(vs); a++ {
			for b := a + 1; b < len(vs); b++ {
				u, v := vs[a], vs[b]
				ouv := e.ordLit(u, v)
				e.s.AddClause(-ouv, e.arcLit(u, v))
				e.s.AddClause(ouv, e.arcLit(v, u))
			}
		}
	}

	// Arcs respect the ordering: arc(i,j) → ord(i,j). Keeps models
	// clean so decoded bags contain only later vertices.
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				e.s.AddClause(-e.arcLit(i, j), e.ordLit(i, j))
			}
		}
	}

	// Fill-in closure: eliminating i connects its later neighbors —
	// arc(i,j) ∧ arc(i,l) → arc between j and l in ordering direction.
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			aij := e.arcLit(i, j)
			for l := j + 1; l < n; l++ {
				if l == i {
					continue
				}
				ail := e.arcLit(i, l)
				ojl := e.ordLit(j, l)
				e.s.AddClause(-aij, -ail, -ojl, e.arcLit(j, l))
				e.s.AddClause(-aij, -ail, ojl, e.arcLit(l, j))
			}
		}
	}

	if withWeights {
		if kCap < 1 {
			kCap = 1
		}
		if kCap > m {
			kCap = m
		}
		e.kCap = kCap
		e.buildWeights()
	}
	return e, nil
}

// buildWeights emits the cover-weight layer: wt variables, coverage
// clauses, and one sequential counter per vertex with registers up to
// kCap+1 so any k ≤ kCap can be assumed.
func (e *encoder) buildWeights() {
	n, m := e.n, e.m
	e.wtV = make([]int, n*m)
	for i := 0; i < n; i++ {
		for ei := 0; ei < m; ei++ {
			e.wtV[i*m+ei] = e.s.NewVar()
		}
	}

	// Coverage: vertex i's own membership, and every arc target, must
	// be covered by an edge selected at i.
	lits := make([]cdcl.Lit, 0, m+1)
	for i := 0; i < n; i++ {
		lits = lits[:0]
		for _, ei := range e.inc[i] {
			lits = append(lits, e.wtLit(i, ei))
		}
		e.s.AddClause(lits...)
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			lits = lits[:0]
			lits = append(lits, -e.arcLit(i, j))
			for _, ej := range e.inc[j] {
				lits = append(lits, e.wtLit(i, ej))
			}
			e.s.AddClause(lits...)
		}
	}

	// Sinz sequential counters: register s[t][c] ⇐ "≥ c+1 of the first
	// t+1 inputs are true" (0-based c). Only the one-directional
	// implication is emitted — enough for the upper-bound assumption
	// ¬s[m-1][k] ("not ≥ k+1 selected").
	K := e.kCap + 1 // registers count up to kCap+1 occurrences
	e.cnt = make([][]int, n)
	for i := 0; i < n; i++ {
		regs := min(m, K)
		prev := make([]int, 0, regs) // s[t-1][·]
		cur := make([]int, 0, regs)
		for t := 0; t < m; t++ {
			x := e.wtLit(i, t)
			width := min(t+1, K)
			cur = cur[:0]
			for c := 0; c < width; c++ {
				cur = append(cur, e.s.NewVar())
			}
			// ≥1 propagates from the input.
			e.s.AddClause(-x, cdcl.Lit(cur[0]))
			for c := 0; c < len(prev); c++ {
				// Carry: counts don't decrease.
				e.s.AddClause(-cdcl.Lit(prev[c]), cdcl.Lit(cur[c]))
				// Increment: prior ≥c+1 and x true gives ≥c+2.
				if c+1 < width {
					e.s.AddClause(-cdcl.Lit(prev[c]), -x, cdcl.Lit(cur[c+1]))
				}
			}
			prev = append(prev[:0], cur...)
		}
		e.cnt[i] = append([]int(nil), prev...)
	}
}

// ordLit returns the literal asserting "i before j" (i ≠ j).
func (e *encoder) ordLit(i, j int) cdcl.Lit {
	if i < j {
		return cdcl.Lit(e.ordV[i*e.n+j])
	}
	return -cdcl.Lit(e.ordV[j*e.n+i])
}

// arcLit returns the literal asserting arc(i,j) (i ≠ j).
func (e *encoder) arcLit(i, j int) cdcl.Lit { return cdcl.Lit(e.arcV[i*e.n+j]) }

// wtLit returns the literal asserting wt(i,e).
func (e *encoder) wtLit(i, ei int) cdcl.Lit { return cdcl.Lit(e.wtV[i*e.m+ei]) }

// assumeWidth returns the assumption literals enforcing, per vertex, at
// most k selected edges. Panics when k exceeds kCap.
func (e *encoder) assumeWidth(k int) []cdcl.Lit {
	if e.wtV == nil {
		panic("ordenc: assumeWidth on an arcs-only encoder")
	}
	if k > e.kCap {
		panic(fmt.Sprintf("ordenc: k=%d exceeds kCap=%d", k, e.kCap))
	}
	var as []cdcl.Lit
	for i := 0; i < e.n; i++ {
		if k < len(e.cnt[i]) { // register "≥ k+1" exists
			as = append(as, -cdcl.Lit(e.cnt[i][k]))
		}
	}
	return as
}

// ordering reads the elimination ordering out of a model: order[t] is
// the vertex at position t.
func (e *encoder) ordering() []int {
	n := e.n
	pos := make([]int, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if e.s.Value(e.ordV[i*n+j]) {
				pos[j]++
			} else {
				pos[i]++
			}
		}
	}
	order := make([]int, n)
	for v, p := range pos {
		order[p] = v
	}
	return order
}

// bags reads bag(i) = {i} ∪ {j : arc(i,j)} for every vertex out of a
// model.
func (e *encoder) bags() []hypergraph.VertexSet {
	n := e.n
	bags := make([]hypergraph.VertexSet, n)
	for i := 0; i < n; i++ {
		b := hypergraph.NewVertexSet(n)
		b.Add(i)
		for j := 0; j < n; j++ {
			if j != i && e.s.Value(e.arcV[i*n+j]) {
				b.Add(j)
			}
		}
		bags[i] = b
	}
	return bags
}

// buildDecomp assembles the decomposition of an elimination ordering
// from the vertex-indexed bags and covers a model decodes to: one node
// per vertex, linked by decomp.EliminationParents (bags only contain
// later vertices, so the parent is the earliest other bag member).
func buildDecomp(h *hypergraph.Hypergraph, order []int, bags []hypergraph.VertexSet, covers []cover.Fractional) *decomp.Decomp {
	posBags := make([]hypergraph.VertexSet, len(order))
	posCovers := make([]cover.Fractional, len(order))
	for t, v := range order {
		posBags[t], posCovers[t] = bags[v], covers[v]
	}
	return decomp.FromElimination(h, posBags, decomp.EliminationParents(order, posBags), posCovers)
}

// GHWSearch is an incremental ghw ≤ k oracle over one hypergraph. One
// underlying solver serves all queried k up to its register cap;
// querying beyond the cap rebuilds the encoder (discarding learnts,
// counted in Stats.Rebuilds).
type GHWSearch struct {
	h     *hypergraph.Hypergraph
	enc   *encoder
	stats Stats
}

// NewGHWSearch prepares the encoding with counters sized for widths up
// to kCap (clamped to [1, #edges]).
func NewGHWSearch(h *hypergraph.Hypergraph, kCap int) (*GHWSearch, error) {
	enc, err := newEncoder(h, true, kCap)
	if err != nil {
		return nil, err
	}
	return &GHWSearch{h: h, enc: enc}, nil
}

// Check decides ghw(h) ≤ k. It returns a validated width-≤k GHD on
// success, (nil, nil) when the encoding is unsatisfiable at k (so
// ghw > k), and ErrCanceled when done fires first.
func (g *GHWSearch) Check(done <-chan struct{}, k int) (*decomp.Decomp, error) {
	if k < 1 {
		return nil, nil
	}
	if k > g.enc.kCap && g.enc.kCap < g.enc.m {
		// Rebuild with headroom so one growth step serves several
		// deepening levels.
		enc, err := newEncoder(g.h, true, k+2)
		if err != nil {
			return nil, err
		}
		g.enc = enc
		g.stats.Rebuilds++
	}
	e := g.enc
	kq := k
	if kq > e.kCap {
		kq = e.kCap // k ≥ m edges: the bound is vacuous
	}
	prev := e.s.Stats()
	st := e.s.SolveUnder(done, e.assumeWidth(kq)...)
	g.stats.addSolver(prev, e.s.Stats())
	switch st {
	case cdcl.Canceled:
		return nil, ErrCanceled
	case cdcl.Unsat:
		return nil, nil
	}
	order := e.ordering()
	bags := e.bags()
	covers := make([]cover.Fractional, e.n)
	for i := 0; i < e.n; i++ {
		cov := cover.Fractional{}
		for ei := 0; ei < e.m; ei++ {
			if e.s.Value(e.wtV[i*e.m+ei]) {
				cov[ei] = lp.RI(1)
			}
		}
		covers[i] = cov
	}
	d := buildDecomp(g.h, order, bags, covers)
	if err := d.ValidateWidth(decomp.GHD, lp.RI(int64(k))); err != nil {
		return nil, fmt.Errorf("ordenc: decoded witness invalid: %w", err)
	}
	return d, nil
}

// Stats returns the accumulated solver statistics.
func (g *GHWSearch) Stats() Stats { return g.stats }

// WriteDIMACS dumps the current clause database in DIMACS CNF, with the
// width-≤k assumption literals appended as unit clauses so the dump is
// the exact decision query at k. Comment lines name the variable
// blocks.
func (g *GHWSearch) WriteDIMACS(w io.Writer, k int) error {
	e := g.enc
	if k > e.kCap {
		k = e.kCap
	}
	return e.s.WriteDIMACSAssuming(w, e.assumeWidth(k),
		fmt.Sprintf("ordenc ghw<=%d encoding: n=%d m=%d kCap=%d", k, e.n, e.m, e.kCap),
		fmt.Sprintf("vars: ord(i,j) i<j, then arc(i,j) i!=j, then wt(i,e), then counters"))
}
