package core

import (
	"fmt"

	"hypertree/internal/cover"
	"hypertree/internal/decomp"
	"hypertree/internal/hypergraph"
	"hypertree/internal/lp"
	"hypertree/internal/telemetry"
)

// Options configure the Check(GHD,k) procedures (and, via CheckHDOpt,
// Check(HD,k); the subedge cap is ignored there).
type Options struct {
	// MaxSubedges caps the number of distinct subedges the lazy
	// generator may intern over the whole run (0 = library default).
	MaxSubedges int
	// Trace, when non-nil, receives the engine's run counters on
	// completion (added, so one trace accumulates across deepening
	// levels). The process totals receive them either way.
	Trace *telemetry.Trace
	// Deprecated: ignored; every run is the serial search. Kept only so
	// perfbench/ compiles; removed with the ROADMAP's Stage 1 names.
	Parallelism int
}

const defaultMaxSubedges = 2_000_000

// ghdOracle chooses covers for Check(GHD,k) via the Theorem 4.11/4.15
// reduction, with the subedge pool generated lazily per subproblem
// instead of materialized up front. A guess is an HD-style λ of ≤ k
// "atoms", each a subset of the subproblem scope W ∪ C:
//
//   - every original edge e intersecting the scope contributes the atom
//     e ∩ scope, and
//   - under the BIP family f(H,k), every non-empty subset of
//     e ∩ (e1 ∪ … ∪ ej) ∩ scope with j ≤ k and e, e1, …, ej edges
//     intersecting the scope (exact mode uses f⁺ instead: every
//     non-empty subset of e ∩ scope).
//
// This atom set decides exactly like Check(HD,k) on the eagerly
// augmented hypergraph H ∪ f(H,k): a subedge s is a candidate there iff
// s ∩ scope ≠ ∅, only s ∩ scope ever reaches the bag B(λ) ∩ scope, and
// s ∩ scope is again of the form above with all generators meeting the
// scope (generators disjoint from the bag can be dropped from the
// union). Conversely every atom is a member of f(H,k) (resp. f⁺).
// Connectivity is also unchanged — subedges are contained in their
// originators — so the engine recurses on the original hypergraph.
//
// Laziness pays twice. Per subproblem, original-edge atoms are tried
// first and the subedge atoms of a scope are generated only when the
// enumeration actually reaches them — subproblems that accept on
// original edges (the common case on instances where hw = ghw locally)
// never generate a single subedge. And when generation does run it is
// scoped: deep subproblems enumerate subsets of e ∩ (…) ∩ scope, not of
// the full base sets. Atoms are interned in a pool shared across
// scopes, so equal sets are stored once and (component, connector) memo
// keys stay stable.
//
// The λ enumeration prunes with connBound: a subproblem whose connector
// no k atoms cover is rejected before its subedges are generated.
type ghdOracle struct {
	h       *hypergraph.Hypergraph
	k       int
	exact   bool // f⁺ atoms (all subedges) instead of the BIP family f(H,k)
	maxSets int
	err     error // closure cap exceeded or subset enumeration refused

	pool  hypergraph.Interner   // canonical atom sets, shared across scopes
	nsubs int                   // distinct generated subedge atoms (cap accounting)
	cands scopeCache[*ghdCands] // per-scope candidate cache

	// Scratch buffers; each is fully consumed before the engine recurses.
	scope, b hypergraph.VertexSet
	ebuf     hypergraph.EdgeSet

	// Mark-rolled per-subproblem stacks shared across the recursion
	// (same discipline as the engine's childBuf): a frame appends its
	// segment, reads it via the field — deeper frames always truncate
	// back before returning, and appends never touch live segments
	// below the frame's mark — and truncates on exit.
	ordBuf []ghdAtom // candidate order of the enumerating subproblems
	wmBuf  []uint64  // connector masks, parallel to ordBuf
	lamBuf []ghdAtom // the shared λ stack
}

// ghdCands is the per-scope candidate cache.
type ghdCands struct {
	scope hypergraph.VertexSet // canonical scope set
	orig  []ghdAtom            // original-edge atoms, ascending edge id
	subs  []ghdAtom            // lazily generated subedge atoms
	full  bool                 // subs has been generated
	seen  hypergraph.VertexSet // pool-id bitset: ids already present in orig/subs
}

// ghdAtom is one candidate bag contribution: a set ⊆ scope and an
// original edge containing it (the witness cover charges the
// originator, as in Theorem 4.11's GHD-from-HD step).
type ghdAtom struct {
	set  hypergraph.VertexSet
	orig int
}

func newGHDOracle(h *hypergraph.Hypergraph, k int, exact bool, maxSets int) *ghdOracle {
	n := h.NumVertices()
	return &ghdOracle{
		h: h, k: k, exact: exact, maxSets: maxSets,
		scope: hypergraph.NewVertexSet(n),
		b:     hypergraph.NewVertexSet(n),
		ebuf:  hypergraph.NewEdgeSet(h.NumEdges()),
	}
}

func (o *ghdOracle) guesses(e *engine, c hypergraph.VertexSet, st engineState, try func(engineGuess) bool) bool {
	if o.err != nil {
		return false
	}
	w := st.a
	o.scope = o.scope.CopyFrom(w).UnionInPlace(c)
	cd := o.cands.get(o.scope, func(canonScope hypergraph.VertexSet) *ghdCands {
		cd := &ghdCands{scope: canonScope}
		o.ebuf = o.h.EdgesIntersectingSet(canonScope, o.ebuf)
		o.ebuf.ForEach(func(ed int) bool {
			o.b = o.b.CopyFrom(o.h.Edge(ed)).IntersectInPlace(canonScope)
			id, canon, _ := o.pool.Intern(o.b)
			if !cd.seen.Has(id) {
				cd.seen.Add(id)
				cd.orig = append(cd.orig, ghdAtom{set: canon, orig: ed})
			}
			return true
		})
		return cd
	})

	// Subproblem-local candidate order: atoms intersecting C first (they
	// create progress), originals before subedges so that the expensive
	// generation only runs when original edges cannot finish the level.
	ordMark, lamMark := len(o.ordBuf), len(o.lamBuf)
	appendOrdered := func(atoms []ghdAtom) {
		for _, a := range atoms {
			if a.set.Intersects(c) {
				o.ordBuf = append(o.ordBuf, a)
				o.wmBuf = append(o.wmBuf, connMask(w, a.set))
			}
		}
		for _, a := range atoms {
			if !a.set.Intersects(c) {
				o.ordBuf = append(o.ordBuf, a)
				o.wmBuf = append(o.wmBuf, connMask(w, a.set))
			}
		}
	}
	appendOrdered(cd.orig)
	extended := cd.full
	if extended {
		appendOrdered(cd.subs)
	}
	cb := newConnBound(w, o.wmBuf[ordMark:])

	var rec func(start int, u uint64, slots int) bool
	rec = func(start int, u uint64, slots int) bool {
		e.poll()
		if o.err != nil {
			return false
		}
		if u == 0 && len(o.lamBuf) > lamMark && o.check(c, w, o.lamBuf[lamMark:], try) {
			return true
		}
		if slots == 0 {
			return false
		}
		for i := start; ; i++ {
			if ordMark+i >= len(o.ordBuf) {
				if extended {
					break
				}
				o.extend(e, cd) // idempotent: a deeper subproblem may have run it
				extended = true
				if o.err != nil {
					return false
				}
				appendOrdered(cd.subs)
				if ordMark+i >= len(o.ordBuf) {
					break
				}
			}
			nu := u &^ o.wmBuf[ordMark+i]
			if !cb.viable(nu, slots-1) {
				continue
			}
			a := o.ordBuf[ordMark+i]
			o.lamBuf = append(o.lamBuf, a)
			e.compPush(i, a.set) // keyed by ordered-list index
			if rec(i+1, nu, slots-1) {
				return true
			}
			e.compPop()
			o.lamBuf = o.lamBuf[:len(o.lamBuf)-1]
		}
		return false
	}
	res := cb.viable(cb.full, o.k) && rec(0, cb.full, o.k)
	o.ordBuf = o.ordBuf[:ordMark]
	o.wmBuf = o.wmBuf[:ordMark]
	o.lamBuf = o.lamBuf[:lamMark]
	return res
}

// dynAware: the λ stack above is mirrored into the engine's incremental
// component structure.
func (o *ghdOracle) dynAware() {}

// check tests one guess λ of atoms. Atoms are subsets of the scope, so
// the bag is their plain union; W ⊆ bag is tested as in hdOracle.check.
func (o *ghdOracle) check(c, w hypergraph.VertexSet, lambda []ghdAtom, try func(engineGuess) bool) bool {
	o.b = o.b.Reset()
	for _, a := range lambda {
		o.b = o.b.UnionInPlace(a.set)
	}
	if !w.IsSubsetOf(o.b) {
		return false
	}
	if !o.b.Intersects(c) {
		return false
	}
	lam := lambda
	return try(engineGuess{bag: o.b, cover: func() cover.Fractional {
		cov := cover.Fractional{}
		one := lp.RI(1)
		for _, a := range lam {
			cov[a.orig] = one // duplicates collapse; weight beyond 1 never helps
		}
		return cov
	}})
}

// extend generates the subedge atoms of cd's scope, once.
func (o *ghdOracle) extend(e *engine, cd *ghdCands) {
	if cd.full || o.err != nil {
		return
	}
	cd.full = true
	scope := cd.scope
	o.ebuf = o.h.EdgesIntersectingSet(scope, o.ebuf)
	es := make([]int, 0, o.ebuf.Count())
	o.ebuf.ForEach(func(ed int) bool {
		es = append(es, ed)
		return true
	})
	// add interns one candidate subedge for this scope; orig is the edge
	// it was carved from. It does not retain s.
	add := func(s hypergraph.VertexSet, orig int) error {
		if s.IsEmpty() {
			return nil
		}
		id, canon, isNew := o.pool.Intern(s)
		if isNew {
			o.nsubs++
			if o.maxSets > 0 && o.nsubs > o.maxSets {
				if o.exact {
					return fmt.Errorf("core: full subedge closure exceeds %d sets", o.maxSets)
				}
				return fmt.Errorf("core: BIP subedge closure exceeds %d sets", o.maxSets)
			}
		}
		if cd.seen.Has(id) {
			return nil
		}
		cd.seen.Add(id)
		cd.subs = append(cd.subs, ghdAtom{set: canon, orig: orig})
		return nil
	}
	if o.exact {
		// f⁺ restricted to the scope: all non-empty subsets of e ∩ scope.
		for _, ed := range es {
			e.poll()
			base := o.h.Edge(ed).Intersect(scope)
			if err := addAllSubsets(base, func(s hypergraph.VertexSet) error { return add(s, ed) }); err != nil {
				o.err = err
				return
			}
		}
		return
	}
	// The BIP family f(H,k) restricted to the scope: subsets of
	// e ∩ (e1 ∪ … ∪ ej) ∩ scope over ≤ k generator edges. Base sets
	// reached by several tuples are enumerated once (baseSeen); the
	// depth-indexed bufs hold the running intersections.
	var baseSeen hypergraph.Interner
	bufs := make([]hypergraph.VertexSet, o.k+1)
	for i := range bufs {
		bufs[i] = hypergraph.NewVertexSet(o.h.NumVertices())
	}
	for _, ed := range es {
		eScoped := o.h.Edge(ed).Intersect(scope)
		addForEdge := func(s hypergraph.VertexSet) error { return add(s, ed) }
		var rec func(start, depth int, inter hypergraph.VertexSet) error
		rec = func(start, depth int, inter hypergraph.VertexSet) error {
			if depth > 0 {
				if _, _, isNew := baseSeen.Intern(inter); isNew {
					if err := addAllSubsets(inter, addForEdge); err != nil {
						return err
					}
				}
			}
			if depth == o.k {
				return nil
			}
			for oi := start; oi < len(es); oi++ {
				if es[oi] == ed {
					continue
				}
				e.poll()
				ni := bufs[depth+1].CopyFrom(inter).UnionIntersection(eScoped, o.h.Edge(es[oi]))
				bufs[depth+1] = ni
				if err := rec(oi+1, depth+1, ni); err != nil {
					return err
				}
			}
			return nil
		}
		if err := rec(0, 0, bufs[0].Reset()); err != nil {
			o.err = err
			return
		}
	}
}

// CheckGHDViaBIP decides Check(GHD,k) using the Theorem 4.11/4.15
// technique: search for an HD of H augmented with the polynomially many
// subedges f(H,k) that suffice under the bounded intersection property,
// and charge the resulting covers back to the original edges, yielding a
// GHD of H. The subedge pool is generated lazily per subproblem — only
// subedges of edges intersecting the current scope W ∪ C are ever
// candidates, and only once the original edges alone have failed — with
// a shared interned pool keeping memo keys stable (see ghdOracle).
//
// The procedure is sound and complete for every hypergraph (f(H,k)
// always contains the required subedges e ∩ Bu of bag-maximal GHDs — the
// BIP only bounds how many sets f(H,k) has). For hypergraphs with large
// intersection width the generated pool may exceed the cap, in which
// case an error is returned.
func CheckGHDViaBIP(h *hypergraph.Hypergraph, k int, opt Options) (*decomp.Decomp, error) {
	return checkGHD(h, k, opt, false, nil)
}

// CheckGHDExact decides Check(GHD,k) for small hypergraphs using the
// limit subedge function f⁺ (all subedges), for which
// hw(H ∪ f⁺(H)) = ghw(H) holds unconditionally.
func CheckGHDExact(h *hypergraph.Hypergraph, k int, opt Options) (*decomp.Decomp, error) {
	return checkGHD(h, k, opt, true, nil)
}

// checkGHD runs the engine with a ghdOracle; see CheckGHDViaBIPCtx in
// cancel.go for the context-aware entry point.
func checkGHD(h *hypergraph.Hypergraph, k int, opt Options, exact bool, done <-chan struct{}) (*decomp.Decomp, error) {
	if k <= 0 || h.NumEdges() == 0 {
		return nil, nil
	}
	max := opt.MaxSubedges
	if max == 0 {
		max = defaultMaxSubedges
	}
	o := newGHDOracle(h, k, exact, max)
	e := newEngine(h, o, false, done)
	e.trace = opt.Trace
	defer e.finish()
	key, ok := e.decompose(h.Vertices(), engineState{a: hypergraph.NewVertexSet(h.NumVertices())})
	if o.err != nil {
		return nil, o.err
	}
	if !ok {
		return nil, nil
	}
	d := decomp.New(h)
	e.build(d, -1, key, nil)
	return d, nil
}

// GHWViaBIP computes ghw(H) by iterating CheckGHDViaBIP from the clique
// lower bound.
func GHWViaBIP(h *hypergraph.Hypergraph, maxK int, opt Options) (int, *decomp.Decomp, error) {
	if maxK <= 0 {
		maxK = h.NumEdges()
	}
	for k := cliqueStartK(h); k <= maxK; k++ {
		d, err := CheckGHDViaBIP(h, k, opt)
		if err != nil {
			return -1, nil, err
		}
		if d != nil {
			return k, d, nil
		}
	}
	return -1, nil, fmt.Errorf("core: ghw(H) > %d", maxK)
}
