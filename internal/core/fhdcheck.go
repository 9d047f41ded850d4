package core

import (
	"fmt"
	"math/big"

	"hypertree/internal/cover"
	"hypertree/internal/decomp"
	"hypertree/internal/hypergraph"
	"hypertree/internal/lp"
)

// FHDOptions configure CheckFHD.
type FHDOptions struct {
	// MaxSupport bounds |supp(γu)| per node. 0 means ⌊k·degree(H)⌋, the
	// bound of Lemma 5.6.
	MaxSupport int
	// Subedges overrides the candidate subedge pool (Theorem 5.22 uses
	// h_{d,k}). When nil — the default — no pool is materialized at all:
	// the oracle generates f⁺ atoms lazily per subproblem scope, exactly
	// like the GHD oracle, which decides identically to the eager full
	// closure. A non-nil pool restores the eager augmented-hypergraph
	// path (the solve portfolio's precomputed pools, the differential
	// tests' reconstruction).
	Subedges []hypergraph.VertexSet
	// MaxSubedges caps the number of distinct subedge atoms the lazy
	// generator may intern over the whole run (0 = library default). If
	// the cap trips, CheckFHD falls back to the eager h_{d,k} closure of
	// Lemma 5.17 under the same cap.
	MaxSubedges int
	// Basis, when non-nil, is the solver pool the run draws its cover-LP
	// solvers from, and whose LP counters then include the run's solves.
	// When nil the run uses a private pool. A BasisCache is not safe for
	// concurrent use — do not share across parallel strategies.
	Basis *cover.BasisCache
	// Stats, when non-nil, receives the engine's run counters on
	// completion (added, so one sink can accumulate across deepening
	// levels). Leave nil when not tracing: the nil path adds nothing to
	// the run.
	Stats *EngineStats
	// Deprecated: ignored; every run is the serial search. Kept only so
	// perfbench/ compiles; removed with the ROADMAP's Stage 1 names.
	Parallelism int
}

// fhdAtom is one candidate bag contribution for the FHD oracle: a
// vertex set ⊆ scope, the id of its canonical copy in the shared pool
// (which doubles as the LP-memo support key), and an original edge
// containing it — witness covers are charged to originators, as in the
// GHD-from-HD step of Theorem 4.11, so the engine recurses, and the
// final FHD lives, on the original hypergraph.
type fhdAtom struct {
	set  hypergraph.VertexSet
	id   int
	orig int
}

// fhdCands is the per-scope candidate cache.
type fhdCands struct {
	scope hypergraph.VertexSet // canonical scope set
	orig  []fhdAtom            // first-round atoms: e ∩ scope per edge e meeting scope
	subs  []fhdAtom            // lazily generated subedge atoms
	full  bool                 // subs has been generated (always true in eager mode)
	seen  hypergraph.VertexSet // pool-id bitset: ids already present in orig/subs
}

// fhdOracle chooses covers for Check(FHD,k) per Theorem 5.22: a guess is
// a set S of ≤ maxSupport candidate atoms lying inside the scope W ∪ C
// (strict bags B = ⋃S), accepted when W ⊆ B, B ∩ C ≠ ∅ and B admits a
// fractional cover of weight ≤ k by the atoms of S (exact LP).
//
// Like the GHD oracle, the subedge closure is generated lazily per
// scope: the atoms e ∩ scope of the original edges are tried first, and
// the f⁺ family restricted to the scope — every non-empty subset of
// e ∩ scope — is generated only when the enumeration exhausts them.
// This decides exactly like the eager full-closure pipeline (a closure
// subedge s is a candidate iff s ⊆ scope, i.e. iff s ⊆ e ∩ scope for
// its originator e), while subproblems that accept on first-round atoms
// never materialize a single subedge. Atoms live in a pool shared
// across scopes, so equal sets are stored once.
//
// The cover LPs are solved float-first and memoized. Per subproblem the
// oracle borrows a solver (cover.Incremental) that mirrors the
// enumeration stack; each solve is proposed in float64 and accepted by
// an exact duality certificate, and only when that fails is it solved
// cold by the rational simplex. On top of that, solves are memoized on
// the interned support set — the bag is determined by S, so sibling
// subproblems that re-derive the same support skip the LP outright.
type fhdOracle struct {
	h          *hypergraph.Hypergraph
	k          *big.Rat
	maxSupport int
	maxSets    int
	err        error // atom cap exceeded or subset enumeration refused

	aug *Augmented // eager mode: explicit subedge pool (nil = lazy f⁺)

	pool  hypergraph.Interner   // canonical atom sets, shared across scopes
	nsubs int                   // distinct generated subedge atoms (cap accounting)
	cands scopeCache[*fhdCands] // per-scope candidate cache

	supports hypergraph.Interner      // interned chosen-atom id sets
	lpMemo   map[int]map[int]*big.Rat // support id → atom id → weight (nil = no cover ≤ k)

	basis *cover.BasisCache // pooled cover-LP solvers

	// Scratch buffers; each is fully consumed before the engine recurses.
	scope, b hypergraph.VertexSet
	cset     hypergraph.VertexSet // chosen-atom id bitset for support interning
	ebuf     hypergraph.EdgeSet

	// Mark-rolled per-subproblem stacks shared across the recursion
	// (same discipline as ghdOracle.ordBuf/lamBuf).
	ordBuf []fhdAtom // candidate order of the enumerating subproblems
	choBuf []fhdAtom // the shared chosen-support stack
}

func newFHDOracle(h *hypergraph.Hypergraph, aug *Augmented, k *big.Rat, maxSupport, maxSets int, basis *cover.BasisCache) *fhdOracle {
	if basis == nil {
		basis = cover.NewBasisCache(0)
	}
	n := h.NumVertices()
	return &fhdOracle{
		h: h, aug: aug, k: k, maxSupport: maxSupport, maxSets: maxSets, basis: basis,
		lpMemo: map[int]map[int]*big.Rat{},
		scope:  hypergraph.NewVertexSet(n),
		b:      hypergraph.NewVertexSet(n),
		ebuf:   hypergraph.NewEdgeSet(h.NumEdges()),
	}
}

func (o *fhdOracle) guesses(e *engine, c hypergraph.VertexSet, st engineState, try func(engineGuess) bool) bool {
	if o.err != nil {
		return false
	}
	w := st.a
	o.scope = o.scope.CopyFrom(w).UnionInPlace(c)
	cd := o.cands.get(o.scope, o.buildCands)

	// Subproblem-local candidate order: atoms intersecting C first (they
	// create progress), first-round atoms before generated subedges so
	// that the expensive generation only runs when they cannot finish
	// the level.
	ordMark, choMark := len(o.ordBuf), len(o.choBuf)
	appendOrdered := func(atoms []fhdAtom) {
		for _, a := range atoms {
			if a.set.Intersects(c) {
				o.ordBuf = append(o.ordBuf, a)
			}
		}
		for _, a := range atoms {
			if !a.set.Intersects(c) {
				o.ordBuf = append(o.ordBuf, a)
			}
		}
	}
	appendOrdered(cd.orig)
	extended := cd.full
	if extended {
		appendOrdered(cd.subs)
	}

	// Borrow a cover-LP solver for this invocation. Child subproblems
	// recurse from inside try, so invocations nest; each holds its own
	// solver and returns it on exit.
	inc := o.basis.Get()
	defer o.basis.Put(inc)

	var rec func(start int) bool
	rec = func(start int) bool {
		if o.err != nil {
			return false
		}
		if len(o.choBuf) > choMark && o.check(e, inc, c, w, o.choBuf[choMark:], try) {
			return true
		}
		if len(o.choBuf)-choMark == o.maxSupport {
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
			a := o.ordBuf[ordMark+i]
			o.choBuf = append(o.choBuf, a)
			inc.Push(a.set)
			e.compPush(i, a.set) // keyed by ordered-list index
			if rec(i + 1) {
				return true
			}
			e.compPop()
			inc.Pop()
			o.choBuf = o.choBuf[:len(o.choBuf)-1]
		}
		return false
	}
	res := rec(0)
	o.ordBuf = o.ordBuf[:ordMark]
	o.choBuf = o.choBuf[:choMark]
	return res
}

// dynAware: the support stack above is mirrored into the engine's
// incremental component structure.
func (o *fhdOracle) dynAware() {}

// buildCands assembles the first-round atoms of a scope: in lazy mode
// the sets e ∩ scope of the original edges meeting the scope; in eager
// mode every augmented edge contained in the scope (the pre-PR-5
// candidate rule, kept for explicit pools).
func (o *fhdOracle) buildCands(canonScope hypergraph.VertexSet) *fhdCands {
	cd := &fhdCands{scope: canonScope}
	add := func(s hypergraph.VertexSet, orig int) {
		id, canon, _ := o.pool.Intern(s)
		if !cd.seen.Has(id) {
			cd.seen.Add(id)
			cd.orig = append(cd.orig, fhdAtom{set: canon, id: id, orig: orig})
		}
	}
	if o.aug != nil {
		cd.full = true
		o.ebuf = o.aug.H.EdgesIntersectingSet(canonScope, o.ebuf)
		o.ebuf.ForEach(func(ed int) bool {
			if o.aug.H.Edge(ed).IsSubsetOf(canonScope) {
				add(o.aug.H.Edge(ed), o.aug.Origin[ed])
			}
			return true
		})
		cd.seen = nil // nothing extends a full candidate list again
		return cd
	}
	o.ebuf = o.h.EdgesIntersectingSet(canonScope, o.ebuf)
	o.ebuf.ForEach(func(ed int) bool {
		o.b = o.b.CopyFrom(o.h.Edge(ed)).IntersectInPlace(canonScope)
		add(o.b, ed)
		return true
	})
	return cd
}

// extend generates the subedge atoms of cd's scope, once: f⁺ restricted
// to the scope — all non-empty proper subsets of e ∩ scope for every
// edge e meeting the scope (the full sets are already first-round
// atoms). New atoms count against the shared cap.
func (o *fhdOracle) extend(e *engine, cd *fhdCands) {
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
	add := func(s hypergraph.VertexSet, orig int) error {
		if s.IsEmpty() {
			return nil
		}
		id, canon, isNew := o.pool.Intern(s)
		if isNew {
			o.nsubs++
			if o.maxSets > 0 && o.nsubs > o.maxSets {
				return fmt.Errorf("core: full subedge closure exceeds %d sets", o.maxSets)
			}
		}
		if cd.seen.Has(id) {
			return nil
		}
		cd.seen.Add(id)
		cd.subs = append(cd.subs, fhdAtom{set: canon, id: id, orig: orig})
		return nil
	}
	for _, ed := range es {
		e.poll()
		base := o.h.Edge(ed).Intersect(scope)
		if err := addAllSubsets(base, func(s hypergraph.VertexSet) error { return add(s, ed) }); err != nil {
			o.err = err
			return
		}
	}
	cd.seen = nil // dedup is only needed while generating; free the bitset
}

// check tests one guess S of atoms: B = ⋃S on scratch, the cheap bag
// conditions first, then the (memoized) cover LP.
func (o *fhdOracle) check(e *engine, inc *cover.Incremental, c, w hypergraph.VertexSet, chosen []fhdAtom, try func(engineGuess) bool) bool {
	e.poll()
	o.b = o.b.Reset()
	for _, a := range chosen {
		o.b = o.b.UnionInPlace(a.set)
	}
	if !w.IsSubsetOf(o.b) || !o.b.Intersects(c) {
		return false
	}
	gamma := o.coverWithin(inc, chosen)
	if gamma == nil {
		return false
	}
	return try(engineGuess{bag: o.b, cover: func() cover.Fractional {
		// Charge each atom's weight to its originator; weight beyond 1
		// never helps coverage (the GHD-from-HD step of Theorem 4.11).
		cov := cover.Fractional{}
		for _, a := range chosen {
			wt := gamma[a.id]
			if wt == nil || wt.Sign() == 0 {
				continue
			}
			if cov[a.orig] == nil {
				cov[a.orig] = new(big.Rat)
			}
			cov[a.orig].Add(cov[a.orig], wt)
		}
		one := lp.RI(1)
		for og, wt := range cov {
			if wt.Cmp(one) > 0 {
				cov[og] = lp.RI(1)
			}
		}
		return cov
	}})
}

// coverWithin solves min Σ γ(a) over a ∈ chosen subject to covering
// ⋃chosen, memoized on the interned support set, and returns the atom
// weights if the optimum is ≤ k (ρ*(H_λu) ≤ k in the terms of Theorem
// 5.22), nil otherwise. On a memo miss the borrowed incremental solver,
// whose stack already mirrors chosen, solves it.
func (o *fhdOracle) coverWithin(inc *cover.Incremental, chosen []fhdAtom) map[int]*big.Rat {
	o.cset = o.cset.Reset()
	for _, a := range chosen {
		o.cset.Add(a.id)
	}
	sid, _, isNew := o.supports.Intern(o.cset)
	if !isNew {
		return o.lpMemo[sid]
	}
	var gamma map[int]*big.Rat
	if wgt := inc.Solve(); wgt != nil && wgt.Cmp(o.k) <= 0 {
		gamma = map[int]*big.Rat{}
		for i, a := range chosen {
			if d := inc.Dual(i); d.Sign() > 0 {
				gamma[a.id] = new(big.Rat).Set(d)
			}
		}
	}
	o.lpMemo[sid] = gamma
	return gamma
}

// CheckFHD decides Check(FHD,k) — is fhw(h) ≤ k? — using the reduction of
// Theorem 5.22: a *strict* hypertree-style decomposition is sought in
// which every bag is the union ⋃Su of at most ⌊k·d⌋ subedge atoms
// (d = degree(h), Lemma 5.6) admitting a fractional edge cover of weight
// ≤ k by those atoms (checked by an exactly certified LP). The candidate
// atoms are generated lazily per subproblem scope from the f⁺ closure;
// see fhdOracle. On success a width-≤k FHD of h is returned; otherwise
// nil.
//
// The procedure runs in polynomial time for fixed k on bounded-degree
// classes (Theorem 5.2); on unrestricted inputs the subedge generation
// or the support enumeration may be large, bounded by opt caps.
func CheckFHD(h *hypergraph.Hypergraph, k *big.Rat, opt FHDOptions) (*decomp.Decomp, error) {
	return checkFHD(h, k, opt, nil)
}

// checkFHD is CheckFHD with an optional cancellation channel; see
// CheckFHDCtx in cancel.go for the context-aware entry point.
func checkFHD(h *hypergraph.Hypergraph, k *big.Rat, opt FHDOptions, done <-chan struct{}) (*decomp.Decomp, error) {
	if h.NumEdges() == 0 || k.Sign() <= 0 {
		return nil, nil
	}
	d := h.Degree()
	maxSupport := opt.MaxSupport
	if maxSupport == 0 {
		// ⌊k·d⌋ per Lemma 5.6.
		kd := new(big.Rat).Mul(k, lp.RI(int64(d)))
		maxSupport = int(new(big.Int).Quo(kd.Num(), kd.Denom()).Int64())
	}
	if maxSupport < 1 {
		maxSupport = 1
	}
	max := opt.MaxSubedges
	if max == 0 {
		max = defaultMaxSubedges
	}
	var aug *Augmented
	if opt.Subedges != nil {
		aug = Augment(h, opt.Subedges)
	}
	dec, err := runFHD(h, aug, k, maxSupport, max, opt, done)
	if err == nil || aug != nil {
		return dec, err
	}
	// The lazy f⁺ generation tripped its cap (or refused a subset
	// enumeration): fall back to the eager, capped h_{d,k} closure of
	// Lemma 5.17, as the eager pipeline did.
	subs, herr := HdkSubedges(h, d, ratCeil(k), 0, max)
	if herr != nil {
		return nil, herr
	}
	return runFHD(h, Augment(h, subs), k, maxSupport, max, opt, done)
}

// runFHD runs the engine once over a fixed candidate source (lazy f⁺
// when aug is nil, the augmented pool otherwise).
func runFHD(h *hypergraph.Hypergraph, aug *Augmented, k *big.Rat, maxSupport, maxSets int, opt FHDOptions, done <-chan struct{}) (*decomp.Decomp, error) {
	o := newFHDOracle(h, aug, k, maxSupport, maxSets, opt.Basis)
	e := newEngine(h, o, false, done)
	e.sink = opt.Stats
	defer e.finish()
	key, ok := e.decompose(h.Vertices(), engineState{a: hypergraph.NewVertexSet(h.NumVertices())})
	if o.err != nil {
		return nil, o.err
	}
	if !ok {
		return nil, nil
	}
	dec := decomp.New(h)
	e.build(dec, -1, key, nil)
	return dec, nil
}

// ratCeil returns ⌈r⌉ as an int.
func ratCeil(r *big.Rat) int {
	q := new(big.Int).Quo(r.Num(), r.Denom())
	if r.IsInt() {
		return int(q.Int64())
	}
	return int(q.Int64()) + 1
}
