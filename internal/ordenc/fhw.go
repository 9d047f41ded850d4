package ordenc

// fhw.go — the LP-hybrid fractional path. The SAT core only fixes an
// elimination ordering and its fill-in arcs (no weight variables exist:
// fractional covers are not usefully expressible in CNF); each decoded
// bag is then priced exactly — ρ*(B), the fractional edge-cover number,
// solved float-first with an exact certificate — by a cover.Incremental
// borrowed from a cover.BasisCache. Orderings whose priced width exceeds the target
// are excised with blocking clauses over the offending vertex's arcs.
//
// Blocking clauses are threshold-specific (a bag too wide for k may be
// fine at k+1), so each carries a fresh guard literal g: the stored
// clause is (g ∨ ¬arc(i,j₁) ∨ … ∨ ¬arc(i,jₘ)) and a solve activates it
// by assuming ¬g exactly when its recorded ρ* exceeds the width being
// tested — or disables it by assuming g. Learned clauses therefore stay
// globally valid across k-refinement and the exactness sweep.
//
// Soundness rests on ρ* monotonicity: bag(i) ⊇ B implies
// ρ*(bag(i)) ≥ ρ*(B), so excising every ordering in which vertex i
// keeps its arcs into B \ {i} only removes orderings whose width is
// ≥ ρ*(B) — none of which can witness a width strictly below it.

import (
	"fmt"
	"io"
	"math/big"

	"hypertree/internal/cdcl"
	"hypertree/internal/cover"
	"hypertree/internal/decomp"
	"hypertree/internal/hypergraph"
)

// guardedBlock is one installed blocking clause: assume ¬guard to
// enforce it, guard to switch it off.
type guardedBlock struct {
	guard cdcl.Lit
	rho   *big.Rat // fractional cover number of the blocked bag
}

// FHWSearch is an incremental fhw oracle over one hypergraph: integer
// feasibility levels via CheckLevel, then RefineBelow sweeps the upper
// bound down to the exact fractional width.
type FHWSearch struct {
	h      *hypergraph.Hypergraph
	enc    *encoder
	basis  *cover.BasisCache
	blocks []guardedBlock
	rho    map[string]*big.Rat // bag key → priced ρ*
	stats  Stats
}

// NewFHWSearch prepares the arcs-only encoding. basis may be nil (a
// private cache is created); passing one shares warm LP bases with a
// caller's loop.
func NewFHWSearch(h *hypergraph.Hypergraph, basis *cover.BasisCache) (*FHWSearch, error) {
	enc, err := newEncoder(h, false, 0)
	if err != nil {
		return nil, err
	}
	if basis == nil {
		basis = cover.NewBasisCache(0)
	}
	return &FHWSearch{h: h, enc: enc, basis: basis, rho: make(map[string]*big.Rat)}, nil
}

// price returns ρ*(bag), memoized, with LP warm-starting through the
// basis cache.
func (f *FHWSearch) price(bag hypergraph.VertexSet) *big.Rat {
	key := bag.Key()
	if r, ok := f.rho[key]; ok {
		return r
	}
	f.stats.PricedBags++
	ic := f.basis.Get(bag)
	pushed := 0
	for _, ei := range f.coveringEdges(bag) {
		ic.Push(ei, f.h.Edge(ei).Intersect(bag))
		pushed++
	}
	r := new(big.Rat).Set(ic.Solve())
	for ; pushed > 0; pushed-- {
		ic.Pop()
	}
	f.basis.Put(bag, ic)
	f.rho[key] = r
	return r
}

// coveringEdges lists the edges intersecting bag (the LP columns).
func (f *FHWSearch) coveringEdges(bag hypergraph.VertexSet) []int {
	seen := make(map[int]bool)
	var out []int
	for _, v := range sortedVertices(bag) {
		for _, ei := range f.enc.inc[v] {
			if !seen[ei] {
				seen[ei] = true
				out = append(out, ei)
			}
		}
	}
	return out
}

// assumeBlocks returns the guard assumptions activating exactly the
// blocks whose recorded ρ* makes them sound at the given threshold:
// strict=false activates blocks with ρ* > t (testing width ≤ t),
// strict=true activates blocks with ρ* ≥ t (testing width < t).
func (f *FHWSearch) assumeBlocks(t *big.Rat, strict bool) []cdcl.Lit {
	as := make([]cdcl.Lit, 0, len(f.blocks))
	for _, b := range f.blocks {
		c := b.rho.Cmp(t)
		if c > 0 || (strict && c == 0) {
			as = append(as, -b.guard)
		} else {
			as = append(as, b.guard)
		}
	}
	return as
}

// block installs a guarded blocking clause excising every ordering in
// which vertex i keeps all its current arcs (bag(i) ⊇ bag), and returns
// its guard.
func (f *FHWSearch) block(i int, bag hypergraph.VertexSet, rho *big.Rat) cdcl.Lit {
	g := cdcl.Lit(f.enc.s.NewVar())
	lits := []cdcl.Lit{g}
	bag.ForEach(func(j int) bool {
		if j != i {
			lits = append(lits, -f.enc.arcLit(i, j))
		}
		return true
	})
	f.enc.s.AddClause(lits...)
	f.blocks = append(f.blocks, guardedBlock{guard: g, rho: rho})
	f.stats.Blocked++
	return g
}

// solveBelow runs the CEGAR loop at one width threshold: solve the SAT
// core under the active blocks, price the decoded bags, accept when the
// priced width clears the threshold (≤ t, or < t when strict), else
// block the offending bags and repeat. Returns the witness and its
// exact priced width, (nil, nil, nil) when no ordering clears the
// threshold, or ErrCanceled.
//
// The guard assumptions are derived from the recorded ρ* once per call.
// A block installed during the loop is offending at t by construction,
// hence active, so its ¬guard is appended in installation order: the
// solver sees exactly the sequence assumeBlocks(t, strict) would
// rebuild, without re-comparing every block's ρ* each round.
func (f *FHWSearch) solveBelow(done <-chan struct{}, t *big.Rat, strict bool) (*decomp.Decomp, *big.Rat, error) {
	e := f.enc
	assume := f.assumeBlocks(t, strict)
	for {
		prev := e.s.Stats()
		st := e.s.SolveUnder(done, assume...)
		f.stats.addSolver(prev, e.s.Stats())
		switch st {
		case cdcl.Canceled:
			return nil, nil, ErrCanceled
		case cdcl.Unsat:
			return nil, nil, nil
		}
		order := e.ordering()
		bags := e.bags()
		width := new(big.Rat)
		offending := 0
		rhos := make([]*big.Rat, e.n)
		for i := 0; i < e.n; i++ {
			rhos[i] = f.price(bags[i])
			if rhos[i].Cmp(width) > 0 {
				width = rhos[i]
			}
		}
		for i := 0; i < e.n; i++ {
			if c := rhos[i].Cmp(t); c > 0 || (strict && c == 0) {
				assume = append(assume, -f.block(i, bags[i], rhos[i]))
				offending++
			}
		}
		if offending > 0 {
			continue
		}
		// Accepted: assemble the witness with exact fractional covers.
		covers := make([]cover.Fractional, e.n)
		for i := 0; i < e.n; i++ {
			_, cov := cover.FractionalEdgeCover(f.h, bags[i])
			covers[i] = cov
		}
		d := buildDecomp(f.h, order, bags, covers)
		if err := d.ValidateWidth(decomp.FHD, width); err != nil {
			return nil, nil, fmt.Errorf("ordenc: decoded fhw witness invalid: %w", err)
		}
		return d, width, nil
	}
}

// CheckLevel decides whether some elimination ordering has priced width
// ≤ k. On success the witness and its exact fractional width (≤ k,
// often strictly) are returned; (nil, nil, nil) proves fhw > k.
func (f *FHWSearch) CheckLevel(done <-chan struct{}, k *big.Rat) (*decomp.Decomp, *big.Rat, error) {
	return f.solveBelow(done, k, false)
}

// RefineBelow searches for an ordering of priced width strictly below
// w. A witness tightens the upper bound; (nil, nil, nil) proves no such
// ordering exists — i.e. fhw is exactly w when w came from a witness.
func (f *FHWSearch) RefineBelow(done <-chan struct{}, w *big.Rat) (*decomp.Decomp, *big.Rat, error) {
	return f.solveBelow(done, w, true)
}

// Stats returns the accumulated solver and pricing statistics.
func (f *FHWSearch) Stats() Stats { return f.stats }

// Basis exposes the LP basis cache for telemetry flushing.
func (f *FHWSearch) Basis() *cover.BasisCache { return f.basis }

// WriteDIMACS dumps the arcs-only clause database (without blocking
// state) in DIMACS CNF for offline inspection.
func (f *FHWSearch) WriteDIMACS(w io.Writer) error {
	e := f.enc
	return e.s.WriteDIMACS(w,
		fmt.Sprintf("ordenc fhw ordering core: n=%d m=%d (bags priced via LP)", e.n, e.m),
		"vars: ord(i,j) i<j, then arc(i,j) i!=j")
}
