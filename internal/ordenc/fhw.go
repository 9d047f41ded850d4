package ordenc

// fhw.go — the LP-hybrid fractional path. The SAT core only fixes an
// elimination ordering and its fill-in arcs (no weight variables exist:
// fractional covers are not usefully expressible in CNF); each decoded
// bag is then priced exactly — ρ*(B), the fractional edge-cover number,
// solved float-first with an exact certificate — by the search's one
// cover.TargetLP. Each bag is priced once: ρ* and its optimal cover are
// memoized together, and an accepted ordering's witness is built from
// the memoized covers. Orderings whose priced width exceeds the target
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

// pricedBag is a bag's ρ* and an optimal fractional cover of it.
type pricedBag struct {
	rho   *big.Rat
	cover cover.Fractional
}

// FHWSearch is an incremental fhw oracle over one hypergraph: integer
// feasibility levels via CheckLevel, then RefineBelow sweeps the upper
// bound down to the exact fractional width. Witnesses share the
// memoized cover maps, so they are read-only.
type FHWSearch struct {
	h      *hypergraph.Hypergraph
	enc    *encoder
	tl     *cover.TargetLP
	blocks []guardedBlock
	priced map[string]pricedBag // bag key → ρ* and its cover
	stats  Stats
}

// NewFHWSearch prepares the arcs-only encoding; the first CheckLevel or
// RefineBelow builds its clauses. The second parameter is ignored: bags
// are priced by the search's own cover.TargetLP. It stays only because
// the repository benchmark compiles against it.
func NewFHWSearch(h *hypergraph.Hypergraph, _ *cover.BasisCache) (*FHWSearch, error) {
	enc, err := newEncoder(h, false, 0)
	if err != nil {
		return nil, err
	}
	return &FHWSearch{h: h, enc: enc, tl: cover.NewTargetLP(h), priced: make(map[string]pricedBag)}, nil
}

// price returns ρ*(bag) and an optimal cover, memoized. Every bag is
// coverable: newEncoder rejects vertices in no edge.
func (f *FHWSearch) price(bag hypergraph.VertexSet) pricedBag {
	key := bag.Key()
	if p, ok := f.priced[key]; ok {
		return p
	}
	f.stats.PricedBags++
	w, g := f.tl.Solve(bag)
	p := pricedBag{rho: new(big.Rat).Set(w), cover: g}
	f.priced[key] = p
	return p
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
// threshold, or ErrCanceled, also mid-build.
//
// The guard assumptions are derived from the recorded ρ* once per call.
// A block installed during the loop is offending at t by construction,
// hence active, so its ¬guard is appended in installation order: the
// solver sees exactly the sequence assumeBlocks(t, strict) would
// rebuild, without re-comparing every block's ρ* each round.
func (f *FHWSearch) solveBelow(done <-chan struct{}, t *big.Rat, strict bool) (*decomp.Decomp, *big.Rat, error) {
	e := f.enc
	if !e.build(done) {
		return nil, nil, ErrCanceled
	}
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
		priced := make([]pricedBag, e.n)
		for i := 0; i < e.n; i++ {
			priced[i] = f.price(bags[i])
			if priced[i].rho.Cmp(width) > 0 {
				width = priced[i].rho
			}
		}
		for i, p := range priced {
			if c := p.rho.Cmp(t); c > 0 || (strict && c == 0) {
				assume = append(assume, -f.block(i, bags[i], p.rho))
				offending++
			}
		}
		if offending > 0 {
			continue
		}
		// Accepted: the witness carries the memoized optimal covers.
		covers := make([]cover.Fractional, e.n)
		for i, p := range priced {
			covers[i] = p.cover
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

// LPStats returns the counters of the search's bag-pricing LPs.
func (f *FHWSearch) LPStats() cover.LPStats { return f.tl.Stats() }

// WriteDIMACS dumps the arcs-only clause database (without blocking
// state) in DIMACS CNF for offline inspection.
func (f *FHWSearch) WriteDIMACS(w io.Writer) error {
	e := f.enc
	e.build(nil)
	return e.s.WriteDIMACS(w,
		fmt.Sprintf("ordenc fhw ordering core: n=%d m=%d (bags priced via LP)", e.n, e.m),
		"vars: ord(i,j) i<j, then arc(i,j) i!=j")
}
