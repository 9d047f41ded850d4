// Package approx implements the polynomial-time approximation ladder
// for fractional (and generalized) hypertree width: the upper-bound
// strategies the portfolio falls back on when every exact search hits
// its budget, so a width request can always be answered with a
// certified [lb, ub] interval.
//
// Two rungs:
//
//   - LogN builds a decomposition by recursive balanced separation in
//     the style of "Efficient Approximation of Fractional Hypertree
//     Width" (Korchemna, Okrasa, Rzążewski, Simonov, Sharma 2024): each
//     node's bag is the inherited interface plus a separator assembled
//     greedily from at most m edge traces, chosen so every remaining
//     component has at most half the vertices. The recursion depth is
//     therefore ≤ ⌈log₂ n⌉ + 1 and every bag lies in the union of the
//     ≤ m separator edges of its ancestor chain, so the returned
//     decomposition carries a structural width certificate
//     width ≤ (depth+1)·m — the O(k·log n) shape of the paper, with a
//     greedy separator oracle in place of its LP rounding. m itself is
//     found by doubling search from 1, and a budget of |E| always
//     succeeds, so LogN is total on connected inputs.
//
//   - Improve takes any existing decomposition (min-fill, LogN, or the
//     single-bag trivial witness) and monotonically tightens it:
//     redundant vertices are pruned from bags, every bag is re-priced
//     through one reusable cover.TargetLP (fractional) or
//     exact/greedy integral covers, and the widest bag is re-decomposed
//     locally along a min-fill order with its neighbor interfaces
//     forced as cliques. Accepted steps strictly reduce either the
//     width or the critical-bag count, so an incumbent is never
//     loosened — the passes are safe to race anytime against exact
//     strategies.
package approx

import (
	"context"
	"errors"
	"math/big"

	"hypertree/internal/cover"
	"hypertree/internal/decomp"
	"hypertree/internal/hypergraph"
	"hypertree/internal/lp"
)

// exactCoverLimit gates exact branch-and-bound integral bag covers;
// larger bags are priced greedily (the guaranteed ancestor-trace cover
// bounds the damage).
const exactCoverLimit = 20

// Options configure one LogN run.
type Options struct {
	// Integral prices bags with integral edge covers, yielding a GHD
	// (and a ghw upper bound); the default prices fractionally through
	// one target LP, yielding an FHD.
	Integral bool
	// StartEdges seeds the doubling search over the separator edge
	// budget m (0 = 1). Seeding at a known lower bound skips the
	// budgets that cannot succeed anyway.
	StartEdges int
	// MaxEdges caps the budget ladder (0 = |E|, which always succeeds).
	MaxEdges int
}

// Stats reports what one LogN run did.
type Stats struct {
	// SepBudget is the separator edge budget m the ladder succeeded at.
	SepBudget int
	// SepRetries counts the budget levels rejected before SepBudget.
	SepRetries int
	// Depth is the recursion depth of the winning decomposition
	// (root = 0).
	Depth int
	// CertBound is the structural certificate (Depth+1)·SepBudget: the
	// returned width never exceeds it, independent of how well the
	// per-bag pricing did.
	CertBound *big.Rat
	// LP counts the fractional pricing LP's solves by path (zero when
	// Integral).
	LP cover.LPStats
}

// RatioBound returns the ladder's certified depth factor for an
// n-vertex hypergraph: ⌈log₂ n⌉ + 2. A LogN decomposition built at
// separator budget m has width ≤ RatioBound(n)·m, and the differential
// suite pins empirically that the returned width stays within
// RatioBound(n)·exact on every corpus instance with a known width.
func RatioBound(n int) *big.Rat {
	lg := 0
	for p := 1; p < n; p *= 2 {
		lg++
	}
	return lp.RI(int64(lg + 2))
}

// ErrUncoverable reports a vertex that no edge covers; such inputs have
// no (F)HD at all. The solve pipeline never produces them (isolated
// vertices are stripped in preprocessing).
var ErrUncoverable = errors.New("approx: vertex covered by no edge")

// LogN computes an upper-bound decomposition of h by recursive balanced
// separation (see the package comment). The result validates as a GHD
// when opt.Integral and as an FHD otherwise; vertices occurring in no
// edge are ignored. Cancellation returns ctx.Err().
func LogN(ctx context.Context, h *hypergraph.Hypergraph, opt Options) (*decomp.Decomp, *Stats, error) {
	if h == nil || h.NumEdges() == 0 {
		return nil, nil, errors.New("approx: empty hypergraph")
	}
	covered := hypergraph.NewVertexSet(h.NumVertices())
	for e := 0; e < h.NumEdges(); e++ {
		covered.UnionInPlace(h.Edge(e))
	}
	if covered.IsEmpty() {
		return nil, nil, errors.New("approx: no non-empty edges")
	}
	maxE := opt.MaxEdges
	if maxE <= 0 || maxE > h.NumEdges() {
		maxE = h.NumEdges()
	}
	m := opt.StartEdges
	if m < 1 {
		m = 1
	}
	if m > maxE {
		m = maxE
	}
	st := &Stats{}
	adj := h.AdjacencyMatrix()
	for {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		b := &builder{h: h, adj: adj, m: m, ctx: ctx}
		ok, err := b.buildAll(covered)
		if err != nil {
			return nil, nil, err
		}
		if ok {
			d, err := b.price(opt.Integral, st)
			if err != nil {
				return nil, nil, err
			}
			st.SepBudget, st.Depth = m, b.maxDepth
			st.CertBound = lp.RI(int64((b.maxDepth + 1) * m))
			return d, st, nil
		}
		st.SepRetries++
		if m == maxE {
			// Unreachable for coverable inputs: at m = |E| the greedy
			// separator can absorb every vertex of the component.
			return nil, nil, errors.New("approx: separator search failed at full edge budget")
		}
		if m *= 2; m > maxE {
			m = maxE
		}
	}
}

// rawNode is one bag of the recursion before pricing. guarEdges is the
// ancestor chain's separator edges — a guaranteed (if crude) integral
// cover of the bag that backs the structural certificate.
type rawNode struct {
	bag       hypergraph.VertexSet
	parent    int
	guarEdges []int
}

// builder carries one budget level's recursion state.
type builder struct {
	h        *hypergraph.Hypergraph
	adj      []hypergraph.VertexSet
	m        int
	ctx      context.Context
	nodes    []rawNode
	maxDepth int
}

// buildAll decomposes every connected component of the covered vertex
// set; later components hang under the first root (disjoint bags keep
// every condition intact). Returns false when some separator exceeded
// the edge budget.
func (b *builder) buildAll(covered hypergraph.VertexSet) (bool, error) {
	rest := covered.Clone()
	root := -1
	for !rest.IsEmpty() {
		comp := b.component(rest, rest.First())
		rest.DiffInPlace(comp)
		ok, err := b.decompose(comp, hypergraph.NewVertexSet(b.h.NumVertices()), root, 0, nil)
		if !ok || err != nil {
			return false, err
		}
		if root < 0 {
			root = 0
		}
	}
	return true, nil
}

// component returns the primal-graph connected component of v within
// scope.
func (b *builder) component(scope hypergraph.VertexSet, v int) hypergraph.VertexSet {
	comp := hypergraph.NewVertexSet(b.h.NumVertices())
	comp.Add(v)
	queue := []int{v}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		b.adj[u].Intersect(scope).Diff(comp).ForEach(func(w int) bool {
			comp.Add(w)
			queue = append(queue, w)
			return true
		})
	}
	return comp
}

// decompose recurses on component C with inherited interface S: the new
// bag is S ∪ X for a balanced separator X, and each component of C∖X
// (≤ |C|/2 vertices each) recurses with its neighborhood interface.
func (b *builder) decompose(C, S hypergraph.VertexSet, parent, depth int, guar []int) (bool, error) {
	if err := b.ctx.Err(); err != nil {
		return false, err
	}
	X, sepEdges, ok, err := b.separator(C)
	if !ok || err != nil {
		return ok, err
	}
	bag := S.Union(X)
	// The child's guaranteed cover extends the ancestor chain's; the
	// slice is copied so sibling recursions cannot alias one backing
	// array through append.
	childGuar := make([]int, 0, len(guar)+len(sepEdges))
	childGuar = append(append(childGuar, guar...), sepEdges...)
	id := len(b.nodes)
	b.nodes = append(b.nodes, rawNode{bag: bag, parent: parent, guarEdges: childGuar})
	if depth > b.maxDepth {
		b.maxDepth = depth
	}
	rest := C.Diff(X)
	for !rest.IsEmpty() {
		comp := b.component(rest, rest.First())
		rest.DiffInPlace(comp)
		// Interface: bag vertices adjacent to the component.
		iface := hypergraph.NewVertexSet(b.h.NumVertices())
		comp.ForEach(func(v int) bool {
			iface.UnionInPlace(b.adj[v])
			return true
		})
		iface.IntersectInPlace(bag)
		ok, err := b.decompose(comp, iface, id, depth+1, childGuar)
		if !ok || err != nil {
			return ok, err
		}
	}
	return true, nil
}

// separator greedily assembles X ⊆ C from at most m edge traces so that
// every component of C∖X has at most ⌊|C|/2⌋ vertices. Each chosen edge
// is the one meeting the largest surviving component in the most
// vertices, so the loop strictly shrinks it; failure to stay within m
// rejects this budget level (it is not a lower-bound proof — the greedy
// oracle is incomplete).
func (b *builder) separator(C hypergraph.VertexSet) (hypergraph.VertexSet, []int, bool, error) {
	half := C.Count() / 2
	X := hypergraph.NewVertexSet(b.h.NumVertices())
	var edges []int
	for {
		if err := b.ctx.Err(); err != nil {
			return X, nil, false, err
		}
		rest := C.Diff(X)
		var largest hypergraph.VertexSet
		for !rest.IsEmpty() {
			comp := b.component(rest, rest.First())
			rest.DiffInPlace(comp)
			if largest == nil || comp.Count() > largest.Count() {
				largest = comp
			}
		}
		if largest == nil || largest.Count() <= half {
			return X, edges, true, nil
		}
		if len(edges) == b.m {
			return X, nil, false, nil
		}
		bestE, bestGain := -1, 0
		for e := 0; e < b.h.NumEdges(); e++ {
			if g := b.h.Edge(e).IntersectionCount(largest); g > bestGain {
				bestE, bestGain = e, g
			}
		}
		if bestE < 0 {
			return X, nil, false, ErrUncoverable
		}
		X.UnionInPlace(b.h.Edge(bestE).Intersect(C))
		edges = append(edges, bestE)
	}
}

// price turns the raw bag tree into a decomposition, covering every bag
// no worse than its guaranteed ancestor-trace cover: fractional pricing
// solves each bag through one target LP (optimal, hence ≤ the
// guarantee); integral pricing races exact/greedy covers against the
// guarantee and keeps the lighter.
func (b *builder) price(integral bool, st *Stats) (*decomp.Decomp, error) {
	d := decomp.New(b.h)
	var tl *cover.TargetLP
	if !integral {
		tl = cover.NewTargetLP(b.h)
		defer func() { st.LP = tl.Stats() }()
	}
	for i := range b.nodes {
		if err := b.ctx.Err(); err != nil {
			return nil, err
		}
		n := &b.nodes[i]
		cov := guaranteedCover(b.h, n.bag, n.guarEdges)
		if cov == nil {
			return nil, ErrUncoverable
		}
		if integral {
			if better := IntegralCover(b.h, n.bag, exactCoverLimit); better != nil && weightLess(better, cov) {
				cov = better
			}
		} else if w, frac := tl.Solve(n.bag); frac != nil && w.Cmp(cov.Weight()) < 0 {
			cov = frac
		}
		d.AddNode(n.parent, n.bag, cov)
	}
	return d, nil
}

// guaranteedCover keeps the separator-trace edges that still matter for
// the bag, or nil if they fail to cover it (impossible by construction;
// guarded anyway).
func guaranteedCover(h *hypergraph.Hypergraph, bag hypergraph.VertexSet, edges []int) cover.Fractional {
	cov := cover.Fractional{}
	rest := bag.Clone()
	for _, e := range edges {
		if rest.Intersects(h.Edge(e)) {
			rest.DiffInPlace(h.Edge(e))
			cov[e] = lp.RI(1)
		}
	}
	if !rest.IsEmpty() {
		return nil
	}
	return cov
}

// IntegralCover prices a bag with an integral edge cover: exact
// branch-and-bound when the bag has at most exactLimit vertices, greedy
// set cover otherwise. Returns nil when some bag vertex is uncoverable.
func IntegralCover(h *hypergraph.Hypergraph, bag hypergraph.VertexSet, exactLimit int) cover.Fractional {
	var edges []int
	if bag.Count() <= exactLimit {
		edges = cover.EdgeCover(h, bag, 0)
	} else {
		edges = cover.GreedyEdgeCover(h, bag)
	}
	if edges == nil {
		return nil
	}
	cov := cover.Fractional{}
	for _, e := range edges {
		cov[e] = lp.RI(1)
	}
	return cov
}

// weightLess reports weight(a) < weight(b).
func weightLess(a, b cover.Fractional) bool {
	return a.Weight().Cmp(b.Weight()) < 0
}
