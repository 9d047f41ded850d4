package approx

// improve.go — anytime local improvement of an existing decomposition.
// Three monotone passes run to a fixpoint: redundant-vertex pruning,
// bag re-pricing through a target LP (or exact/greedy integral
// covers), and critical-bag splitting along a local min-fill order with
// the neighbor interfaces forced as cliques. Every accepted step keeps
// the decomposition valid for its kind and never increases the width,
// so the passes are safe to run concurrently with (and publish into) a
// portfolio race. Not HD-safe: pruning and re-covering can break the
// special condition, so callers improve GHDs and FHDs only.

import (
	"context"
	"math/big"

	"hypertree/internal/cover"
	"hypertree/internal/decomp"
	"hypertree/internal/hypergraph"
)

// ImproveOptions configure one Improve run.
type ImproveOptions struct {
	// Integral re-prices with integral covers only, preserving GHDs;
	// the default prices fractionally (preserves FHDs).
	Integral bool
	// MaxPasses caps the sweep count (0 = until fixpoint, with a
	// defensive internal bound).
	MaxPasses int
	// OnImprove, when set, receives a private snapshot after every pass
	// that strictly reduced the overall width — the anytime hook the
	// portfolio publishes incumbents through.
	OnImprove func(*decomp.Decomp)
}

// ImproveStats reports what one Improve run did.
type ImproveStats struct {
	Passes   int // sweeps executed
	Pruned   int // vertices removed from bags
	Repriced int // bags whose cover got strictly lighter
	Splits   int // critical bags re-decomposed locally
	// LP counts the fractional re-pricing LP's solves by path (zero when
	// Integral).
	LP cover.LPStats
}

// defaultMaxPasses is the defensive bound on sweeps; every sweep must
// make strict progress, so real runs reach their fixpoint far earlier.
const defaultMaxPasses = 64

// Improve returns a decomposition of width ≤ d.Width() (d is never
// mutated). On cancellation the best incumbent so far is returned
// together with ctx.Err() — it is still valid, just possibly
// unimproved.
func Improve(ctx context.Context, h *hypergraph.Hypergraph, d *decomp.Decomp, opt ImproveOptions) (*decomp.Decomp, *ImproveStats, error) {
	st := &ImproveStats{}
	out := d.Clone()
	maxPasses := opt.MaxPasses
	if maxPasses <= 0 {
		maxPasses = defaultMaxPasses
	}
	var tl *cover.TargetLP
	if !opt.Integral {
		tl = cover.NewTargetLP(h)
		defer func() { st.LP = tl.Stats() }()
	}
	imp := &improver{h: h, opt: opt, tl: tl, st: st}
	for pass := 0; pass < maxPasses; pass++ {
		if err := ctx.Err(); err != nil {
			return out, st, err
		}
		st.Passes++
		before := out.Width()
		changed := imp.prune(out)
		changed = imp.reprice(ctx, out) || changed
		next, split := imp.trySplit(ctx, out)
		if split {
			out = next
			changed = true
		}
		if opt.OnImprove != nil && out.Width().Cmp(before) < 0 {
			opt.OnImprove(out.Clone())
		}
		if !changed {
			break
		}
	}
	return out, st, nil
}

// improver bundles the pass state.
type improver struct {
	h   *hypergraph.Hypergraph
	opt ImproveOptions
	tl  *cover.TargetLP
	st  *ImproveStats
}

// prune removes bag vertices whose removal provably preserves validity:
// the node must be a leaf of the vertex's occurrence subtree (so
// condition (2) survives) and no edge through the vertex may be
// contained in this bag alone (so condition (1) survives). Shrinking a
// bag keeps its cover feasible; re-pricing later collects the gain.
func (im *improver) prune(d *decomp.Decomp) bool {
	changed := false
	for u := range d.Nodes {
		bag := d.Nodes[u].Bag
		for _, v := range bag.Vertices() {
			withV := 0
			for _, w := range treeNeighbors(d, u) {
				if d.Nodes[w].Bag.Has(v) {
					withV++
				}
			}
			// withV == 0 means u is the sole occurrence: v must stay in
			// some bag; > 1 means u is interior to v's subtree.
			if withV != 1 {
				continue
			}
			pinned := false
			for _, e := range im.h.EdgesWithVertex(v) {
				if im.h.Edge(e).IsSubsetOf(bag) && !coveredElsewhere(d, e, u) {
					pinned = true
					break
				}
			}
			if pinned {
				continue
			}
			bag.Remove(v)
			im.st.Pruned++
			changed = true
		}
	}
	return changed
}

// reprice replaces every bag's cover that the pricer can strictly
// lighten.
func (im *improver) reprice(ctx context.Context, d *decomp.Decomp) bool {
	changed := false
	for u := range d.Nodes {
		if ctx.Err() != nil {
			return changed
		}
		if cov, w := im.priceBag(d.Nodes[u].Bag, d.Nodes[u].Cover.Weight()); cov != nil && w != nil {
			d.Nodes[u].Cover = cov
			im.st.Repriced++
			changed = true
		}
	}
	return changed
}

// priceBag returns a cover of bag strictly lighter than budget, or
// (nil, nil) when the pricer cannot beat it.
func (im *improver) priceBag(bag hypergraph.VertexSet, budget *big.Rat) (cover.Fractional, *big.Rat) {
	if im.opt.Integral {
		cov := cover.IntegralCover(im.h, bag, exactCoverLimit)
		if cov == nil {
			return nil, nil
		}
		if w := cov.Weight(); w.Cmp(budget) < 0 {
			return cov, w
		}
		return nil, nil
	}
	w, cov := im.tl.Solve(bag)
	if cov == nil || w.Cmp(budget) >= 0 {
		return nil, nil
	}
	return cov, w
}

// trySplit re-decomposes the widest bag locally: its primal structure
// (edges pinned to it plus the interfaces to every tree neighbor, each
// forced as a clique) is eliminated along a min-fill order, and the
// resulting subtree replaces the node when every new bag prices
// strictly below the old weight. Neighbors re-attach at a local bag
// containing their interface clique, which keeps conditions (1)–(3)
// intact (see the reattachment argument below).
func (im *improver) trySplit(ctx context.Context, d *decomp.Decomp) (*decomp.Decomp, bool) {
	u, critW := criticalNode(d)
	if u < 0 || d.Nodes[u].Bag.Count() < 2 || ctx.Err() != nil {
		return d, false
	}
	B := d.Nodes[u].Bag
	verts := B.Vertices()
	li := make(map[int]int, len(verts))
	for i, v := range verts {
		li[v] = i
	}
	ladj := make([]hypergraph.VertexSet, len(verts))
	for i := range ladj {
		ladj[i] = hypergraph.NewVertexSet(len(verts))
	}
	addClique := func(gs hypergraph.VertexSet) {
		vs := gs.Vertices()
		for i := 0; i < len(vs); i++ {
			for j := i + 1; j < len(vs); j++ {
				a, b := li[vs[i]], li[vs[j]]
				ladj[a].Add(b)
				ladj[b].Add(a)
			}
		}
	}
	// Edges only this bag covers must stay locally coverable.
	for e := 0; e < im.h.NumEdges(); e++ {
		if im.h.Edge(e).IsSubsetOf(B) && !coveredElsewhere(d, e, u) {
			addClique(im.h.Edge(e))
		}
	}
	// Neighbor interfaces: each must land inside one local bag so the
	// neighbor subtree can re-attach there — for every vertex shared
	// with a neighbor, its local occurrences form a subtree touching
	// that attachment bag, so condition (2) survives the splice.
	nbrs := treeNeighbors(d, u)
	ifaces := make([]hypergraph.VertexSet, len(nbrs))
	for i, w := range nbrs {
		ifaces[i] = B.Intersect(d.Nodes[w].Bag)
		addClique(ifaces[i])
	}

	order := decomp.MinFillOrder(ladj, nil)
	lbags := decomp.EliminationBags(ladj, order)
	lparents := decomp.EliminationParents(order, lbags)
	covs := make([]cover.Fractional, len(lbags))
	gbags := make([]hypergraph.VertexSet, len(lbags))
	for i, lb := range lbags {
		gb := hypergraph.NewVertexSet(im.h.NumVertices())
		lb.ForEach(func(lv int) bool {
			gb.Add(verts[lv])
			return true
		})
		gbags[i] = gb
		cov, _ := im.priceBag(gb, critW)
		if cov == nil {
			return d, false // some local bag prices at ≥ the old weight
		}
		covs[i] = cov
	}

	// Attachment bags: the local root hosts the parent interface; each
	// child re-attaches at a bag containing its interface. A clique is
	// always contained in some elimination bag, so these scans succeed.
	attach := make([]int, len(nbrs))
	localRoot := 0
	for i, w := range nbrs {
		at := containingBag(gbags, ifaces[i])
		if at < 0 {
			return d, false
		}
		attach[i] = at
		if w == d.Nodes[u].Parent {
			localRoot = at
		}
	}
	lparents = rerootTree(lparents, localRoot)

	// Splice: rebuild the tree with u replaced by the local subtree.
	out := decomp.New(im.h)
	ids := make([]int, len(lbags))
	var addLocal func(l, parent int)
	addLocal = func(l, parent int) {
		ids[l] = out.AddNode(parent, gbags[l], covs[l])
		for c, p := range lparents {
			if p == l {
				addLocal(c, ids[l])
			}
		}
	}
	var build func(old, parent int)
	build = func(old, parent int) {
		if old == u {
			addLocal(localRoot, parent)
			for i, w := range nbrs {
				if w != d.Nodes[u].Parent {
					build(w, ids[attach[i]])
				}
			}
			return
		}
		id := out.AddNode(parent, d.Nodes[old].Bag, d.Nodes[old].Cover)
		for _, c := range d.Nodes[old].Children {
			build(c, id)
		}
	}
	build(d.Root, -1)
	im.st.Splits++
	return out, true
}

// criticalNode returns the index and weight of the widest node.
func criticalNode(d *decomp.Decomp) (int, *big.Rat) {
	best, w := -1, new(big.Rat)
	for u := range d.Nodes {
		if nw := d.Nodes[u].Cover.Weight(); nw.Cmp(w) > 0 {
			best, w = u, nw
		}
	}
	return best, w
}

// treeNeighbors returns u's parent (if any) followed by its children.
func treeNeighbors(d *decomp.Decomp, u int) []int {
	var ns []int
	if p := d.Nodes[u].Parent; p >= 0 {
		ns = append(ns, p)
	}
	return append(ns, d.Nodes[u].Children...)
}

// coveredElsewhere reports whether some node other than u contains edge
// e entirely.
func coveredElsewhere(d *decomp.Decomp, e, u int) bool {
	s := d.H.Edge(e)
	for w := range d.Nodes {
		if w != u && s.IsSubsetOf(d.Nodes[w].Bag) {
			return true
		}
	}
	return false
}

// containingBag returns the first bag containing s, or -1.
func containingBag(bags []hypergraph.VertexSet, s hypergraph.VertexSet) int {
	for i, b := range bags {
		if s.IsSubsetOf(b) {
			return i
		}
	}
	return -1
}

// rerootTree re-roots a parent-link tree at r.
func rerootTree(parents []int, r int) []int {
	n := len(parents)
	adj := make([][]int, n)
	for c, p := range parents {
		if p >= 0 {
			adj[c] = append(adj[c], p)
			adj[p] = append(adj[p], c)
		}
	}
	out := make([]int, n)
	for i := range out {
		out[i] = -1
	}
	seen := make([]bool, n)
	seen[r] = true
	queue := []int{r}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range adj[v] {
			if !seen[w] {
				seen[w] = true
				out[w] = v
				queue = append(queue, w)
			}
		}
	}
	return out
}
