package core

import (
	"fmt"
	"math/big"
	"sort"

	"hypertree/internal/cover"
	"hypertree/internal/decomp"
	"hypertree/internal/hypergraph"
	"hypertree/internal/lp"
)

// MinFillFHD computes a fractional hypertree decomposition heuristically:
// a tree decomposition from the min-fill elimination ordering of the
// primal graph, with each bag covered optimally by an exact LP. The
// result is an upper bound on fhw(H) computable for large hypergraphs —
// the practical baseline the paper's approximation guarantees are
// measured against.
func MinFillFHD(h *hypergraph.Hypergraph) (*big.Rat, *decomp.Decomp) {
	d := eliminationDecomp(h, minFillOrder(h, nil), false, nil)
	if d == nil {
		return nil, nil
	}
	return d.Width(), d
}

// MinFillGHD is MinFillFHD with exact integral covers per bag, yielding a
// GHD and an upper bound on ghw(H).
func MinFillGHD(h *hypergraph.Hypergraph) (int, *decomp.Decomp) {
	d := eliminationDecomp(h, minFillOrder(h, nil), true, nil)
	if d == nil {
		return -1, nil
	}
	w := d.Width()
	return int(w.Num().Int64()), d
}

// minFillOrder returns the min-fill elimination ordering of h's primal
// graph. A non-nil done channel is polled once per eliminated vertex
// and unwinds with the canceled sentinel when it fires (see cancel.go).
func minFillOrder(h *hypergraph.Hypergraph, done <-chan struct{}) []int {
	order := decomp.MinFillOrder(h.AdjacencyMatrix(), done)
	if order == nil {
		panic(canceled{})
	}
	return order
}

// eliminationDecomp builds the tree decomposition induced by an
// elimination ordering and covers each bag (integrally or fractionally,
// always exactly). It returns nil when some bag has no cover. A non-nil
// done channel is polled once per bag cover (see cancel.go).
func eliminationDecomp(h *hypergraph.Hypergraph, order []int, integral bool, done <-chan struct{}) *decomp.Decomp {
	n := h.NumVertices()
	if n == 0 || h.NumEdges() == 0 {
		return nil
	}
	bags := decomp.EliminationBags(h.AdjacencyMatrix(), order)
	covers := make([]cover.Fractional, n)
	for i := n - 1; i >= 0; i-- {
		if done != nil {
			pollCancel(done)
		}
		if integral {
			covers[i] = cover.IntegralCover(h, bags[i], n)
		} else {
			_, covers[i] = cover.FractionalEdgeCover(h, bags[i])
		}
		if covers[i] == nil {
			return nil
		}
	}
	return decomp.FromElimination(h, bags, decomp.EliminationParents(order, bags), covers)
}

// IntegralizeCovers implements the approximation step of Theorem 6.23:
// given an FHD, replace each node's fractional cover by an integral edge
// cover of the same bag (cover.IntegralCover: exact branch-and-bound for
// bags of at most exactBagLimit vertices, greedy set cover otherwise, so
// a limit of 0 is always greedy), producing a GHD of width
// ≤ max_u ρ(Bu) ≤ O(log(ρ*)·2^{vc+2}) · width(F) for bounded
// VC-dimension / BMIP classes. It returns nil when some bag has no
// integral cover.
func IntegralizeCovers(d *decomp.Decomp, exactBagLimit int) *decomp.Decomp {
	out := d.Clone()
	for u := range out.Nodes {
		cov := cover.IntegralCover(d.H, out.Nodes[u].Bag, exactBagLimit)
		if cov == nil {
			return nil
		}
		out.Nodes[u].Cover = cov
	}
	return out
}

// BoundFractionalPart implements the transformation of Lemma 6.4: given
// an FHD F of width ≤ k of a hypergraph with iwidth(H) ≤ i, it rounds the
// "big heavy" edges (weight ≥ 1/2 and ≥ d = 2k²i/ε covered vertices) of
// every node cover up to weight 1. The result has width ≤ k + ε and
// c-bounded fractional part for c = 2ik² + 4k³i/ε.
//
// k is taken as the current width of d; eps must be positive.
func BoundFractionalPart(d *decomp.Decomp, eps *big.Rat) *decomp.Decomp {
	out := d.Clone()
	k := d.Width()
	i := lp.RI(int64(d.H.IntersectionWidth()))
	// Threshold d = 2k²i/ε on |e ∩ B(γu)|.
	thr := new(big.Rat).Mul(lp.RI(2), new(big.Rat).Mul(k, k))
	thr.Mul(thr, i)
	thr.Quo(thr, eps)
	half := lp.R(1, 2)
	one := lp.RI(1)
	for u := range out.Nodes {
		covered := out.CoveredSet(u)
		for e, w := range out.Nodes[u].Cover {
			if w.Cmp(half) < 0 || w.Cmp(one) >= 0 {
				continue
			}
			sz := lp.RI(int64(d.H.Edge(e).Intersect(covered).Count()))
			if sz.Cmp(thr) >= 0 {
				out.Nodes[u].Cover[e] = lp.RI(1) // big heavy edge: round up
			}
		}
	}
	return out
}

// FracPartBound returns the c of Lemma 6.4 for parameters k, i, ε:
// c = 2ik² + 4k³i/ε.
func FracPartBound(k, eps *big.Rat, i int) *big.Rat {
	ir := lp.RI(int64(i))
	k2 := new(big.Rat).Mul(k, k)
	a := new(big.Rat).Mul(lp.RI(2), new(big.Rat).Mul(ir, k2))
	b := new(big.Rat).Mul(lp.RI(4), new(big.Rat).Mul(k2, k))
	b.Mul(b, ir)
	b.Quo(b, eps)
	return a.Add(a, b)
}

// RepairWeakSCVs implements the transformation in the proof of Lemma 6.5:
// it eliminates violations of the weak special condition (Definition 6.3)
// from an FHD by either extending bags along critical paths (Case 1) or
// replacing a weight-1 edge e by the subedge e ∩ Bu (Case 2). Subedges
// are added to the hypergraph on demand (the lemma's function f_{(c,i,k)}
// pre-computes them; adding them lazily is equivalent and keeps the
// hypergraph small). It returns the repaired FHD over the augmented
// hypergraph together with the augmentation.
func RepairWeakSCVs(d *decomp.Decomp) (*decomp.Decomp, *Augmented, error) {
	aug := Augment(d.H, nil)
	out := d.Clone()
	out.H = aug.H
	one := lp.RI(1)
	for round := 0; ; round++ {
		if round > 10000 {
			return nil, nil, fmt.Errorf("core: weak-SCV repair did not converge")
		}
		u, e, x := findWeakSCV(out, one)
		if u < 0 {
			return out, aug, nil
		}
		// Find u*: the node closest to u covering e, and the path π.
		path, err := CriticalPath(out, u, e)
		if err != nil {
			return nil, nil, err
		}
		// Case 1: every node on π after u contains x → add x to Bu.
		allContain := true
		for _, n := range path[1:] {
			if !out.Nodes[n].Bag.Has(x) {
				allContain = false
				break
			}
		}
		if allContain {
			out.Nodes[u].Bag.Add(x)
			continue
		}
		// Case 2: replace e in γu by e' = e ∩ Bu.
		sub := aug.H.Edge(e).Intersect(out.Nodes[u].Bag)
		id := findOrAddSubedge(aug, sub)
		w := out.Nodes[u].Cover[e]
		delete(out.Nodes[u].Cover, e)
		if out.Nodes[u].Cover[id] == nil {
			out.Nodes[u].Cover[id] = new(big.Rat)
		}
		out.Nodes[u].Cover[id].Add(out.Nodes[u].Cover[id], w)
		if out.Nodes[u].Cover[id].Cmp(one) > 0 {
			out.Nodes[u].Cover[id] = lp.RI(1)
		}
	}
}

// findWeakSCV returns a weak special-condition violation (u, e, x) with
// no violation strictly below u, or (-1,-1,-1).
func findWeakSCV(d *decomp.Decomp, one *big.Rat) (int, int, int) {
	// Post-order traversal finds deepest violations first.
	var result = []int{-1, -1, -1}
	var rec func(u int) bool
	rec = func(u int) bool {
		for _, c := range d.Nodes[u].Children {
			if rec(c) {
				return true
			}
		}
		vtu := d.SubtreeVertices(u)
		for e, w := range d.Nodes[u].Cover {
			if w.Cmp(one) != 0 {
				continue
			}
			bad := d.H.Edge(e).Intersect(vtu).Diff(d.Nodes[u].Bag)
			if !bad.IsEmpty() {
				result = []int{u, e, bad.First()}
				return true
			}
		}
		return false
	}
	if rec(d.Root) {
		return result[0], result[1], result[2]
	}
	return -1, -1, -1
}

// findOrAddSubedge returns the index of sub in aug.H, adding it (with
// originator tracking) if absent.
func findOrAddSubedge(aug *Augmented, sub hypergraph.VertexSet) int {
	for e := 0; e < aug.H.NumEdges(); e++ {
		if aug.H.Edge(e).Equal(sub) {
			return e
		}
	}
	orig := 0
	for e := 0; e < aug.Orig.NumEdges(); e++ {
		if sub.IsSubsetOf(aug.Orig.Edge(e)) {
			orig = e
			break
		}
	}
	id := aug.H.AddEdgeSet(fmt.Sprintf("sub%d", aug.H.NumEdges()), sub)
	for len(aug.Origin) <= id {
		aug.Origin = append(aug.Origin, orig)
	}
	aug.Origin[id] = orig
	return id
}

// SubedgesUpTo computes the subedge function f_{(c,i,k)} of Lemma 6.5:
// all subedges of edges of H with at most k·i+c vertices. sizeLimit is
// k·i+c; maxSets caps the output.
func SubedgesUpTo(h *hypergraph.Hypergraph, sizeLimit, maxSets int) ([]hypergraph.VertexSet, error) {
	var seen hypergraph.Interner
	var out []hypergraph.VertexSet
	var add func(s hypergraph.VertexSet) error
	add = func(s hypergraph.VertexSet) error {
		if s.IsEmpty() {
			return nil
		}
		_, canon, isNew := seen.Intern(s)
		if !isNew {
			return nil
		}
		out = append(out, canon)
		if maxSets > 0 && len(out) > maxSets {
			return fmt.Errorf("core: bounded subedge closure exceeds %d sets", maxSets)
		}
		return nil
	}
	for e := 0; e < h.NumEdges(); e++ {
		vs := h.Edge(e).Vertices()
		// Enumerate subsets of size ≤ sizeLimit.
		var rec func(start int, cur []int) error
		rec = func(start int, cur []int) error {
			if len(cur) > 0 {
				s := hypergraph.NewVertexSet(h.NumVertices())
				for _, v := range cur {
					s.Add(v)
				}
				if err := add(s); err != nil {
					return err
				}
			}
			if len(cur) == sizeLimit {
				return nil
			}
			for i := start; i < len(vs); i++ {
				if err := rec(i+1, append(cur, vs[i])); err != nil {
					return err
				}
			}
			return nil
		}
		if err := rec(0, nil); err != nil {
			return nil, err
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key() < out[j].Key() })
	return out, nil
}
