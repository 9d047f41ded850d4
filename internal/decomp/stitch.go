package decomp

import (
	"fmt"

	"hypertree/internal/cover"
	"hypertree/internal/hypergraph"
)

// Stitching: recombining per-component decompositions into one witness.
//
// The solve pipeline splits a hypergraph on the biconnected components
// (blocks) of its primal graph, decomposes each block independently, and
// glues the per-block trees back together. Two blocks share at most one
// vertex (a cut vertex of the primal graph), and the split hands them
// over parent-first in the block-cut forest: each block meets the blocks
// before it in at most one vertex. So the glue step places the parts in
// the order given: copy the incoming tree starting from a node whose bag
// contains the shared vertex, walking its tree edges in both directions
// (which re-roots it there), and attach that node under an
// already-placed node whose bag also contains the vertex. The
// connectedness condition (2) survives because the shared vertex's
// nodes in both trees are subtrees that become adjacent, and no other
// vertex occurs on both sides. Conditions (1) and (3) are per-node and
// per-edge, so they survive trivially. The special condition (4)
// survives when each part keeps its own root — a part sharing no vertex
// (a separate connected component) always does — because the only
// vertex of the grafted subtree that occurs in the host's λ-labels is
// the shared one, and it already lay in the host's subtree at the
// attachment point; re-rooting an HD elsewhere may break it.
//
// A part that meets the placed parts in two or more vertices came out
// of order: no single attachment keeps both vertices connected, so
// Combine returns an error rather than an invalid witness.

// Part is one piece of a stitched decomposition: a decomposition of a
// sub-hypergraph of the host hypergraph, together with the maps from the
// sub-hypergraph's vertex/edge indices back to the host's (as produced
// by Hypergraph.ExtractEdges). A nil map means indices coincide.
type Part struct {
	D         *Decomp
	VertexMap []int // part vertex index → host vertex index
	EdgeMap   []int // part edge index → host edge index
}

// hostBag translates a part-local bag into the host universe.
func (p Part) hostBag(n int, bag hypergraph.VertexSet) hypergraph.VertexSet {
	if p.VertexMap == nil {
		return bag.Clone()
	}
	s := hypergraph.NewVertexSet(n)
	bag.ForEach(func(v int) bool {
		s.Add(p.VertexMap[v])
		return true
	})
	return s
}

// hostCover translates a part-local cover into host edge indices.
func (p Part) hostCover(c cover.Fractional) cover.Fractional {
	if p.EdgeMap == nil {
		return c
	}
	t := make(cover.Fractional, len(c))
	for e, w := range c {
		t[p.EdgeMap[e]] = w
	}
	return t
}

// Combine stitches decompositions of edge-disjoint sub-hypergraphs of h
// into one decomposition of h, placing the parts in the order given.
// Each part must meet the parts before it in at most one host vertex,
// as the blocks of a block decomposition do when listed parent-first in
// the block-cut forest. A part sharing vertex v is copied from its first
// node whose bag contains v and attached under the first placed node
// containing v; a part sharing nothing (a separate connected component)
// is attached under the current root. A part meeting the earlier parts
// in two or more vertices is an error. The result satisfies every
// condition the parts satisfy — TD, FHD and GHD alike, and HD when no
// part is attached away from its root — and its width is the maximum of
// the part widths.
func Combine(h *hypergraph.Hypergraph, parts []Part) (*Decomp, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("decomp: Combine needs at least one part")
	}
	for i, p := range parts {
		if p.D == nil || p.D.Root < 0 || len(p.D.Nodes) == 0 {
			return nil, fmt.Errorf("decomp: Combine part %d is empty", i)
		}
	}
	d := New(h)
	// home[v] is the first placed node whose bag contains host vertex v,
	// or -1: the attachment point for a later part sharing v.
	home := make([]int, h.NumVertices())
	for v := range home {
		home[v] = -1
	}
	for i, p := range parts {
		at, shared, err := p.sharedVertex(home)
		if err != nil {
			return nil, fmt.Errorf("decomp: Combine part %d: %w", i, err)
		}
		under := d.Root
		if shared >= 0 {
			under = home[shared]
		}
		graft(d, p, at, under, home)
	}
	return d, nil
}

// sharedVertex returns the part's first node whose bag holds a placed
// host vertex, with that vertex, or the part's root and -1 when it meets
// no placed bag. It is an error for the part to meet the placed bags in
// two or more vertices.
func (p Part) sharedVertex(home []int) (node, shared int, err error) {
	node, shared = p.D.Root, -1
	for u := range p.D.Nodes {
		p.D.Nodes[u].Bag.ForEach(func(v int) bool {
			if p.VertexMap != nil {
				v = p.VertexMap[v]
			}
			switch {
			case home[v] < 0 || v == shared:
			case shared < 0:
				node, shared = u, v
			default:
				err = fmt.Errorf("meets the parts before it in vertices %d and %d; parts must come parent-first",
					min(v, shared), max(v, shared))
				return false
			}
			return true
		})
		if err != nil {
			return -1, -1, err
		}
	}
	return node, shared, nil
}

// graft adds all nodes of part to d: a copy of the part's tree that
// starts at its node at, attached under the placed node under (-1 makes
// it the root), and walks tree edges in both directions, so the copy is
// rooted at at. home is extended with the part's bags.
func graft(d *Decomp, part Part, at, under int, home []int) {
	n := d.H.NumVertices()
	t := part.D
	var rec func(u, from, under int)
	rec = func(u, from, under int) {
		node := &t.Nodes[u]
		bag := part.hostBag(n, node.Bag)
		id := d.AddNode(under, bag, part.hostCover(node.Cover))
		bag.ForEach(func(v int) bool {
			if home[v] < 0 {
				home[v] = id
			}
			return true
		})
		for _, c := range node.Children {
			if c != from {
				rec(c, u, id)
			}
		}
		if node.Parent >= 0 && node.Parent != from {
			rec(node.Parent, u, id)
		}
	}
	rec(at, -1, under)
}
