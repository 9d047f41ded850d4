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
// vertex (a cut vertex of the primal graph), so the glue step is: re-root
// the incoming tree at a node whose bag contains the shared vertex and
// attach it under an already-placed node whose bag also contains it. The
// connectedness condition (2) survives because the shared vertex's nodes
// in both trees are subtrees that become adjacent, and no other vertex
// occurs on both sides. Conditions (1) and (3) are per-node and per-edge,
// so they survive trivially; the special condition (4) survives because
// the only vertex of the grafted subtree that occurs in the host's
// λ-labels is the shared one, and it already lay in the host's subtree
// at the attachment point.

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
// into one decomposition of h. Parts are placed in connectivity order:
// each new part that shares a vertex with the already-placed forest is
// re-rooted at a node whose bag contains that vertex and grafted under a
// placed node containing it; parts sharing nothing (separate connected
// components) are grafted under the current root. For parts arising from
// a block decomposition (pairwise sharing at most one cut vertex) the
// result satisfies every condition the parts satisfy — TD, FHD, GHD and
// HD alike — and its width is the maximum of the part widths.
func Combine(h *hypergraph.Hypergraph, parts []Part) (*Decomp, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("decomp: Combine needs at least one part")
	}
	for i, p := range parts {
		if p.D == nil || p.D.Root < 0 || len(p.D.Nodes) == 0 {
			return nil, fmt.Errorf("decomp: Combine part %d is empty", i)
		}
	}
	n := h.NumVertices()
	d := New(h)
	// home[v] is the first placed node whose bag contains host vertex v,
	// or -1: the attachment point for a later part sharing v.
	home := make([]int, n)
	for v := range home {
		home[v] = -1
	}
	placed := make([]bool, len(parts))
	for remaining := len(parts); remaining > 0; remaining-- {
		// Pick the next part: prefer one sharing a vertex with the
		// placed forest, so chains of blocks attach in block-cut-tree
		// order regardless of input order.
		pick, at, shared := -1, -1, -1
		for i, p := range parts {
			if placed[i] {
				continue
			}
			if d.Root >= 0 {
				if u, v := p.sharedVertex(home); v >= 0 {
					pick, at, shared = i, u, v
					break
				}
			}
			if pick < 0 {
				pick = i
			}
		}
		placed[pick] = true
		graft(d, parts[pick], at, shared, home)
	}
	return d, nil
}

// sharedVertex returns the first of the part's nodes whose bag meets a
// placed bag, with the least host vertex they share, or -1, -1.
func (p Part) sharedVertex(home []int) (node, shared int) {
	for u := range p.D.Nodes {
		shared = -1
		p.D.Nodes[u].Bag.ForEach(func(v int) bool {
			if p.VertexMap != nil {
				v = p.VertexMap[v]
			}
			if home[v] >= 0 && (shared < 0 || v < shared) {
				shared = v
			}
			return true
		})
		if shared >= 0 {
			return u, shared
		}
	}
	return -1, -1
}

// graft adds all nodes of part to d. If shared >= 0, the part is
// re-rooted at its node at, the first whose bag contains shared, and
// attached under home[shared], the first placed node containing it;
// otherwise it is attached under the current root (or becomes the
// root). home is extended with the part's bags.
func graft(d *Decomp, part Part, at, shared int, home []int) {
	n := d.H.NumVertices()
	t := part.D
	parent := -1
	if shared >= 0 {
		if at != t.Root {
			t = t.Clone()
			t.RootAt(at)
		}
		parent = home[shared]
	} else if d.Root >= 0 {
		parent = d.Root
	}
	// Pre-order copy, translating bags and covers.
	var rec func(u, under int)
	rec = func(u, under int) {
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
			rec(c, id)
		}
	}
	rec(t.Root, parent)
}
