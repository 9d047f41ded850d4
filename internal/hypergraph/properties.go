package hypergraph

// Degree returns the degree of H: the maximum number of edges any single
// vertex occurs in (paper, Section 1). The degree of an edgeless
// hypergraph is 0.
func (h *Hypergraph) Degree() int {
	h.ensureIndex()
	d := 0
	for _, iv := range h.inc {
		if c := EdgeSet(iv).Count(); c > d {
			d = c
		}
	}
	return d
}

// Rank returns the rank of H: the maximum edge cardinality.
func (h *Hypergraph) Rank() int {
	r := 0
	for _, s := range h.edges {
		if c := s.Count(); c > r {
			r = c
		}
	}
	return r
}

// IntersectionWidth returns iwidth(H), the maximum cardinality of the
// intersection of two distinct edges (Definition 4.1). H has the i-BIP iff
// IntersectionWidth() ≤ i.
func (h *Hypergraph) IntersectionWidth() int {
	return h.MultiIntersectionWidth(2)
}

// MultiIntersectionWidth returns c-miwidth(H), the maximum cardinality of
// the intersection of c distinct edges (Definition 4.2). For c = 1 it is
// the rank. Computed by branch-and-bound over edge subsets: extending an
// intersection only shrinks it, so branches whose running intersection is
// no larger than the best found are pruned.
func (h *Hypergraph) MultiIntersectionWidth(c int) int {
	if c <= 1 {
		return h.Rank()
	}
	best := 0
	var rec func(next, chosen int, inter VertexSet)
	rec = func(next, chosen int, inter VertexSet) {
		if chosen == c {
			if n := inter.Count(); n > best {
				best = n
			}
			return
		}
		// Even with all remaining choices the intersection cannot grow.
		if inter.Count() <= best && chosen > 0 {
			return
		}
		for e := next; e <= h.NumEdges()-(c-chosen); e++ {
			var ni VertexSet
			if chosen == 0 {
				ni = h.edges[e].Clone()
			} else {
				ni = inter.Intersect(h.edges[e])
			}
			rec(e+1, chosen+1, ni)
		}
	}
	rec(0, 0, nil)
	return best
}

// AdjacencyMatrix returns for each vertex the set of its primal-graph
// neighbours (excluding itself).
func (h *Hypergraph) AdjacencyMatrix() []VertexSet {
	adj := make([]VertexSet, h.NumVertices())
	for v := range adj {
		adj[v] = NewVertexSet(h.NumVertices())
	}
	for _, s := range h.edges {
		vs := s.Vertices()
		for _, u := range vs {
			for _, v := range vs {
				if u != v {
					adj[u].Add(v)
				}
			}
		}
	}
	return adj
}

// Dual returns the dual hypergraph H^d: one vertex per edge of H and, for
// each vertex v of H, the edge {e ∈ E(H) | v ∈ e} (Section 6.2). Duplicate
// dual edges arising from vertices of the same edge-type are kept once, as
// in the reduced hypergraph the paper works with.
func (h *Hypergraph) Dual() *Hypergraph {
	d := New()
	for e := 0; e < h.NumEdges(); e++ {
		d.Vertex(h.edgeNames[e])
	}
	h.ensureIndex()
	var seen Interner
	for v := 0; v < h.NumVertices(); v++ {
		s := VertexSet(h.IncidentEdges(v))
		if s.IsEmpty() {
			continue
		}
		if _, _, isNew := seen.Intern(s); !isNew {
			continue
		}
		d.AddEdgeSet(h.vertexNames[v], s)
	}
	return d
}

// Reduce returns the reduced hypergraph H⁻ (Section 5, assumptions (3) and
// (4)): groups of vertices with identical edge-type are fused to a single
// representative, and duplicate edges are dropped. The second return value
// maps old vertex index → representative vertex index.
func (h *Hypergraph) Reduce() (*Hypergraph, []int) {
	var types Interner // edge-type (incidence set) -> dense id
	var reps []int     // dense id -> representative vertex in r
	rep := make([]int, h.NumVertices())
	r := New()
	h.ensureIndex()
	for v := 0; v < h.NumVertices(); v++ {
		id, _, isNew := types.Intern(VertexSet(h.IncidentEdges(v)))
		if !isNew {
			rep[v] = reps[id]
			continue
		}
		u := r.Vertex(h.vertexNames[v])
		reps = append(reps, u) // ids are dense: id == len(reps)-1
		rep[v] = u
	}
	var seenEdges Interner
	for e, s := range h.edges {
		t := NewVertexSet(r.NumVertices())
		s.ForEach(func(v int) bool {
			t.Add(rep[v])
			return true
		})
		if _, _, isNew := seenEdges.Intern(t); !isNew {
			continue
		}
		r.AddEdgeSet(h.edgeNames[e], t)
	}
	return r, rep
}

// IsAcyclic reports whether H is α-acyclic, decided by the GYO reduction:
// repeatedly remove vertices occurring in at most one edge and edges
// contained in other edges; H is acyclic iff everything vanishes.
func (h *Hypergraph) IsAcyclic() bool {
	edges := make([]VertexSet, 0, len(h.edges))
	for _, s := range h.edges {
		if !s.IsEmpty() {
			edges = append(edges, s.Clone())
		}
	}
	for changed := true; changed; {
		changed = false
		// Remove isolated vertices (in ≤ 1 edge).
		counts := map[int]int{}
		for _, s := range edges {
			s.ForEach(func(v int) bool {
				counts[v]++
				return true
			})
		}
		for i, s := range edges {
			t := s.Clone()
			s.ForEach(func(v int) bool {
				if counts[v] <= 1 {
					t = t.Without(v)
					changed = true
				}
				return true
			})
			edges[i] = t
		}
		// Remove edges contained in another edge (and empty edges).
		var kept []VertexSet
		for i, s := range edges {
			dominated := s.IsEmpty()
			if !dominated {
				for j, t := range edges {
					if i == j {
						continue
					}
					if s.IsSubsetOf(t) && (!t.IsSubsetOf(s) || j < i) {
						dominated = true
						break
					}
				}
			}
			if dominated {
				changed = true
			} else {
				kept = append(kept, s)
			}
		}
		edges = kept
	}
	return len(edges) == 0
}
