package hypergraph

import "fmt"

// TwoColouring returns a 2-colouring of H in which every two-vertex
// edge joins the classes, or ok = false if H has rank > 2 or its primal
// graph has an odd cycle. colour[v] is v's class; each connected
// component's smallest vertex gets class false. Breadth-first search
// over the edge list, O(|V| + |E|).
func (h *Hypergraph) TwoColouring() (colour []bool, ok bool) {
	if h.Rank() > 2 {
		return nil, false
	}
	n := h.NumVertices()
	adj := make([][]int, n)
	for _, s := range h.edges {
		if u, v, two := ends(s); two {
			adj[u] = append(adj[u], v)
			adj[v] = append(adj[v], u)
		}
	}
	colour = make([]bool, n)
	seen := make([]bool, n)
	queue := make([]int, 0, n)
	for root := range n {
		if seen[root] {
			continue
		}
		seen[root] = true
		queue = append(queue[:0], root)
		for i := 0; i < len(queue); i++ {
			u := queue[i]
			for _, v := range adj[u] {
				switch {
				case !seen[v]:
					seen[v], colour[v] = true, !colour[u]
					queue = append(queue, v)
				case colour[v] == colour[u]:
					return nil, false
				}
			}
		}
	}
	return colour, true
}

// CheckTwoColouring verifies a bipartiteness certificate for H: colour
// has one entry per vertex, H has rank ≤ 2, and every two-vertex edge
// joins vertices of different colours (singleton and empty edges
// constrain nothing). Such a colouring makes H's incidence matrix
// totally unimodular (Heller–Tompkins), so every covering LP over H has
// an integral optimum. O(|E|) edge reads.
func CheckTwoColouring(h *Hypergraph, colour []bool) error {
	if len(colour) != h.NumVertices() {
		return fmt.Errorf("hypergraph: colouring has %d entries for %d vertices", len(colour), h.NumVertices())
	}
	for e, s := range h.edges {
		if c := s.Count(); c > 2 {
			return fmt.Errorf("hypergraph: edge %s has %d vertices, want rank ≤ 2", h.edgeNames[e], c)
		}
		if u, v, two := ends(s); two && colour[u] == colour[v] {
			return fmt.Errorf("hypergraph: edge %s joins %s and %s of the same colour",
				h.edgeNames[e], h.vertexNames[u], h.vertexNames[v])
		}
	}
	return nil
}

// ends returns the two smallest vertices of s; two is false when s has
// fewer than two.
func ends(s VertexSet) (u, v int, two bool) {
	u, v = -1, -1
	s.ForEach(func(x int) bool {
		if u < 0 {
			u = x
			return true
		}
		v = x
		return false
	})
	return u, v, v >= 0
}
