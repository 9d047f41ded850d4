package decomp

import (
	"hypertree/internal/cover"
	"hypertree/internal/hypergraph"
)

// elimination.go — the tree decomposition of an elimination ordering.
// Eliminating the vertices of a graph one at a time, and connecting the
// remaining neighbours of each eliminated vertex into a clique (the
// fill-in), yields one bag per vertex: the vertex together with its
// neighbours that are eliminated later. Linking every bag to the bag of
// its earliest later-eliminated member gives a tree decomposition of the
// graph; covering the bags turns it into a GHD or FHD of the hypergraph
// whose primal graph it is. Every ordering-based producer — min-fill,
// the exact DP, the SAT ordering encoding and local improvement — builds
// its witness from these helpers. Orders, bags, parents and covers are
// all indexed by elimination position.

// MinFillOrder returns an elimination ordering of the graph with
// adjacency sets adj, chosen greedily by minimum fill-in (ties go to the
// smallest vertex). adj is not modified. A non-nil done channel is
// polled once per eliminated vertex; the result is nil when it fires.
func MinFillOrder(adj []hypergraph.VertexSet, done <-chan struct{}) []int {
	n := len(adj)
	work := cloneAdj(adj)
	eliminated := hypergraph.NewVertexSet(n)
	order := make([]int, 0, n)
	for len(order) < n {
		if done != nil {
			select {
			case <-done:
				return nil
			default:
			}
		}
		bestV, bestFill := -1, int(^uint(0)>>1)
		for v := 0; v < n; v++ {
			if eliminated.Has(v) {
				continue
			}
			nb := work[v].Diff(eliminated).Vertices()
			fill := 0
			for i := 0; i < len(nb); i++ {
				for j := i + 1; j < len(nb); j++ {
					if !work[nb[i]].Has(nb[j]) {
						fill++
					}
				}
			}
			if fill < bestFill {
				bestV, bestFill = v, fill
			}
		}
		eliminate(work, eliminated, bestV)
		order = append(order, bestV)
	}
	return order
}

// EliminationBags returns the bags of eliminating the graph with
// adjacency sets adj along order: bags[i] is order[i] together with its
// fill-graph neighbours eliminated after it. adj is not modified.
func EliminationBags(adj []hypergraph.VertexSet, order []int) []hypergraph.VertexSet {
	work := cloneAdj(adj)
	eliminated := hypergraph.NewVertexSet(len(adj))
	bags := make([]hypergraph.VertexSet, len(order))
	for i, v := range order {
		bags[i] = eliminate(work, eliminated, v)
	}
	return bags
}

// EliminationParents links the bags of an elimination ordering into a
// tree: the parent of position i is the position of the earliest member
// of bags[i] eliminated after order[i], or i+1 when there is none (a
// disconnected fill graph), and the last position is the root (-1).
// Every parent lies at a later position. order must be a permutation of
// the vertices 0..len(order)-1.
func EliminationParents(order []int, bags []hypergraph.VertexSet) []int {
	n := len(order)
	pos := make([]int, n)
	for i, v := range order {
		pos[v] = i
	}
	parents := make([]int, n)
	for i := range parents {
		if i == n-1 {
			parents[i] = -1
			continue
		}
		parents[i] = i + 1
		best := n
		bags[i].ForEach(func(u int) bool {
			if p := pos[u]; p > i && p < best {
				best = p
			}
			return true
		})
		if best < n {
			parents[i] = best
		}
	}
	return parents
}

// FromElimination assembles the decomposition of h with one node per
// elimination position, bag bags[i], cover covers[i] and parent
// parents[i] (as returned by EliminationParents). Nodes are created
// from the root backwards, so node ids run in reverse position order.
func FromElimination(h *hypergraph.Hypergraph, bags []hypergraph.VertexSet, parents []int, covers []cover.Fractional) *Decomp {
	n := len(bags)
	d := New(h)
	ids := make([]int, n)
	for i := n - 1; i >= 0; i-- {
		parent := -1
		if parents[i] >= 0 {
			parent = ids[parents[i]]
		}
		ids[i] = d.AddNode(parent, bags[i], covers[i])
	}
	return d
}

// cloneAdj returns a private copy of the adjacency sets.
func cloneAdj(adj []hypergraph.VertexSet) []hypergraph.VertexSet {
	work := make([]hypergraph.VertexSet, len(adj))
	for v, s := range adj {
		work[v] = s.Clone()
	}
	return work
}

// eliminate removes v from the fill graph work: its remaining
// neighbours become a clique and v joins eliminated. It returns v's bag.
func eliminate(work []hypergraph.VertexSet, eliminated hypergraph.VertexSet, v int) hypergraph.VertexSet {
	nb := work[v].Diff(eliminated)
	vs := nb.Vertices()
	for a := 0; a < len(vs); a++ {
		for b := a + 1; b < len(vs); b++ {
			work[vs[a]].Add(vs[b])
			work[vs[b]].Add(vs[a])
		}
	}
	eliminated.Add(v)
	return nb.With(v)
}
