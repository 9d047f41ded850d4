package solve

import (
	"hypertree/internal/hypergraph"
)

// The preprocessing pipeline applies the standard HyperBench-style
// simplifications before any search runs:
//
//  1. empty edges are dropped and isolated vertices counted (neither can
//     influence any width measure);
//  2. duplicate edges are dropped for every measure; edges strictly
//     contained in another edge (subsumed) are additionally dropped for
//     ghw and fhw, where removal provably preserves the width — covers
//     may substitute the subsuming edge, and condition (1) for the
//     dropped edge follows from its superset's bag. For hw, subsumed
//     edges are kept: removing them can alter the special condition's
//     edge pool;
//  3. the instance is split along the biconnected components (blocks) of
//     its primal graph for ghw/fhw — every hyperedge is a clique of the
//     primal graph, so it lies in exactly one block — and along connected
//     components for hw, where the block split lacks the same
//     width-preservation guarantee.
//
// Each piece is solved independently (in parallel) and the per-piece
// decompositions are recombined by decomp.Combine; the width of the
// whole is the maximum over the pieces.

// prep is the result of the simplification pipeline: which edges of the
// input survive, and how they partition into independently solvable
// blocks.
type prep struct {
	kept     []int   // surviving edge ids of the input hypergraph
	removed  int     // empty, duplicate and (ghw/fhw) subsumed edges dropped
	isolated int     // vertices occurring in no edge
	blocks   [][]int // per block: kept edge ids (indices into the input)
}

// simplify runs the pipeline. With pre disabled it returns all non-empty
// edges as one block.
func simplify(h *hypergraph.Hypergraph, measure Measure, disabled bool) prep {
	var p prep
	n := h.NumVertices()
	covered := hypergraph.NewVertexSet(n)
	for e := 0; e < h.NumEdges(); e++ {
		covered.UnionInPlace(h.Edge(e))
	}
	p.isolated = n - covered.Count()

	var seen hypergraph.Interner
	buf := hypergraph.NewEdgeSet(h.NumEdges())
	for e := 0; e < h.NumEdges(); e++ {
		s := h.Edge(e)
		if s.IsEmpty() {
			p.removed++
			continue
		}
		if disabled {
			p.kept = append(p.kept, e)
			continue
		}
		if _, _, isNew := seen.Intern(s); !isNew {
			p.removed++ // duplicate of an earlier edge
			continue
		}
		if measure != HW {
			// Subsumed by a strictly larger edge?
			buf = h.EdgesCoveringSet(s, buf)
			subsumed := false
			buf.ForEach(func(f int) bool {
				if f != e && !h.Edge(f).Equal(s) {
					subsumed = true
					return false
				}
				return true
			})
			if subsumed {
				p.removed++
				continue
			}
		}
		p.kept = append(p.kept, e)
	}

	if disabled {
		if len(p.kept) > 0 {
			p.blocks = [][]int{p.kept}
		}
		return p
	}
	// Every dropped edge is a subset of a kept one, so the kept edges
	// span the same primal graph, and the same components, as h.
	var pieces []hypergraph.VertexSet
	if measure == HW {
		pieces = h.ComponentsOf(nil, covered)
	} else {
		pieces = biconnectedBlocks(h, p.kept)
	}
	p.blocks = assignEdges(h, p.kept, pieces)
	return p
}

// biconnectedBlocks returns the vertex sets of the biconnected
// components (blocks) of the primal graph of h, which the kept edges
// span, via the Hopcroft–Tarjan lowlink algorithm with an edge stack.
// Vertices with no primal neighbours (from singleton edges) form
// singleton blocks.
func biconnectedBlocks(h *hypergraph.Hypergraph, kept []int) []hypergraph.VertexSet {
	n := h.NumVertices()
	adj := h.AdjacencyMatrix()
	disc := make([]int, n) // 0 = unvisited; else discovery time + 1
	low := make([]int, n)
	time := 0
	var blocks []hypergraph.VertexSet
	var estack [][2]int

	popBlock := func(u, v int) {
		b := hypergraph.NewVertexSet(n)
		for len(estack) > 0 {
			e := estack[len(estack)-1]
			estack = estack[:len(estack)-1]
			b.Add(e[0])
			b.Add(e[1])
			if e[0] == u && e[1] == v {
				break
			}
		}
		blocks = append(blocks, b)
	}

	var dfs func(v, parent int)
	dfs = func(v, parent int) {
		time++
		disc[v], low[v] = time, time
		adj[v].ForEach(func(u int) bool {
			if disc[u] == 0 {
				estack = append(estack, [2]int{v, u})
				dfs(u, v)
				if low[u] < low[v] {
					low[v] = low[u]
				}
				if low[u] >= disc[v] {
					popBlock(v, u) // v is an articulation point (or the root)
				}
			} else if u != parent && disc[u] < disc[v] {
				estack = append(estack, [2]int{v, u})
				if disc[u] < low[v] {
					low[v] = disc[u]
				}
			}
			return true
		})
	}

	for _, e := range kept {
		h.Edge(e).ForEach(func(v int) bool {
			if disc[v] == 0 {
				if adj[v].IsEmpty() {
					disc[v] = -1 // mark handled
					blocks = append(blocks, hypergraph.SetOf(v))
					return true
				}
				dfs(v, -1)
			}
			return true
		})
	}
	return blocks
}

// assignEdges distributes the kept edges over the pieces: each edge goes
// to the first piece containing all of its vertices. An edge fitting no
// piece (which a correct split never produces) defensively becomes its
// own piece so no edge is ever dropped from the solve.
func assignEdges(h *hypergraph.Hypergraph, kept []int, pieces []hypergraph.VertexSet) [][]int {
	buckets := make([][]int, len(pieces))
	for _, e := range kept {
		placed := false
		for i, p := range pieces {
			if h.Edge(e).IsSubsetOf(p) {
				buckets[i] = append(buckets[i], e)
				placed = true
				break
			}
		}
		if !placed {
			buckets = append(buckets, []int{e})
		}
	}
	var out [][]int
	for _, b := range buckets {
		if len(b) > 0 {
			out = append(out, b)
		}
	}
	return out
}
