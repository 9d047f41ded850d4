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
//  3. one DFS over the incidence graph splits the kept edges along the
//     biconnected components (blocks) of the primal graph for ghw/fhw —
//     every hyperedge is a clique of the primal graph, so it lies in
//     exactly one block — and along connected components for hw, where
//     the block split lacks the same width-preservation guarantee.
//
// Each piece is solved independently (in parallel) and the per-piece
// decompositions are recombined by decomp.Combine, in the split's
// parent-first order; the width of the whole is the maximum over the
// pieces.

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
	p.blocks = split(h, p.kept, measure != HW)
	return p
}

// split partitions the kept edges into pieces by one Hopcroft–Tarjan
// DFS over the incidence graph, whose nodes are the vertices and the
// kept edges (edge e is node n+e). Without blocks, each DFS tree is a
// piece: the connected components. With blocks, a piece also closes at
// a vertex node x whose DFS child y has low[y] ≥ disc[x]. An edge node
// never closes one, because a hyperedge is a clique of the primal graph
// and cannot separate its own vertices, so the pieces are exactly the
// primal graph's biconnected blocks. Each piece keeps its edges
// ascending.
//
// Pieces come out parent-first, the reverse of the order they close. A
// DFS tree is rooted at an edge node, so a piece closing at x attaches
// at x to a piece that closes later: in reverse order, every piece
// after the first of its component meets the pieces before it in
// exactly x, and pieces of different components meet in nothing. That
// is the order decomp.Combine stitches in. The cost is linear in the
// incidence plus the walk over each vertex's m-bit EdgeSet, O(n·m/64).
func split(h *hypergraph.Hypergraph, kept []int, blocks bool) [][]int {
	n, m := h.NumVertices(), h.NumEdges()
	isKept := make([]bool, m)
	for _, e := range kept {
		isKept[e] = true
	}
	disc := make([]int, n+m) // 0 = unvisited; else discovery time
	low := make([]int, n+m)
	piece := make([]int, m)
	var open []int // edges of the pieces not closed yet, in discovery order
	pieces, time := 0, 0
	closeFrom := func(mark int) {
		for _, e := range open[mark:] {
			piece[e] = pieces
		}
		open = open[:mark]
		pieces++
	}
	var dfs func(x, parent int)
	dfs = func(x, parent int) {
		time++
		disc[x], low[x] = time, time
		visit := func(y int) bool {
			if disc[y] == 0 {
				mark := len(open)
				dfs(y, x)
				low[x] = min(low[x], low[y])
				if blocks && x < n && low[y] >= disc[x] {
					closeFrom(mark)
				}
			} else if y != parent {
				low[x] = min(low[x], disc[y])
			}
			return true
		}
		if x >= n {
			open = append(open, x-n)
			h.Edge(x - n).ForEach(visit)
			return
		}
		h.IncidentEdges(x).ForEach(func(e int) bool {
			return !isKept[e] || visit(n+e)
		})
	}
	for _, e := range kept {
		if disc[n+e] == 0 {
			dfs(n+e, -1)
			closeFrom(0)
		}
	}
	out := make([][]int, pieces)
	for _, e := range kept {
		i := pieces - 1 - piece[e]
		out[i] = append(out[i], e)
	}
	return out
}
