package hypergraph

import "math/bits"

// ComponentsOf returns the [C]-components of H: the maximal [C]-connected
// non-empty vertex sets W ⊆ V(H) \ C (paper, Section 2.1). Two vertices
// are [C]-adjacent if some edge contains both outside C; a [C]-component
// is an equivalence class of the transitive closure.
//
// Only vertices of scope are considered when scope is non-nil; this is used
// by the decomposition algorithms, which need the [C]-components that lie
// inside the current component. Passing nil uses all of V(H).
//
// The BFS is edge-driven over the incidence index: each edge incident to a
// free vertex is absorbed exactly once per call, so the whole computation
// is O(Σ_e |e| / 64) words touched instead of rescanning every edge per
// frontier expansion.
func (h *Hypergraph) ComponentsOf(c VertexSet, scope VertexSet) []VertexSet {
	return h.ComponentsOfWith(&CompScratch{}, c, scope, nil)
}

// CompScratch holds the reusable working buffers of ComponentsOfWith —
// the visited edge set, the BFS stack and the free-set workspace — so
// repeated component computations (validation sweeps, FNF rounds)
// allocate only the component sets they return. The zero value is ready
// to use; a scratch must not be shared between concurrent calls.
type CompScratch struct {
	visited EdgeSet
	stack   []int
	free    VertexSet
}

// ComponentsOfWith is ComponentsOf with caller-owned scratch buffers,
// appending the components to comps (which may be nil) and returning it.
// The returned component sets are freshly allocated and independent of
// the scratch.
func (h *Hypergraph) ComponentsOfWith(sc *CompScratch, c VertexSet, scope VertexSet, comps []VertexSet) []VertexSet {
	h.ensureIndex()
	if scope == nil {
		n := h.NumVertices()
		if n == 0 {
			return comps
		}
		sc.free = sc.free.grow((n - 1) / 64).Reset()
		for w := 0; w < n/64; w++ {
			sc.free[w] = ^uint64(0)
		}
		if r := n % 64; r != 0 {
			sc.free[n/64] = (1 << uint(r)) - 1
		}
		sc.free = sc.free.DiffInPlace(c)
	} else {
		sc.free = sc.free.CopyFrom(scope).DiffInPlace(c)
	}
	free := sc.free
	if free.IsEmpty() {
		return comps
	}
	if m := h.NumEdges(); m > 0 {
		sc.visited = EdgeSet(VertexSet(sc.visited).grow((m - 1) / 64))
	}
	visited := sc.visited.Reset()
	stack := sc.stack
	for {
		start := free.First()
		if start < 0 {
			break
		}
		comp := NewVertexSet(h.NumVertices())
		comp.Add(start)
		free.Remove(start)
		stack = append(stack[:0], start)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if v >= len(h.inc) {
				continue
			}
			for wi, w := range h.inc[v] {
				w &^= visited[wi]
				if w == 0 {
					continue
				}
				visited[wi] |= w
				for w != 0 {
					e := wi*64 + bits.TrailingZeros64(w)
					w &= w - 1
					// Absorb the free part of e into the component.
					es := h.edges[e]
					for i := 0; i < len(es) && i < len(free); i++ {
						add := es[i] & free[i]
						if add == 0 {
							continue
						}
						free[i] &^= add
						comp[i] |= add
						for add != 0 {
							stack = append(stack, i*64+bits.TrailingZeros64(add))
							add &= add - 1
						}
					}
				}
			}
		}
		comps = append(comps, comp)
	}
	sc.stack = stack
	return comps
}

// IsConnected reports whether H is [∅]-connected (a single component), or
// empty.
func (h *Hypergraph) IsConnected() bool {
	return len(h.ComponentsOf(NewVertexSet(h.NumVertices()), nil)) <= 1
}
