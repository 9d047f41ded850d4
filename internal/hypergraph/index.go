package hypergraph

// The incidence index: one EdgeSet per vertex holding the edges that
// contain it. Every hot primitive of the decomposition algorithms —
// edges(C), [C]-component BFS, single-edge cover detection, degree — runs
// over these bitsets instead of rescanning all m edges.
//
// The index is built lazily on first use and maintained incrementally by
// AddEdgeSet, so hypergraphs that are grown edge-by-edge (subedge
// augmentation, weak-SCV repair) never pay a full rebuild per query.
// Clone drops the index; the copy rebuilds on demand.

// BuildIndex forces the incidence index to exist. Logically read-only
// accessors (ComponentsOf, Degree, EdgesIntersecting, IncidentEdges,
// CoveringEdge, …) build it lazily on first use; the build is guarded by
// an atomic publish flag and a mutex, so concurrent readers racing to be
// first construct the index exactly once and then proceed lock-free.
// Calling BuildIndex after the last mutation is still good practice — it
// moves the one-time cost out of the serving path — but is no longer
// required for safety.
func (h *Hypergraph) BuildIndex() { h.ensureIndex() }

// ensureIndex builds the per-vertex incidence bitsets if they are
// missing. The fast path is a single atomic load; the build itself runs
// under incMu with a double-check so exactly one goroutine constructs
// the slab. Vertices registered after the build (necessarily by a
// mutation, which requires exclusive access) are in no edge; the read
// accessors bounds-check against len(h.inc), and indexAddEdge grows the
// index when such a vertex later gains edges.
func (h *Hypergraph) ensureIndex() {
	if h.incReady.Load() {
		return
	}
	h.incMu.Lock()
	defer h.incMu.Unlock()
	if h.incReady.Load() {
		return
	}
	n := len(h.vertexNames)
	words := (len(h.edges) + 63) / 64
	slab := make([]uint64, n*words)
	inc := make([]EdgeSet, n)
	for v := 0; v < n; v++ {
		inc[v] = EdgeSet(slab[v*words : (v+1)*words : (v+1)*words])
	}
	for e, s := range h.edges {
		s.ForEach(func(v int) bool {
			inc[v].Add(e)
			return true
		})
	}
	h.inc = inc
	h.incReady.Store(true)
}

// indexAddEdge incrementally records edge e with vertex set s. Called by
// AddEdgeSet (a mutation, so exclusive access holds) when an index
// exists; no-op otherwise (the index is built lazily with all edges
// present).
func (h *Hypergraph) indexAddEdge(e int, s VertexSet) {
	if !h.incReady.Load() {
		return
	}
	for len(h.inc) < len(h.vertexNames) {
		h.inc = append(h.inc, nil)
	}
	s.ForEach(func(v int) bool {
		h.inc[v].Add(e)
		return true
	})
}

// IncidentEdges returns the set of edges containing v. The returned set is
// shared with the index and must not be modified; it may have fewer words
// than NumEdges() requires if v occurs only in low-numbered edges.
func (h *Hypergraph) IncidentEdges(v int) EdgeSet {
	h.ensureIndex()
	if v < 0 || v >= len(h.inc) {
		return nil
	}
	return h.inc[v]
}

// EdgesIntersectingSet writes into buf the set of edges e with e ∩ c ≠ ∅
// (edges(C) in the paper) and returns it. buf is reset and grown as
// needed; passing a buffer of NumEdges() capacity makes the call
// allocation-free.
func (h *Hypergraph) EdgesIntersectingSet(c VertexSet, buf EdgeSet) EdgeSet {
	h.ensureIndex()
	if m := h.NumEdges(); m > 0 {
		buf = EdgeSet(VertexSet(buf).grow((m - 1) / 64))
	}
	buf = buf.Reset()
	c.ForEach(func(v int) bool {
		if v < len(h.inc) {
			iv := h.inc[v]
			for i, w := range iv {
				buf[i] |= w
			}
		}
		return true
	})
	return buf
}

// EdgesCoveringSet writes into buf the set of edges e with c ⊆ e and
// returns it. For an empty c every edge qualifies. buf is reset and grown
// as needed; passing a buffer of NumEdges() capacity makes the call
// allocation-free.
func (h *Hypergraph) EdgesCoveringSet(c VertexSet, buf EdgeSet) EdgeSet {
	h.ensureIndex()
	m := h.NumEdges()
	if m > 0 {
		buf = EdgeSet(VertexSet(buf).grow((m - 1) / 64))
	}
	buf = buf.Reset()
	first := true
	c.ForEach(func(v int) bool {
		if v >= len(h.inc) {
			first = false
			buf = buf.Reset()
			return false
		}
		if first {
			first = false
			buf = buf.CopyFrom(h.inc[v])
			return true
		}
		buf = buf.IntersectInPlace(h.inc[v])
		return !buf.IsEmpty()
	})
	if first { // c is empty: all edges cover it
		for e := 0; e < m; e++ {
			buf.Add(e)
		}
	}
	return buf
}

// CoveringEdge returns an edge containing all of c, or -1 if none does.
// For a non-empty coverable c this is the integer fast path that spares
// the exact-width DP an LP solve: ρ(c) = ρ*(c) = 1.
func (h *Hypergraph) CoveringEdge(c VertexSet) int {
	h.ensureIndex()
	v0 := c.First()
	if v0 < 0 {
		if h.NumEdges() > 0 {
			return 0
		}
		return -1
	}
	if v0 >= len(h.inc) {
		return -1
	}
	// Walk the candidate edges of the first vertex, cheapest filter first.
	found := -1
	h.inc[v0].ForEach(func(e int) bool {
		if c.IsSubsetOf(h.edges[e]) {
			found = e
			return false
		}
		return true
	})
	return found
}
