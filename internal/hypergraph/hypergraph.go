// Package hypergraph implements the hypergraph substrate used throughout
// the library: hypergraphs H = (V(H), E(H)) with named vertices and edges,
// bitset vertex sets, [C]-components, structural properties (degree, rank,
// intersection width, multi-intersection width, acyclicity), duals, primal
// graphs, parsing and generators.
//
// Terminology follows Fischl, Gottlob and Pichler, "General and Fractional
// Hypertree Decompositions: Hard and Easy Cases" (PODS 2018), Section 2.
package hypergraph

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Hypergraph is a hypergraph with named vertices and named edges. Vertices
// and edges are addressed by dense integer indices; names are kept for
// parsing and display. Edges are vertex sets; the same vertex universe is
// shared by derived hypergraphs (e.g. induced subhypergraphs), which keeps
// vertex indices stable across transformations.
//
// A Hypergraph follows a mutate-then-share lifecycle: mutation
// (Vertex, AddEdge, AddEdgeSet, …) requires exclusive access, but once
// mutation is finished the read accessors — including the ones that
// lazily build the incidence index on first use (see BuildIndex) — are
// safe to call from any number of goroutines concurrently: the lazy
// build is guarded by an atomic flag and a mutex, so whichever reader
// arrives first constructs the index exactly once.
type Hypergraph struct {
	vertexNames []string
	vertexIndex map[string]int
	edgeNames   []string
	edgeIndex   map[string]int // first edge with each name (see EdgeIDByName)
	edges       []VertexSet
	inc         []EdgeSet   // per-vertex incidence index, built lazily (index.go)
	incReady    atomic.Bool // publishes inc to concurrent readers
	incMu       sync.Mutex  // serializes the lazy build
}

// New returns an empty hypergraph.
func New() *Hypergraph {
	return &Hypergraph{vertexIndex: map[string]int{}, edgeIndex: map[string]int{}}
}

// NumVertices returns the number of registered vertices |V(H)|.
func (h *Hypergraph) NumVertices() int { return len(h.vertexNames) }

// NumEdges returns the number of edges |E(H)|.
func (h *Hypergraph) NumEdges() int { return len(h.edges) }

// Vertex returns the index for the named vertex, registering it if new.
func (h *Hypergraph) Vertex(name string) int {
	if i, ok := h.vertexIndex[name]; ok {
		return i
	}
	i := len(h.vertexNames)
	h.vertexNames = append(h.vertexNames, name)
	h.vertexIndex[name] = i
	return i
}

// VertexID returns the index of a named vertex and whether it exists.
func (h *Hypergraph) VertexID(name string) (int, bool) {
	i, ok := h.vertexIndex[name]
	return i, ok
}

// VertexName returns the name of vertex v.
func (h *Hypergraph) VertexName(v int) string { return h.vertexNames[v] }

// EdgeName returns the name of edge e.
func (h *Hypergraph) EdgeName(e int) string { return h.edgeNames[e] }

// Edge returns the vertex set of edge e. The returned set must not be
// modified.
func (h *Hypergraph) Edge(e int) VertexSet { return h.edges[e] }

// AddEdge adds an edge with the given name and named vertices, registering
// any new vertices, and returns the edge index. Empty edges are permitted
// at this level (some constructions temporarily create them); validation
// happens in ValidateNonEmpty.
func (h *Hypergraph) AddEdge(name string, vertices ...string) int {
	s := NewVertexSet(h.NumVertices())
	for _, v := range vertices {
		s.Add(h.Vertex(v))
	}
	return h.AddEdgeSet(name, s)
}

// AddEdgeSet adds an edge with the given vertex set and returns its index.
// If name is empty a name is synthesized.
func (h *Hypergraph) AddEdgeSet(name string, s VertexSet) int {
	if name == "" {
		name = fmt.Sprintf("e%d", len(h.edges)+1)
	}
	h.edgeNames = append(h.edgeNames, name)
	h.edges = append(h.edges, s.Clone())
	e := len(h.edges) - 1
	if h.edgeIndex == nil {
		h.edgeIndex = map[string]int{}
	}
	if _, ok := h.edgeIndex[name]; !ok {
		h.edgeIndex[name] = e
	}
	h.indexAddEdge(e, h.edges[e])
	return e
}

// Vertices returns the set of all vertices of H.
func (h *Hypergraph) Vertices() VertexSet {
	s := NewVertexSet(h.NumVertices())
	for v := 0; v < h.NumVertices(); v++ {
		s.Add(v)
	}
	return s
}

// EdgesWithVertex returns the indices of the edges containing v.
func (h *Hypergraph) EdgesWithVertex(v int) []int {
	es := h.IncidentEdges(v).Edges()
	if len(es) == 0 {
		return nil
	}
	return es
}

// EdgesIntersecting returns indices of the edges e with e ∩ C ≠ ∅
// (written edges(C) in the paper). Callers on a hot path should prefer
// EdgesIntersectingSet with a reused buffer.
func (h *Hypergraph) EdgesIntersecting(c VertexSet) []int {
	es := h.EdgesIntersectingSet(c, nil).Edges()
	if len(es) == 0 {
		return nil
	}
	return es
}

// UnionOfEdges returns ⋃ S for a set S of edge indices.
func (h *Hypergraph) UnionOfEdges(es []int) VertexSet {
	s := NewVertexSet(h.NumVertices())
	for _, e := range es {
		s = s.UnionInPlace(h.edges[e])
	}
	return s
}

// IntersectionOfEdges returns ⋂ S for a non-empty set S of edge indices.
func (h *Hypergraph) IntersectionOfEdges(es []int) VertexSet {
	if len(es) == 0 {
		return h.Vertices()
	}
	s := h.edges[es[0]].Clone()
	for _, e := range es[1:] {
		s = s.Intersect(h.edges[e])
	}
	return s
}

// ValidateNonEmpty returns an error if H has an empty edge or an isolated
// vertex (the paper assumes hypergraphs have neither).
func (h *Hypergraph) ValidateNonEmpty() error {
	covered := NewVertexSet(h.NumVertices())
	for e, s := range h.edges {
		if s.IsEmpty() {
			return fmt.Errorf("edge %s is empty", h.edgeNames[e])
		}
		covered = covered.UnionInPlace(s)
	}
	if !h.Vertices().IsSubsetOf(covered) {
		for _, v := range h.Vertices().Diff(covered).Vertices() {
			return fmt.Errorf("vertex %s is isolated", h.vertexNames[v])
		}
	}
	return nil
}

// InducedSub returns the vertex-induced subhypergraph H[C]: the vertex
// universe is unchanged, and each edge e of H with e ∩ C ≠ ∅ contributes
// the edge e ∩ C. Duplicate induced edges are kept only once; each kept
// edge remembers its smallest originator in the returned mapping
// (induced edge index → original edge index).
func (h *Hypergraph) InducedSub(c VertexSet) (*Hypergraph, map[int]int) {
	sub := New()
	sub.vertexNames = h.vertexNames
	sub.vertexIndex = h.vertexIndex
	orig := map[int]int{}
	var seen Interner
	for e, s := range h.edges {
		is := s.Intersect(c)
		if is.IsEmpty() {
			continue
		}
		if _, _, isNew := seen.Intern(is); !isNew {
			continue
		}
		id := sub.AddEdgeSet(h.edgeNames[e], is)
		orig[id] = e
	}
	return sub, orig
}

// ExtractEdges returns a standalone hypergraph containing exactly the
// given edges of H over a compact vertex universe: only the vertices
// occurring in those edges are registered (keeping their names, in order
// of first occurrence). It returns the sub-hypergraph
// together with the vertex map (sub vertex index → H vertex index) and
// the edge map (sub edge index → H edge index). The solve pipeline uses
// this to hand each biconnected block to the width algorithms as a small
// self-contained instance whose decomposition is translated back through
// the two maps.
func (h *Hypergraph) ExtractEdges(es []int) (*Hypergraph, []int, []int) {
	sub := New()
	var vmap []int
	emap := make([]int, 0, len(es))
	for _, e := range es {
		s := NewVertexSet(0)
		h.edges[e].ForEach(func(v int) bool {
			sv, ok := sub.vertexIndex[h.vertexNames[v]]
			if !ok {
				sv = sub.Vertex(h.vertexNames[v])
				vmap = append(vmap, v)
			}
			s.Add(sv)
			return true
		})
		sub.AddEdgeSet(h.edgeNames[e], s)
		emap = append(emap, e)
	}
	return sub, vmap, emap
}

// Clone returns a deep copy of H.
func (h *Hypergraph) Clone() *Hypergraph {
	c := New()
	c.vertexNames = append([]string(nil), h.vertexNames...)
	for n, i := range h.vertexIndex {
		c.vertexIndex[n] = i
	}
	c.edgeNames = append([]string(nil), h.edgeNames...)
	for n, i := range h.edgeIndex {
		c.edgeIndex[n] = i
	}
	c.edges = make([]VertexSet, len(h.edges))
	for i, s := range h.edges {
		c.edges[i] = s.Clone()
	}
	return c
}

// String renders H in the parseable edge-list format, e.g.
// "e1(a,b), e2(b,c)".
func (h *Hypergraph) String() string {
	var parts []string
	for e, s := range h.edges {
		var names []string
		s.ForEach(func(v int) bool {
			names = append(names, h.vertexNames[v])
			return true
		})
		parts = append(parts, fmt.Sprintf("%s(%s)", h.edgeNames[e], strings.Join(names, ",")))
	}
	return strings.Join(parts, ",\n")
}

// VertexNames returns the names of the vertices in s, sorted.
func (h *Hypergraph) VertexNames(s VertexSet) []string {
	var names []string
	s.ForEach(func(v int) bool {
		names = append(names, h.vertexNames[v])
		return true
	})
	sort.Strings(names)
	return names
}

// EdgeIDByName returns the index of the edge with the given name. When
// several edges share a name (induced subhypergraphs reuse originator
// names) the first is returned, matching the historical linear scan.
func (h *Hypergraph) EdgeIDByName(name string) (int, bool) {
	e, ok := h.edgeIndex[name]
	if !ok {
		return 0, false
	}
	return e, true
}
