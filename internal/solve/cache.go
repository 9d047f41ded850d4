package solve

import (
	"strings"
	"sync"

	"hypertree/internal/hypergraph"
)

// The result cache keys on a canonical form of the query hypergraph
// rather than its text: vertices are relabeled in order of first
// occurrence (scanning edges in input order; the vertices an edge sees
// first are ordered by their incident-edge sets, so the order in which
// vertices were declared does not matter), every edge is re-expressed
// as a bitset over the relabeled ids, and the per-edge VertexSet
// fingerprints are chained into one 64-bit key — the same Fingerprint
// machinery the search memo tables use. Repeated queries and queries
// that differ only in vertex/edge names therefore hit the same entry;
// detecting isomorphism under edge reordering is intentionally out of
// scope. Vertices first seen in the same edge with equal incident-edge
// sets are twins, so their relative order leaves the canonical form
// unchanged. The exact canonical string is kept alongside the
// fingerprint so hash collisions cannot cross-contaminate entries.

// Key identifies one cache slot: the canonical hypergraph, the measure
// and NoPreprocess, which shapes the witness, so requests differing in it
// share no entry or in-flight computation. Validate, Timeout and
// SATOrdLimit are excluded: only exact results are cached, and an exact
// width depends on none of them.
type Key struct {
	Measure Measure
	FP      uint64
	canon   string
	noPre   bool
}

// KeyFor computes the cache key of h under measure m with default
// options.
func KeyFor(m Measure, h *hypergraph.Hypergraph) Key {
	k, _ := canonKey(Options{Measure: m}, h)
	return k
}

// canonKey computes the key together with the canonical relabeling
// (vertex index → canonical id, -1 for vertices in no edge) that
// witness translation between key-equal hypergraphs needs.
func canonKey(opt Options, h *hypergraph.Hypergraph) (Key, []int) {
	relabel := make([]int, h.NumVertices())
	for i := range relabel {
		relabel[i] = -1
	}
	next := 0
	var b strings.Builder
	fp := uint64(14695981039346656037)
	set := hypergraph.NewVertexSet(h.NumVertices())
	// This edge's unlabeled vertices, kept sorted by incident-edge set;
	// the constant capacity keeps small edges off the heap.
	fresh := make([]int, 0, 16)
	for e := 0; e < h.NumEdges(); e++ {
		fresh = fresh[:0]
		h.Edge(e).ForEach(func(v int) bool {
			if relabel[v] < 0 {
				fresh = append(fresh, v)
				for i := len(fresh) - 1; i > 0 && edgeSetLess(h.IncidentEdges(fresh[i]), h.IncidentEdges(fresh[i-1])); i-- {
					fresh[i], fresh[i-1] = fresh[i-1], fresh[i]
				}
			}
			return true
		})
		for _, v := range fresh {
			relabel[v] = next
			next++
		}
		set = set.Reset()
		h.Edge(e).ForEach(func(v int) bool {
			set.Add(relabel[v])
			return true
		})
		fp ^= set.Fingerprint()
		fp *= 1099511628211
		b.WriteString(set.Key())
		b.WriteByte('|')
	}
	return Key{Measure: opt.Measure, FP: fp, canon: b.String(), noPre: opt.NoPreprocess}, relabel
}

// edgeSetLess orders two incidence sets of one hypergraph (equal word
// counts) by their words, lowest word first.
func edgeSetLess(a, b hypergraph.EdgeSet) bool {
	for i, w := range a {
		if w != b[i] {
			return w < b[i]
		}
	}
	return false
}

// CacheStats is a point-in-time view of cache effectiveness.
type CacheStats struct {
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	Size   int    `json:"size"`
	Bytes  int64  `json:"bytes"`
}

// Cache is a bounded, concurrency-safe result cache. Only exact results
// are stored: partial results reflect the budget of the request that
// produced them, not the instance. Eviction is FIFO, bounded both by
// entry count and by approximate retained bytes: every entry pins the
// populating hypergraph, its witness and the canonical key string, so a
// stream of large distinct instances would otherwise hold far more
// memory than the entry count suggests.
type Cache struct {
	mu       sync.Mutex
	max      int
	maxBytes int64
	bytes    int64
	entries  map[Key]*entry
	fifo     []Key
	hits     uint64
	misses   uint64
}

// entry couples a cached result with the hypergraph and canonical
// relabeling of the request that populated it, so a hit from a
// key-equal but differently-named query can translate the witness onto
// its own hypergraph. size is the approximate retained footprint,
// computed once at insertion.
type entry struct {
	res     *Result
	h       *hypergraph.Hypergraph
	relabel []int
	size    int64
}

// DefaultCacheSize bounds a Cache constructed with NewCache(0, …).
const DefaultCacheSize = 4096

// DefaultCacheBytes bounds the approximate retained bytes of a Cache
// constructed with NewCache(…, 0).
const DefaultCacheBytes int64 = 128 << 20 // 128 MiB

// NewCache returns a cache holding at most max entries (0 = default)
// and at most maxBytes approximate retained bytes (0 = default).
// Whichever bound is hit first evicts oldest-in. A negative max returns
// nil, the disabled cache NewSolver accepts.
func NewCache(max int, maxBytes int64) *Cache {
	if max < 0 {
		return nil
	}
	if max == 0 {
		max = DefaultCacheSize
	}
	if maxBytes <= 0 {
		maxBytes = DefaultCacheBytes
	}
	return &Cache{max: max, maxBytes: maxBytes, entries: map[Key]*entry{}}
}

// approxSize estimates the retained footprint of an entry under key k:
// the canonical string (stored in the map key and the fifo copy), the
// relabeling, the populating hypergraph's edge bitsets and names, and
// the witness's bags and covers. Estimates err low on Go object
// overheads; the bound is a guard rail, not an accountant.
func (e *entry) approxSize(k Key) int64 {
	s := int64(len(k.canon))*2 + int64(len(e.relabel))*8 + 256
	if e.h != nil {
		for ed := 0; ed < e.h.NumEdges(); ed++ {
			s += int64(len(e.h.Edge(ed)))*8 + int64(len(e.h.EdgeName(ed))) + 48
		}
		for v := 0; v < e.h.NumVertices(); v++ {
			s += int64(len(e.h.VertexName(v))) + 40
		}
	}
	if e.res != nil && e.res.Witness != nil {
		for i := range e.res.Witness.Nodes {
			n := &e.res.Witness.Nodes[i]
			s += int64(len(n.Bag))*8 + int64(len(n.Cover))*64 + int64(len(n.Children))*8 + 96
		}
	}
	return s
}

// Get returns the cached result for k. The returned Result is shared:
// callers must treat it (and its witness) as read-only. The witness
// refers to the hypergraph of the request that populated the entry;
// Solver.Solve translates it onto the current query's hypergraph when
// the two differ.
func (c *Cache) Get(k Key) (*Result, bool) {
	e, ok := c.getEntry(k)
	if !ok {
		return nil, false
	}
	return e.res, true
}

func (c *Cache) getEntry(k Key) (*entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[k]
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return e, ok
}

// Put stores an exact result under k, evicting the oldest entries past
// capacity. Non-exact results are ignored.
func (c *Cache) Put(k Key, r *Result) {
	c.putEntry(k, &entry{res: r})
}

func (c *Cache) putEntry(k Key, e *entry) {
	if e == nil || e.res == nil || !e.res.Exact {
		return
	}
	e.size = e.approxSize(k)
	if e.size > c.maxBytes {
		return // larger than the whole budget: caching it evicts everything for one entry
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.entries[k]; ok {
		c.bytes -= old.size
	} else {
		c.fifo = append(c.fifo, k)
	}
	c.entries[k] = e
	c.bytes += e.size
	for (len(c.entries) > c.max || c.bytes > c.maxBytes) && len(c.fifo) > 0 {
		old := c.fifo[0]
		c.fifo = c.fifo[1:]
		if oe, ok := c.entries[old]; ok {
			c.bytes -= oe.size
			delete(c.entries, old)
		}
	}
}

// Stats returns hit/miss counters, the current size and the approximate
// retained bytes.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Size: len(c.entries), Bytes: c.bytes}
}
