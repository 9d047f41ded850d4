package cover

// basiscache.go — cross-scope reuse of warm cover-LP bases.
//
// The FHD oracle borrows one Incremental per guesses invocation.
// Pre-PR-6 it recycled them through a plain free list: returning a
// solver wiped its tableau, so a memo-adjacent subproblem over the SAME
// scope reached from a different DFS region cold-started even though an
// optimal basis for a sibling support had just been retired. BasisCache
// keys retired solvers on their interned scope set instead: Get(scope)
// revives the solver whose synced rows and factored basis are still
// those of the last enumeration over that scope, cleared of its
// caller-visible stack (Retarget), so the next Solve re-derives only
// the stack difference — sync's set-equality prefix matching keeps this
// sound even across engine runs whose atom pools disagree on ids.
// Scopes without a cached basis fall back to recycled storage (full
// Reset) or a fresh solver.
//
// The cache is byte-bounded: each entry is charged its ApproxBytes and
// entries are evicted oldest-first once the budget trips. The default
// budget is a fixed slice of the solve-level result-cache budget
// (solve.DefaultCacheBytes), so enabling basis reuse does not change
// the process's overall cache memory envelope. A BasisCache is NOT safe
// for concurrent use; share one only within a single deepening loop.

import (
	"hypertree/internal/hypergraph"
	"hypertree/internal/lp"
)

// DefaultBasisCacheBytes bounds a BasisCache constructed with
// NewBasisCache(0): 16 MiB, an eighth of solve.DefaultCacheBytes.
const DefaultBasisCacheBytes int64 = 16 << 20

// BasisCache holds retired Incremental solvers keyed by scope.
type BasisCache struct {
	intern   hypergraph.Interner
	slots    []basisEntry // scope id → entry (nil ic = none)
	queue    []basisRef   // Put order, for oldest-first eviction
	bytes    int64
	max      int64
	free     []*Incremental // displaced/evicted solvers, for cold reuse
	seq      int
	stats    BasisCacheStats
	absorbed lp.WarmStats // LP counters of absorbed caches
}

type basisEntry struct {
	ic    *Incremental
	bytes int64
	seq   int
}

// basisRef marks one Put in the eviction queue; stale refs (their slot
// was displaced or evicted since) are skipped by the seq check.
type basisRef struct{ id, seq int }

// BasisCacheStats is a point-in-time view of cache effectiveness.
type BasisCacheStats struct {
	Hits      int // Get calls revived with a warm basis
	Misses    int // Get calls answered with a cold solver
	Evictions int // entries dropped by the byte budget
	Bytes     int64
}

// NewBasisCache returns a cache bounded by maxBytes approximate
// retained bytes (0 = DefaultBasisCacheBytes).
func NewBasisCache(maxBytes int64) *BasisCache {
	if maxBytes <= 0 {
		maxBytes = DefaultBasisCacheBytes
	}
	return &BasisCache{max: maxBytes}
}

// Get borrows a solver for scope. On a hit the solver keeps the synced
// rows and warm basis of the last enumeration over scope (Retarget); on
// a miss it is fully Reset. The caller must return it with Put.
func (bc *BasisCache) Get(scope hypergraph.VertexSet) *Incremental {
	id, _, _ := bc.intern.Intern(scope)
	for len(bc.slots) <= id {
		bc.slots = append(bc.slots, basisEntry{})
	}
	if e := bc.slots[id]; e.ic != nil {
		bc.slots[id] = basisEntry{}
		bc.bytes -= e.bytes
		e.ic.Retarget()
		bc.stats.Hits++
		return e.ic
	}
	bc.stats.Misses++
	if n := len(bc.free); n > 0 {
		ic := bc.free[n-1]
		bc.free = bc.free[:n-1]
		ic.Reset(scope)
		return ic
	}
	return NewIncremental(scope)
}

// Put stashes a solver borrowed for scope. Guess enumerations nest, so
// several solvers for one scope can be live at once; the newest wins
// and the displaced one joins the cold free list.
func (bc *BasisCache) Put(scope hypergraph.VertexSet, ic *Incremental) {
	id, _, _ := bc.intern.Intern(scope)
	for len(bc.slots) <= id {
		bc.slots = append(bc.slots, basisEntry{})
	}
	if old := bc.slots[id]; old.ic != nil {
		bc.bytes -= old.bytes
		bc.free = append(bc.free, old.ic)
	}
	bc.seq++
	e := basisEntry{ic: ic, bytes: ic.ApproxBytes(), seq: bc.seq}
	bc.slots[id] = e
	bc.bytes += e.bytes
	bc.queue = append(bc.queue, basisRef{id: id, seq: bc.seq})
	for bc.bytes > bc.max && len(bc.queue) > 0 {
		q := bc.queue[0]
		bc.queue = bc.queue[1:]
		ev := bc.slots[q.id]
		if ev.ic == nil || ev.seq != q.seq {
			continue // displaced or re-put since; stale ref
		}
		bc.slots[q.id] = basisEntry{}
		bc.bytes -= ev.bytes
		bc.free = append(bc.free, ev.ic)
		bc.stats.Evictions++
	}
}

// Stats returns the cache counters.
func (bc *BasisCache) Stats() BasisCacheStats {
	s := bc.stats
	s.Bytes = bc.bytes
	return s
}

// Absorb adds the LP solve counters of every solver o retains to bc's
// WarmStats, so they also account for the solves o's borrowers ran. A
// parallel FHD run folds its workers' private caches into the caller's
// this way. o itself is left unchanged.
func (bc *BasisCache) Absorb(o *BasisCache) {
	bc.absorbed.Add(o.WarmStats())
}

// WarmStats sums the LP solve counters over every solver the cache
// retains — warm slots plus the cold free list — and over absorbed
// caches. Solvers are never dropped (Put routes displaced and evicted
// ones to the free list, and Reset preserves their stats), so after all
// borrowed solvers are Put back this is the cumulative solve-path mix
// of every Solve the cache's solvers ran.
func (bc *BasisCache) WarmStats() lp.WarmStats {
	ws := bc.absorbed
	for i := range bc.slots {
		if ic := bc.slots[i].ic; ic != nil {
			ws.Add(ic.Stats())
		}
	}
	for _, ic := range bc.free {
		ws.Add(ic.Stats())
	}
	return ws
}
