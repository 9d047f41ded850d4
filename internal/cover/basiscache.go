package cover

// basiscache.go — a byte-bounded free list of scratch Incremental
// solvers for the paper's Check(FHD,k). Its FHD oracle borrows one per
// guesses invocation; recycling them keeps their LP buffers alive
// across borrows instead of allocating per subproblem.

// DefaultBasisCacheBytes bounds a BasisCache constructed with
// NewBasisCache(0): 16 MiB, an eighth of solve.DefaultCacheBytes.
const DefaultBasisCacheBytes int64 = 16 << 20

// BasisCache is a free list of Incremental solvers, bounded by their
// approximate retained bytes, that also sums the LP counters of every
// solver returned to it. It is NOT safe for concurrent use; share one
// only within a single deepening loop.
//
// Only Check(FHD,k) draws from it (through core.FHDOptions.Basis or a
// private pool). The solvers keep no simplex basis: every solve builds
// its LP afresh. The name, NewBasisCache, core.FHDOptions.Basis, the
// ignored ordenc.NewFHWSearch parameter and the basis trace counters
// remain only because the repository benchmark (perfbench/) compiles
// against them or reads them; they go with the benchmark's next
// revision.
type BasisCache struct {
	free  []*Incremental
	bytes int64 // Σ approxBytes over free
	max   int64
	lp    LPStats // counters of every solver Put back
	stats BasisCacheStats
}

// BasisCacheStats counts the cache's traffic.
type BasisCacheStats struct {
	Borrows   int // Get calls
	Evictions int // returned solvers dropped by the byte budget
}

// NewBasisCache returns a cache bounded by maxBytes approximate
// retained bytes (0 = DefaultBasisCacheBytes).
func NewBasisCache(maxBytes int64) *BasisCache {
	if maxBytes <= 0 {
		maxBytes = DefaultBasisCacheBytes
	}
	return &BasisCache{max: maxBytes}
}

// Get borrows a solver with an empty stack. The caller must return it
// with Put.
func (bc *BasisCache) Get() *Incremental {
	bc.stats.Borrows++
	n := len(bc.free)
	if n == 0 {
		return new(Incremental)
	}
	ic := bc.free[n-1]
	bc.free = bc.free[:n-1]
	bc.bytes -= ic.approxBytes()
	return ic
}

// Put returns a borrowed solver: its LP counters are folded into the
// cache's, its stack is cleared, and it is pooled unless that would
// push the pooled bytes past the budget.
func (bc *BasisCache) Put(ic *Incremental) {
	bc.lp.Add(ic.lp.stats)
	ic.lp.stats = LPStats{}
	ic.stack = ic.stack[:0]
	b := ic.approxBytes()
	if bc.bytes+b > bc.max {
		bc.stats.Evictions++
		return
	}
	bc.free = append(bc.free, ic)
	bc.bytes += b
}

// Stats returns the traffic counters.
func (bc *BasisCache) Stats() BasisCacheStats { return bc.stats }

// LPStats returns the LP counters of every solver Put back so far:
// once all borrowed solvers are back, the
// solve-path mix of every Solve the cache's solvers ran.
func (bc *BasisCache) LPStats() LPStats { return bc.lp }
