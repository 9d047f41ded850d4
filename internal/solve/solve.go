// Package solve orchestrates the paper's decomposition algorithms into
// an end-to-end width service: a preprocessing pipeline (drop empty /
// duplicate / subsumed edges, split on biconnected components of the
// primal graph), a concurrent portfolio that races bounded strategies —
// clique lower bounds, iterative deepening on Check(HD,k) and
// Check(GHD,k)-via-BIP starting at the clique bound, the SAT ordering
// encoding (LP-priced for fhw), the exact elimination DP for small
// pieces, min-fill upper bounds —
// under context deadlines with a shared incumbent, recombination of the
// per-piece witnesses into one validated decomposition, and a
// fingerprint-keyed result cache (bounded by entries and by retained
// bytes) for repeated queries. cmd/hgserve exposes it over HTTP;
// cmd/hgwidth and the E12 corpus experiment in cmd/hgbench drive it
// from the command line.
package solve

import (
	"context"
	"fmt"
	"math/big"
	"runtime"
	"sync"
	"time"

	"hypertree/internal/decomp"
	"hypertree/internal/hypergraph"
	"hypertree/internal/telemetry"
)

// Measure selects which width measure to compute.
type Measure int

// The width measures of the paper, in increasing generality.
const (
	HW  Measure = iota // hypertree width (Check(HD,k) deepening)
	GHW                // generalized hypertree width
	FHW                // fractional hypertree width
)

func (m Measure) String() string {
	switch m {
	case HW:
		return "hw"
	case GHW:
		return "ghw"
	case FHW:
		return "fhw"
	}
	return fmt.Sprintf("Measure(%d)", int(m))
}

// Kind returns the decomposition kind a witness for m must validate as.
func (m Measure) Kind() decomp.Kind {
	switch m {
	case HW:
		return decomp.HD
	case GHW:
		return decomp.GHD
	default:
		return decomp.FHD
	}
}

// ParseMeasure parses "hw", "ghw" or "fhw".
func ParseMeasure(s string) (Measure, error) {
	switch s {
	case "hw":
		return HW, nil
	case "ghw", "":
		return GHW, nil
	case "fhw":
		return FHW, nil
	}
	return 0, fmt.Errorf("solve: unknown measure %q (want hw, ghw or fhw)", s)
}

// defaultExactVertexLimit gates the exact elimination DP: beyond this
// many vertices per block the DP's dense tables stop paying off and the
// deepening/heuristic strategies carry the portfolio.
const defaultExactVertexLimit = 20

// Options configure one Solve call.
type Options struct {
	// Measure selects the width measure (default GHW).
	Measure Measure
	// Timeout bounds the whole solve; 0 means the caller's context
	// alone governs cancellation. On expiry Solve returns the best
	// bounds proven so far with Partial set.
	Timeout time.Duration
	// ExactVertexLimit overrides the exact-DP size gate (0 = 20).
	ExactVertexLimit int
	// NoPreprocess disables the simplification pipeline and solves the
	// input as a single piece.
	NoPreprocess bool
	// Validate re-validates the stitched witness against the original
	// hypergraph before returning (the property tests always do; the
	// server does on /decompose).
	Validate bool
	// SATOrdLimit gates the ordering-based SAT strategy by block vertex
	// count: blocks larger than the limit skip it (the encoding is
	// Θ(n³) clauses). 0 applies the default (64); negative disables the
	// strategy entirely.
	SATOrdLimit int
}

// Provenance classifies the guarantee behind a result's upper bound —
// the interval contract's third field next to [Lower, Upper]. Lower
// bounds are always proofs (clique bounds, rejected deepening levels,
// UNSAT sweeps) regardless of provenance.
type Provenance string

// The provenance ladder, strongest first.
const (
	// ProvExact: Lower == Upper with a witness attaining it.
	ProvExact Provenance = "exact"
	// ProvApproxCertified: the witness came from an approximation
	// strategy with a published guarantee shape and a per-run
	// structural certificate (internal/approx LogN, or improvement
	// passes over such a witness).
	ProvApproxCertified Provenance = "approx-certified"
	// ProvHeuristic: the witness is sound (it validates) but carries no
	// a-priori quality guarantee (min-fill, trivial single-bag covers,
	// unproven deepening acceptances).
	ProvHeuristic Provenance = "heuristic"
)

// provRank orders provenances by guarantee strength.
func provRank(p Provenance) int {
	switch p {
	case ProvExact:
		return 2
	case ProvApproxCertified:
		return 1
	default:
		return 0
	}
}

// weakerProv returns the weaker of two provenances — the merge rule
// across blocks: an interval is only as certified as its least
// certified piece.
func weakerProv(a, b Provenance) Provenance {
	if provRank(b) < provRank(a) {
		return b
	}
	return a
}

// PreStats reports what the preprocessing pipeline did.
type PreStats struct {
	IsolatedVertices int // vertices occurring in no edge
	RemovedEdges     int // empty, duplicate and subsumed edges dropped
	Blocks           int // independently solved pieces
}

// Result is the outcome of one solve.
type Result struct {
	Measure Measure
	// Lower and Upper bracket the width. Upper is nil when no witness
	// was found within budget; Lower is always ≥ 1 for non-empty
	// hypergraphs (0 for edge-less ones).
	Lower *big.Rat
	Upper *big.Rat
	// Exact reports Lower == Upper with Witness attaining it.
	Exact bool
	// Witness is a decomposition of the original hypergraph of width
	// Upper (nil iff Upper is nil), validating as Measure.Kind().
	Witness *decomp.Decomp
	// Strategy names the portfolio strategy that produced the witness
	// of the widest block.
	Strategy string
	// Provenance classifies the guarantee behind Upper: ProvExact,
	// ProvApproxCertified or ProvHeuristic (weakest across blocks).
	// Empty only in the no-witness degenerate case (Upper == nil).
	Provenance Provenance
	// Partial reports that the deadline or cancellation cut the search
	// short; Lower/Upper still hold whatever was proven.
	Partial bool
	// FromCache reports the result was served from the cache.
	FromCache bool
	Elapsed   time.Duration
	Pre       PreStats
}

// Solver is a reusable, concurrency-safe solving front end with an
// optional result cache and a bounded worker pool for per-block
// parallelism. The zero value is not usable; construct with NewSolver.
type Solver struct {
	cache   *Cache
	workers int

	mu       sync.Mutex
	inflight map[Key]*call
}

// call tracks one in-flight cache-keyed computation so concurrent
// identical queries are computed once (singleflight).
type call struct {
	done    chan struct{}
	res     *Result
	err     error
	h       *hypergraph.Hypergraph
	relabel []int
}

// NewSolver returns a Solver with a cache of cacheSize entries
// (0 = default size, negative = no cache) under the default byte bound,
// and the given per-solve block parallelism (0 = GOMAXPROCS).
func NewSolver(cacheSize, workers int) *Solver {
	var c *Cache
	if cacheSize >= 0 {
		c = NewCache(cacheSize)
	}
	return NewSolverWithCache(c, workers)
}

// NewSolverWithCache returns a Solver using the given cache (nil
// disables caching) and per-solve block parallelism (0 = GOMAXPROCS).
// Use NewCacheBytes to bound the cache by retained bytes as well as
// entry count.
func NewSolverWithCache(c *Cache, workers int) *Solver {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Solver{cache: c, workers: workers, inflight: map[Key]*call{}}
}

// Cache exposes the solver's cache (nil if disabled).
func (s *Solver) Cache() *Cache { return s.cache }

// Solve computes the requested width measure of h. See Solver.Solve.
func Solve(ctx context.Context, h *hypergraph.Hypergraph, opt Options) (*Result, error) {
	return NewSolver(-1, 0).Solve(ctx, h, opt)
}

// Solve runs the pipeline: cache lookup, simplification, per-block
// portfolio (fanned out over the worker pool), witness stitching, cache
// fill. A deadline or cancellation yields a Partial result, not an
// error; errors are reserved for unusable input and internal failures.
//
// When the context carries a telemetry.Trace (telemetry.WithTrace), the
// pipeline records preprocessing stats, every strategy start/stop and
// deepening step, and the counters of what the engines and caches did
// for this request; untraced requests run the exact same path with a
// nil trace (pinned by TestSolveUntracedAllocs).
func (s *Solver) Solve(ctx context.Context, h *hypergraph.Hypergraph, opt Options) (*Result, error) {
	res, err := s.doSolve(ctx, h, opt)
	s.record(telemetry.FromContext(ctx), res, err)
	return res, err
}

// doSolve is Solve without the metrics/trace bookkeeping.
func (s *Solver) doSolve(ctx context.Context, h *hypergraph.Hypergraph, opt Options) (*Result, error) {
	start := time.Now()
	if h == nil {
		return nil, fmt.Errorf("solve: nil hypergraph")
	}
	if opt.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opt.Timeout)
		defer cancel()
	}

	if s.cache == nil {
		r, err := s.solve(ctx, h, opt)
		if r != nil {
			r.Elapsed = time.Since(start)
		}
		return r, err
	}

	key, relabel := canonKey(opt, h)
	if e, ok := s.cache.getEntry(key); ok {
		if r, ok := adaptCached(e, h, relabel, opt); ok {
			r.Elapsed = time.Since(start)
			return r, nil
		}
	}

	// Singleflight: one computation per key at a time; concurrent
	// identical queries wait for the leader and reuse its result if it
	// came out exact — a partial result reflects the leader's budget,
	// so a follower with time left computes its own.
	s.mu.Lock()
	if c, ok := s.inflight[key]; ok {
		s.mu.Unlock()
		select {
		case <-c.done:
			if c.err == nil && c.res != nil && c.res.Exact {
				e := &entry{res: c.res, h: c.h, relabel: c.relabel}
				if r, ok := adaptCached(e, h, relabel, opt); ok {
					r.Elapsed = time.Since(start)
					return r, nil
				}
			}
		case <-ctx.Done():
			// Budget expired while waiting on the leader: fall through —
			// solve returns a fast Partial on a dead context, honoring
			// the no-error-on-deadline contract.
		}
		r, err := s.solve(ctx, h, opt)
		if r != nil {
			r.Elapsed = time.Since(start)
		}
		return r, err
	}
	c := &call{done: make(chan struct{}), h: h, relabel: relabel}
	s.inflight[key] = c
	s.mu.Unlock()

	res, err := s.solve(ctx, h, opt)
	c.res, c.err = res, err
	if err == nil {
		s.cache.putEntry(key, &entry{res: res, h: h, relabel: relabel})
	}
	s.mu.Lock()
	delete(s.inflight, key)
	s.mu.Unlock()
	close(c.done)

	if err != nil {
		return nil, err
	}
	// Return a private copy: res is now shared with the cache and any
	// singleflight followers, so it must stay immutable.
	out := *res
	out.Elapsed = time.Since(start)
	return &out, nil
}

// adaptCached turns a cache (or singleflight) entry into a result for
// the current query: a private copy with FromCache set, the witness
// translated onto the current hypergraph when the populating request's
// differs, and re-validated when the caller asked for validation.
// Returns false if adaptation fails; the caller then solves directly.
func adaptCached(e *entry, h *hypergraph.Hypergraph, relabel []int, opt Options) (*Result, bool) {
	r := *e.res
	r.FromCache = true
	if r.Witness != nil && e.h != h {
		if e.relabel == nil {
			return nil, false
		}
		w, err := translateWitness(r.Witness, e.relabel, h, relabel)
		if err != nil {
			return nil, false
		}
		r.Witness = w
	}
	if opt.Validate && r.Witness != nil {
		if err := r.Witness.Validate(opt.Measure.Kind()); err != nil {
			return nil, false
		}
	}
	return &r, true
}

// translateWitness maps a decomposition of one hypergraph onto a
// key-equal other one: canonical relabelings compose into a vertex map,
// and key equality makes edge indices correspond one to one, so
// decomp.Combine over that one part does the copy. The result shares
// its cover maps with d; like every cached result (see Cache.Get) it is
// read-only.
func translateWitness(d *decomp.Decomp, fromRelabel []int, hTo *hypergraph.Hypergraph, toRelabel []int) (*decomp.Decomp, error) {
	inv := make(map[int]int, len(toRelabel)) // canonical id → hTo vertex
	for v, id := range toRelabel {
		if id >= 0 {
			inv[id] = v
		}
	}
	vmap := make([]int, len(fromRelabel)) // d's vertex → hTo vertex, or -1
	for v, id := range fromRelabel {
		vmap[v] = -1
		if vTo, ok := inv[id]; ok {
			vmap[v] = vTo
		}
	}
	for _, n := range d.Nodes {
		missing := -1
		n.Bag.ForEach(func(v int) bool {
			if v >= len(vmap) || vmap[v] < 0 {
				missing = v
			}
			return missing < 0
		})
		if missing >= 0 {
			return nil, fmt.Errorf("solve: witness vertex %d has no counterpart", missing)
		}
	}
	return decomp.Combine(hTo, []decomp.Part{{D: d, VertexMap: vmap}})
}

// solve is the uncached pipeline.
func (s *Solver) solve(ctx context.Context, h *hypergraph.Hypergraph, opt Options) (*Result, error) {
	res := &Result{Measure: opt.Measure}
	p := simplify(h, opt.Measure, opt.NoPreprocess)
	res.Pre = PreStats{IsolatedVertices: p.isolated, RemovedEdges: p.removed, Blocks: len(p.blocks)}
	// Guarded: Eventf's variadic args would allocate even for a nil
	// trace, and the untraced path must not.
	if tr := telemetry.FromContext(ctx); tr != nil {
		tr.Eventf("preprocess", "isolated=%d removed=%d blocks=%d",
			p.isolated, p.removed, len(p.blocks))
	}

	if len(p.blocks) == 0 {
		// No non-empty edges: every width measure is 0 by convention.
		res.Lower, res.Upper, res.Exact = new(big.Rat), new(big.Rat), true
		res.Strategy, res.Provenance = "trivial", ProvExact
		return res, nil
	}

	// Extract each block as a compact standalone instance and fan the
	// portfolio out over the worker pool.
	pieces := make([]piece, len(p.blocks))
	for i, es := range p.blocks {
		pieces[i].bh, pieces[i].vmap, pieces[i].emap = h.ExtractEdges(es)
	}
	workers := s.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i := range pieces {
		wg.Add(1)
		go func(pc *piece, blk int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			pc.out = solveBlock(ctx, pc.bh, opt, blk)
		}(&pieces[i], i)
	}
	wg.Wait()

	if err := mergeBlocks(res, h, pieces, opt); err != nil {
		return nil, err
	}
	return res, nil
}

// piece is one extracted block with its portfolio outcome.
type piece struct {
	bh   *hypergraph.Hypergraph
	vmap []int
	emap []int
	out  blockResult
}

// mergeBlocks folds the per-block outcomes into res: the width of the
// whole is the maximum over blocks, so the max of the lower bounds is a
// lower bound and the max of the upper bounds is attained by the
// stitched decomposition. A block whose budget expired before any
// strategy produced a witness does not void the interval anymore: the
// block's single-bag trivial witness (always constructible — solveBlock
// offers it uncancellably, so this fallback is defense in depth)
// completes the stitch, the surviving per-block lower bounds and
// partial witnesses are preserved, and only Exact/Provenance degrade.
func mergeBlocks(res *Result, h *hypergraph.Hypergraph, pieces []piece, opt Options) error {
	res.Lower = new(big.Rat)
	res.Exact = true
	res.Provenance = ProvExact
	haveAll := true
	var parts []decomp.Part
	for i := range pieces {
		b := &pieces[i].out
		if b.lower != nil && b.lower.Cmp(res.Lower) > 0 {
			res.Lower = b.lower
		}
		res.Exact = res.Exact && b.exact
		res.Partial = res.Partial || b.partial
		if b.witness == nil {
			if d := trivialDecomp(pieces[i].bh); d != nil {
				b.witness, b.upper = d, d.Width()
				b.strategy, b.prov = "trivial-ub", ProvHeuristic
				b.exact, b.partial = false, true
				res.Exact, res.Partial = false, true
			} else {
				// Unreachable for non-empty blocks; keep the proven
				// lower bound and the partial flag.
				haveAll = false
				res.Exact = false
				continue
			}
		}
		if res.Upper == nil || b.upper.Cmp(res.Upper) > 0 {
			res.Upper = b.upper
			res.Strategy = b.strategy
		}
		res.Provenance = weakerProv(res.Provenance, b.prov)
		parts = append(parts, decomp.Part{D: b.witness, VertexMap: pieces[i].vmap, EdgeMap: pieces[i].emap})
	}
	if !haveAll {
		res.Upper, res.Witness, res.Provenance = nil, nil, ""
		return nil
	}
	w, err := decomp.Combine(h, parts)
	if err != nil {
		return fmt.Errorf("solve: stitching witness: %w", err)
	}
	res.Witness = w
	if got := w.Width(); got.Cmp(res.Upper) != 0 {
		return fmt.Errorf("solve: stitched width %s != max block width %s",
			got.RatString(), res.Upper.RatString())
	}
	if opt.Validate {
		if err := w.Validate(opt.Measure.Kind()); err != nil {
			return fmt.Errorf("solve: stitched witness invalid: %w", err)
		}
	}
	if res.Exact && res.Lower.Cmp(res.Upper) != 0 {
		// All blocks exact but bounds disagree can only mean a bug.
		return fmt.Errorf("solve: exact result with bounds [%s, %s]",
			res.Lower.RatString(), res.Upper.RatString())
	}
	return nil
}
