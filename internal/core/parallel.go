package core

// parallel.go — the concurrent face of the cover-oracle engine.
//
// A Check(·,k) run with Parallelism > 1 exploits cores in two places.
// At the root, the top-level guess list is explored speculatively: W
// workers partition the candidate list by the index of the FIRST atom
// pushed (worker w owns indices ≡ w mod W — every λ multiset
// {i1 < i2 < …} is explored by exactly the worker owning i1, so the
// partition is exhaustive and disjoint), and the first worker to accept
// a guess cancels the rest. Below the root, tryChildren offloads the
// independent [bag]-components of an accepted guess to extra workers
// while CPU-budget tokens are free — the structural parallelism the
// paper's recursion exposes: components after a bag is removed share no
// vertices, so their subproblems are independent.
//
// The shared state is sharded, everything per-guess stays private. The
// interner and memo table are split into fingerprint-addressed shards
// under per-shard mutexes; a set's global id is (local id × shards +
// shard), so ids are dense per shard and stable for the run. Each
// worker owns a full engine — oracle, DynComponents free list, arena,
// depth-indexed scratch, and for FHD its own BasisCache of LP solvers
// — so no λ stack, LP solver or component structure
// ever crosses a goroutine. Memo nodes are published under the shard
// lock (release/acquire orders the arena writes before any reader), and
// the engines themselves stay alive until build has walked the winning
// tree.
//
// Parallelism = 1 bypasses every piece of this machinery: the engine's
// intern/memo helpers hit the private map directly and the run is
// bit-for-bit the serial search, preserving the allocation pins.

import (
	"runtime"
	"sync"
	"sync/atomic"

	"hypertree/internal/decomp"
	"hypertree/internal/hypergraph"
)

// Budget is a CPU-token budgeter: a pool of "extra worker" tokens that
// intra-solve engine workers and portfolio strategies draw from so
// their combined goroutine count tracks GOMAXPROCS instead of
// multiplying. Acquisition never blocks — a worker that gets no token
// simply does the work inline — so the budget can be shared freely
// without deadlock. A nil *Budget is usable and always empty.
type Budget struct{ tokens atomic.Int64 }

// NewBudget returns a budget of n extra-worker tokens (n < 0 = 0).
func NewBudget(n int) *Budget {
	b := &Budget{}
	if n > 0 {
		b.tokens.Store(int64(n))
	}
	return b
}

// TryAcquire takes one token if any is free. Never blocks.
func (b *Budget) TryAcquire() bool {
	if b == nil {
		return false
	}
	for {
		n := b.tokens.Load()
		if n <= 0 {
			return false
		}
		if b.tokens.CompareAndSwap(n, n-1) {
			return true
		}
	}
}

// Release returns one token.
func (b *Budget) Release() {
	if b != nil {
		b.tokens.Add(1)
	}
}

// Free reports the tokens currently available.
func (b *Budget) Free() int {
	if b == nil {
		return 0
	}
	if n := b.tokens.Load(); n > 0 {
		return int(n)
	}
	return 0
}

// parAutoMinEdges gates the GOMAXPROCS default: instances below this
// size solve in microseconds and would pay more in goroutine scheduling
// and shard setup than the fan-out returns. An explicit Parallelism > 1
// is always obeyed (the differential tests force 4 on small instances).
const parAutoMinEdges = 8

// effectiveParallelism resolves a Parallelism option against the host:
// 1 (or negative) = serial, an explicit n > 1 is obeyed as given, and
// the 0 default means GOMAXPROCS for instances large enough to amortize
// the machinery.
func effectiveParallelism(requested int, h *hypergraph.Hypergraph) int {
	if requested == 1 || requested < 0 {
		return 1
	}
	if requested > 1 {
		return requested
	}
	p := runtime.GOMAXPROCS(0)
	if p <= 1 || h.NumEdges() < parAutoMinEdges {
		return 1
	}
	return p
}

// parShards is the shard count of the parallel interner and memo table.
// A power of two: the shard index is fingerprint & (parShards-1).
const parShards = 16

// lockShard acquires mu, counting the acquisitions that had to wait
// into the run's contention counter (hg_engine_parallel_shard_contention).
func lockShard(mu *sync.Mutex, contention *atomic.Int64) {
	if !mu.TryLock() {
		contention.Add(1)
		mu.Lock()
	}
}

// shardedIntern is a concurrency-safe interner: sets are routed to one
// of parShards plain Interners by fingerprint, and the global id is
// local id × parShards + shard — dense within a shard, unique and
// fingerprint-stable across the run (the same set always lands in the
// same shard and interns once, so concurrent callers agree on its id).
type shardedIntern struct {
	shards     [parShards]internShard
	contention *atomic.Int64
}

type internShard struct {
	mu sync.Mutex
	in hypergraph.Interner
	// Pad to a cache line so neighboring shard locks don't false-share.
	_ [40]byte
}

func (si *shardedIntern) intern(s hypergraph.VertexSet) (int32, hypergraph.VertexSet) {
	fp := s.Fingerprint()
	idx := fp & (parShards - 1)
	sh := &si.shards[idx]
	lockShard(&sh.mu, si.contention)
	id, canon, _ := sh.in.InternHashed(fp, s)
	sh.mu.Unlock()
	return int32(id)*parShards + int32(idx), canon
}

// shardedMemo is the concurrent memo table: engineKeys are routed to a
// shard by a mixed hash of their interned ids.
type shardedMemo struct {
	shards     [parShards]memoShard
	contention *atomic.Int64
}

type memoShard struct {
	mu sync.Mutex
	m  map[engineKey]*engineNode
	_  [40]byte
}

func (k engineKey) shard() int {
	h := uint64(uint32(k.c))*0x9e3779b97f4a7c15 ^
		uint64(uint32(k.a))*0xbf58476d1ce4e5b9 ^
		uint64(uint32(k.b))*0x94d049bb133111eb
	return int((h >> 32) & (parShards - 1))
}

func (sm *shardedMemo) get(key engineKey) (*engineNode, bool) {
	sh := &sm.shards[key.shard()]
	lockShard(&sh.mu, sm.contention)
	n, ok := sh.m[key]
	sh.mu.Unlock()
	return n, ok
}

// put publishes a solved subproblem. A present non-nil node always
// wins: concurrent workers may solve the same key redundantly (both
// results are valid — the search is deterministic per subproblem), and
// a speculative root worker's failure on its slice of the guess list
// (a nil under the root key) must not shadow another worker's witness.
func (sm *shardedMemo) put(key engineKey, n *engineNode) {
	sh := &sm.shards[key.shard()]
	lockShard(&sh.mu, sm.contention)
	if sh.m == nil {
		sh.m = map[engineKey]*engineNode{}
	}
	if old, ok := sh.m[key]; !ok || (old == nil && n != nil) {
		sh.m[key] = n
	}
	sh.mu.Unlock()
}

// errOracle is implemented by oracles that can fail sideways (subedge
// closure caps); parRun collects the first error across workers.
type errOracle interface{ oracleErr() error }

// retirer is implemented by oracles holding per-worker state to hand
// back when their run retires (the FHD oracle's per-worker BasisCache).
type retirer interface{ retire() }

// parRun owns the shared state of one parallel engine run.
type parRun struct {
	h         *hypergraph.Hypergraph
	newOracle func() coverOracle
	budget    *Budget

	intern     shardedIntern
	memo       shardedMemo
	contention atomic.Int64

	// done is the run's merged cancellation channel: closed by the
	// external watcher (caller cancellation) or by the first speculative
	// root worker to accept. stopWatch retires the watcher goroutine.
	done      chan struct{}
	closeOnce sync.Once
	stopWatch chan struct{}
	external  atomic.Bool // the close came from the caller's channel

	mu      sync.Mutex
	engines []*engine // every engine created; kept alive for build/finish
	free    []*engine // engines with no task, clean and reusable
	stats   EngineStats
	sink    *EngineStats
}

func newParRun(h *hypergraph.Hypergraph, newOracle func() coverOracle, extDone <-chan struct{}, budget *Budget, sink *EngineStats) *parRun {
	p := &parRun{h: h, newOracle: newOracle, budget: budget, sink: sink, done: make(chan struct{})}
	p.intern.contention = &p.contention
	p.memo.contention = &p.contention
	if extDone != nil {
		p.stopWatch = make(chan struct{})
		go func() {
			select {
			case <-extDone:
				p.external.Store(true)
				p.cancel()
			case <-p.stopWatch:
			}
		}()
	}
	return p
}

// cancel closes the run's done channel, unwinding every worker at its
// next poll.
func (p *parRun) cancel() { p.closeOnce.Do(func() { close(p.done) }) }

// getEngine borrows a worker engine: a recycled one when a task has
// finished cleanly, a fresh one otherwise. Engines that unwound with a
// canceled panic are mid-recursion and never re-enter the free list.
func (p *parRun) getEngine() *engine {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		e := p.free[n-1]
		p.free = p.free[:n-1]
		p.mu.Unlock()
		e.specStride, e.specOffset, e.specRoot = 0, 0, false
		return e
	}
	p.mu.Unlock()
	e := newEngine(p.h, p.newOracle(), false, p.done)
	e.par = p
	p.mu.Lock()
	p.engines = append(p.engines, e)
	p.mu.Unlock()
	return e
}

func (p *parRun) putEngine(e *engine) {
	p.mu.Lock()
	p.free = append(p.free, e)
	p.mu.Unlock()
}

func (p *parRun) addStats(s EngineStats) {
	p.mu.Lock()
	p.stats.Add(s)
	p.mu.Unlock()
}

// oracleErr returns the first sideways failure any worker's oracle
// recorded.
func (p *parRun) oracleErr() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, e := range p.engines {
		if eo, ok := e.oracle.(errOracle); ok {
			if err := eo.oracleErr(); err != nil {
				return err
			}
		}
	}
	return nil
}

// finish retires the run: stops the cancel watcher, flushes every
// worker engine's counters (routed into p.stats by flushStats) plus the
// contention tally, publishes the aggregate once, and lets oracles hand
// back per-worker state (retirer).
func (p *parRun) finish() {
	if p.stopWatch != nil {
		close(p.stopWatch)
	}
	for _, e := range p.engines {
		e.finish()
		if r, ok := e.oracle.(retirer); ok {
			r.retire()
		}
	}
	p.stats.ParShardContention += p.contention.Load()
	flushRunStats(p.stats, p.sink)
}

// runParallel is the parallel counterpart of the serial entry-point
// body: decompose the root with speculative workers, build the witness
// from the shared memo. It returns (nil, nil) for a proven "no",
// panics canceled{} when the caller's channel fired before a witness
// was found (the Ctx wrappers recover this into ctx.Err()), and
// returns the first oracle error when no worker could finish its slice
// cleanly. A witness always wins over another worker's oracle error:
// the witness is checked construction, so it is sound regardless of
// what a sibling's subedge generation did.
func runParallel(h *hypergraph.Hypergraph, newOracle func() coverOracle, done <-chan struct{}, workers int, budget *Budget, sink *EngineStats) (*decomp.Decomp, error) {
	if budget == nil {
		budget = NewBudget(workers - 1)
	}
	p := newParRun(h, newOracle, done, budget, sink)
	defer p.finish()

	// The caller's goroutine is worker 0; each extra root worker costs a
	// budget token, so portfolio strategies racing this run cannot
	// oversubscribe the host between them.
	spec := 1
	for spec < workers && budget.TryAcquire() {
		spec++
	}
	type wres struct {
		key      engineKey
		ok       bool
		canceled bool
		panicked any
	}
	results := make([]wres, spec)
	var winner atomic.Int32
	winner.Store(-1)
	rootC := h.Vertices()
	rootW := hypergraph.NewVertexSet(h.NumVertices())
	runWorker := func(w int) {
		defer func() {
			if r := recover(); r != nil {
				if _, isCancel := r.(canceled); isCancel {
					results[w].canceled = true
					return
				}
				results[w].panicked = r
			}
		}()
		e := p.getEngine()
		e.specStride, e.specOffset, e.specRoot = spec, w, true
		key, ok := e.decompose(rootC, engineState{a: rootW})
		p.putEngine(e)
		results[w] = wres{key: key, ok: ok}
		if ok && winner.CompareAndSwap(-1, int32(w)) {
			p.cancel() // first acceptance wins; siblings unwind at their next poll
		}
	}
	p.addStats(EngineStats{ParWorkers: int64(spec)})
	var wg sync.WaitGroup
	for w := 1; w < spec; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer budget.Release()
			runWorker(w)
		}(w)
	}
	runWorker(0)
	wg.Wait()

	for i := range results {
		if results[i].panicked != nil {
			panic(results[i].panicked)
		}
	}
	win := int(winner.Load())
	if win < 0 {
		for i := range results {
			if results[i].canceled {
				// No witness and at least one worker unwound: the only
				// closer of done without a winner is the caller.
				panic(canceled{})
			}
		}
		if err := p.oracleErr(); err != nil {
			// A capped subedge closure poisons failures, so a clean "no"
			// cannot be trusted; the serial path errors here too.
			return nil, err
		}
		return nil, nil
	}
	canceledSpec := int64(0)
	for i := range results {
		if results[i].canceled {
			canceledSpec++
		}
	}
	p.addStats(EngineStats{ParSpecCanceled: canceledSpec})
	d := decomp.New(h)
	e := p.getEngine()
	e.build(d, -1, results[win].key, nil)
	p.putEngine(e)
	return d, nil
}

// parChildren is tryChildren's concurrent arm: decompose the
// [bag]-components of one accepted guess with the tail offloaded to
// extra workers while budget tokens last, the head solved inline on
// the calling engine. comps are parent-owned DynComp records — stable
// for the duration because the parent blocks in Wait before touching
// its component structure again, and each spawned worker interns what
// it keeps before doing anything else. Child keys are appended to
// e.childBuf in component order.
func (e *engine) parChildren(bag hypergraph.VertexSet, g engineGuess, comps []*hypergraph.DynComp) bool {
	p := e.par
	n := len(comps)
	split := n
	for split > 1 && p.budget.TryAcquire() {
		split--
	}
	type cres struct {
		key      engineKey
		ok       bool
		canceled bool
		panicked any
	}
	var results []cres
	var wg sync.WaitGroup
	// A cancellation panic out of the inline head below must not leave
	// the offloaded siblings running past the run's finish, which
	// recycles their engines; they unwind at their next poll.
	defer wg.Wait()
	if split < n {
		results = make([]cres, n-split)
		e.stats.ParWorkers += int64(n - split)
		for i := split; i < n; i++ {
			// Intern the child connector up front: the worker must not
			// race the parent's scratch buffers.
			var cst engineState
			if g.childState != nil {
				cst = *g.childState
			} else {
				e.wc = e.wc.CopyFrom(comps[i].EdgeVerts).IntersectInPlace(bag)
				_, canon := e.internSet(e.wc)
				cst = engineState{a: canon}
			}
			wg.Add(1)
			go func(slot int, comp *hypergraph.DynComp, cst engineState) {
				defer wg.Done()
				defer p.budget.Release()
				defer func() {
					if r := recover(); r != nil {
						if _, isCancel := r.(canceled); isCancel {
							results[slot].canceled = true
							return
						}
						results[slot].panicked = r
					}
				}()
				we := p.getEngine()
				we.dynSeed = comp.EdgeVerts
				key, ok := we.decompose(comp.Verts, cst)
				p.putEngine(we)
				results[slot] = cres{key: key, ok: ok}
			}(i-split, comps[i], cst)
		}
	}
	ok := true
	for _, comp := range comps[:split] {
		var cst engineState
		if g.childState != nil {
			cst = *g.childState
		} else {
			e.wc = e.wc.CopyFrom(comp.EdgeVerts).IntersectInPlace(bag)
			cst = engineState{a: e.wc}
		}
		e.dynSeed = comp.EdgeVerts
		ck, cok := e.decompose(comp.Verts, cst)
		if !cok {
			ok = false
			break
		}
		e.childBuf = append(e.childBuf, ck)
	}
	wg.Wait()
	for i := range results {
		if results[i].panicked != nil {
			panic(results[i].panicked)
		}
	}
	for i := range results {
		if results[i].canceled {
			// A worker unwound under us: the run is being canceled (by
			// the caller or a winning speculative sibling); join in.
			panic(canceled{})
		}
	}
	if !ok {
		return false
	}
	for i := range results {
		if !results[i].ok {
			return false
		}
		e.childBuf = append(e.childBuf, results[i].key)
	}
	return true
}

// internSet interns s for this run — the engine's private interner when
// serial, the run-shared sharded one when parallel — returning the id
// and the stable canonical copy.
func (e *engine) internSet(s hypergraph.VertexSet) (int32, hypergraph.VertexSet) {
	if e.par == nil {
		id, canon, _ := e.intern.Intern(s)
		return int32(id), canon
	}
	return e.par.intern.intern(s)
}

// memoGet looks key up in this run's memo table.
func (e *engine) memoGet(key engineKey) (*engineNode, bool) {
	if e.par == nil {
		n, ok := e.memo[key]
		return n, ok
	}
	return e.par.memo.get(key)
}

// memoPut publishes a solved subproblem.
func (e *engine) memoPut(key engineKey, n *engineNode) {
	if e.par == nil {
		e.memo[key] = n
		return
	}
	e.par.memo.put(key, n)
}

// specSkip reports whether a root-level first atom belongs to another
// speculative worker's slice of the guess list. Oracles consult it in
// their enumeration loops with firstAtom = "the λ/support stack of this
// subproblem is empty"; only the run's root subproblem (rootActive) is
// partitioned — below the root every worker enumerates in full, so
// shared memo entries mean the same thing for everyone.
func (e *engine) specSkip(firstAtom bool, i int) bool {
	return firstAtom && e.rootActive && e.specStride > 1 && i%e.specStride != e.specOffset
}
