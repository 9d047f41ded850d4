package core

// The cover-oracle engine: one memoized top-down (component, state)
// search shared by every tractable Check(·,k) procedure of the paper —
// Check(HD,k) (det-k-decomp), Check(GHD,k) under the bounded intersection
// property (Section 4), Check(FHD,k) for bounded degree (Section 5), and
// Algorithm 3's (k,ε,c)-frac-decomp (Section 6). The procedures are all
// the same recursion: solve subproblem (C, state) by guessing a bag
// cover, splitting C into [bag]-components and recursing. They differ
// only in how a cover is chosen, which is exactly what the coverOracle
// interface captures; the engine owns everything else — subproblem
// interning and memoization, cooperative cancellation, component
// splitting, connector computation and witness reconstruction.
//
// Since PR 6 the engine is incremental in its two hot dimensions.
// Connectivity: each subproblem owns a hypergraph.DynComponents that
// maintains the [bag]-components under push/pop of the oracle's guessed
// atoms (dynAware oracles drive it through the shared λ stack), seeded
// from the parent component's record so re-targeting to a child skips
// the base BFS; per-guess ComponentsOf survives only in the frac-decomp
// oracle, whose bags are not stack-shaped. Memory: memoized data (memo
// nodes, key slices, canonical set words) is carved from geometric
// arenas owned by the run, speculative per-frame state lives in
// mark-rolled buffers on the oracles, and the DynComponents structures
// recycle across runs through a package-level sync.Pool — so a warmed
// Check(·,k) run settles at a small constant number of allocations
// (pinned in alloc_test.go). The FHD oracle's cover-LP solvers recycle
// through cover.BasisCache (see FHDOptions.Basis).

import (
	"sync"

	"hypertree/internal/cover"
	"hypertree/internal/decomp"
	"hypertree/internal/hypergraph"
)

// engineState is the oracle-defined part of a subproblem's identity
// beyond the component itself. For the HD/GHD/FHD checks a is the
// connector W and b is nil; for frac-decomp a is the parent's fractional
// part Ws and b is V(R), the vertices of the parent's integral edges.
type engineState struct {
	a hypergraph.VertexSet
	b hypergraph.VertexSet // nil for pair-state oracles
}

// engineKey identifies a memoized subproblem: the interned ids of the
// component and the state sets (b = -1 when absent).
type engineKey struct{ c, a, b int32 }

// engineNode is the reconstruction record of one accepted subproblem.
type engineNode struct {
	bag      hypergraph.VertexSet
	comp     hypergraph.VertexSet // set only under trim (frac-decomp witness shape)
	cover    cover.Fractional     // over the edges of the witness hypergraph
	children []engineKey
}

// engineGuess is one cover candidate an oracle proposes for a
// subproblem. The engine recurses into the [bag]-components of the
// subproblem's component and, if every child decomposes, materializes
// the witness cover.
type engineGuess struct {
	// bag of the node. May be oracle scratch: the engine clones it
	// before recursing.
	bag hypergraph.VertexSet
	// cover materializes the witness cover of an accepted guess. It is
	// called at most once, synchronously inside try — before the
	// oracle's enumeration state (shared λ stacks, scratch buffers) can
	// move on — so it may capture that state by reference.
	cover func() cover.Fractional
	// childState, when non-nil, is handed unchanged to every child
	// component (frac-decomp passes (Ws, V(S)) down). When nil the
	// engine computes the standard connector bag ∩ V(edges(C')) per
	// child.
	childState *engineState
}

// coverOracle supplies the measure-specific half of the search:
// candidate covers for each subproblem. guesses must call try for each
// candidate, in whatever order it wants to explore them; try returns
// true when the guess was accepted (every child component decomposed),
// upon which enumeration must stop and guesses must return true.
//
// Sets passed to try may be oracle scratch — the engine copies what it
// keeps — but an oracle must assume try re-enters guesses recursively
// for child subproblems: any oracle state that lives across a try call
// must be either per-invocation or append-only.
type coverOracle interface {
	guesses(e *engine, c hypergraph.VertexSet, st engineState, try func(engineGuess) bool) bool
}

// scopeCache memoizes one per-scope value (candidate lists, atom pools)
// under the interned canonical scope set. The interner's dense ids
// index slots; a slot is appended before build runs, so the id-to-slot
// alignment survives even a build that interns further scopes.
type scopeCache[T any] struct {
	intern hypergraph.Interner
	slots  []T
}

// get returns the cached value for scope, building it on first sight.
// scope may be scratch; build receives the stable canonical copy.
func (sc *scopeCache[T]) get(scope hypergraph.VertexSet, build func(canon hypergraph.VertexSet) T) T {
	id, canon, isNew := sc.intern.Intern(scope)
	if isNew {
		var zero T
		sc.slots = append(sc.slots, zero)
		sc.slots[id] = build(canon)
	}
	return sc.slots[id]
}

// dynAware marks oracles whose guess loops mirror their λ/support stack
// into the engine's dynamic component structure via compPush/compPop.
// For such oracles the engine maintains each subproblem's
// [bag]-components incrementally (hypergraph.DynComponents) instead of
// recomputing ComponentsOf per accepted guess; oracles that do not
// mirror their stack (frac-decomp's Ws enumeration has no stack shape)
// keep the recompute path.
type dynAware interface{ dynAware() }

// engine is the state of one Check(·,k) run.
type engine struct {
	h      *hypergraph.Hypergraph // connectivity host: components and connectors
	oracle coverOracle
	intern hypergraph.Interner
	memo   map[engineKey]*engineNode // presence = solved; nil value = known failure
	trim   bool                      // witness bags trimmed to parentBag ∪ comp (Algorithm 3)

	// Cooperative cancellation (cancel.go): when done is non-nil the
	// engine polls it every pollMask+1 steps and unwinds the whole
	// search with a canceled panic.
	done  <-chan struct{}
	steps uint32

	// Scratch buffers; each is fully consumed before any recursive call.
	wc   hypergraph.VertexSet
	ebuf hypergraph.EdgeSet

	// Incremental connectivity (dynAware oracles only): dyn is the
	// borrowed component structure of the subproblem currently
	// enumerating guesses — its stack mirrors the oracle's λ stack — and
	// dynFree recycles structures across subproblems. dynSeed carries
	// the parent component's EdgeVerts across one decompose call so the
	// child's base partition is seeded without a BFS (tryChildren sets
	// it, decompose consumes it).
	useDyn  bool
	dyn     *hypergraph.DynComponents
	dynFree []*hypergraph.DynComponents
	dynSeed hypergraph.VertexSet

	// Epoch arena for permanent (memoized) node data, plus the
	// speculative per-guess scratch it keeps off the heap: depth-indexed
	// bag buffers and mark-rolled child-key / component stacks shared by
	// the whole recursion (see tryChildren).
	arena    nodeArena
	depth    int
	bagBufs  []hypergraph.VertexSet
	childBuf []engineKey
	compBuf  []*hypergraph.DynComp

	// Run counters, accumulated as plain ints (no atomics on the hot
	// path — an engine is single-goroutine) and flushed once in
	// finish() — to the process-wide telemetry counters and, when the
	// caller threaded one through, to sink.
	stats EngineStats
	sink  *EngineStats
}

func newEngine(h *hypergraph.Hypergraph, o coverOracle, trim bool, done <-chan struct{}) *engine {
	_, useDyn := o.(dynAware)
	return &engine{
		h: h, oracle: o, trim: trim, done: done,
		memo:   map[engineKey]*engineNode{},
		wc:     hypergraph.NewVertexSet(h.NumVertices()),
		ebuf:   hypergraph.NewEdgeSet(h.NumEdges()),
		useDyn: useDyn,
	}
}

// compPush mirrors an oracle's λ-stack push into the current
// subproblem's dynamic component structure; key must identify the atom
// uniquely within the oracle's candidate list (the oracles use the
// candidate index). No-op under non-dynAware oracles.
func (e *engine) compPush(key int, set hypergraph.VertexSet) {
	if e.dyn != nil {
		e.dyn.Push(key, set)
	}
}

// compPop mirrors an oracle's λ-stack pop.
func (e *engine) compPop() {
	if e.dyn != nil {
		e.dyn.Pop()
	}
}

// dynPool recycles DynComponents across engine runs: iterative
// deepening builds one engine per level, and a structure's slices (atom
// stack, undo log, component records, BFS scratch) warm up once and then
// serve every later run at zero allocation.
var dynPool = sync.Pool{New: func() any { return &hypergraph.DynComponents{} }}

// getDyn borrows a component structure over scope c, recycling retired
// ones (this run's first, then the cross-run pool). When the caller is
// a child subproblem, seedEV is the parent component's EdgeVerts and the
// base partition is seeded directly ({c} is connected by construction);
// otherwise Reset defers the base BFS to the first query, so subproblems
// whose guesses all reject early never pay it.
func (e *engine) getDyn(c, seedEV hypergraph.VertexSet) *hypergraph.DynComponents {
	var dc *hypergraph.DynComponents
	if n := len(e.dynFree); n > 0 {
		dc = e.dynFree[n-1]
		e.dynFree = e.dynFree[:n-1]
	} else {
		dc = dynPool.Get().(*hypergraph.DynComponents)
	}
	dc.Reset(e.h, c)
	e.stats.DynResets++
	if seedEV != nil {
		dc.SeedBase(seedEV)
		e.stats.DynSeeded++
	}
	return dc
}

// finish releases the engine's pooled structures for later runs. Entry
// points defer it after newEngine; the memoized nodes and arena stay
// with the engine (build reads them), only the dyn structures move.
func (e *engine) finish() {
	for _, dc := range e.dynFree {
		dynPool.Put(dc)
	}
	e.dynFree = e.dynFree[:0]
	e.flushStats()
}

// poll checks for cancellation every pollMask+1 calls. Oracles call it
// from their guess loops; the engine calls it once per subproblem.
func (e *engine) poll() {
	if e.done != nil {
		if e.steps++; e.steps&pollMask == 0 {
			pollCancel(e.done)
		}
	}
}

// decompose solves subproblem (c, st) and returns its memo key together
// with whether it is solvable. Both arguments may be scratch-backed:
// they are interned immediately and replaced by stable canonical copies.
func (e *engine) decompose(c hypergraph.VertexSet, st engineState) (engineKey, bool) {
	e.poll()
	// Consume the base seed unconditionally — a memo hit must not leak
	// it to the next decompose call.
	seedEV := e.dynSeed
	e.dynSeed = nil
	cid, c, _ := e.intern.Intern(c)
	aid, a, _ := e.intern.Intern(st.a)
	key := engineKey{c: int32(cid), a: int32(aid), b: -1}
	st.a = a
	if st.b != nil {
		bid, b, _ := e.intern.Intern(st.b)
		key.b = int32(bid)
		st.b = b
	}
	if n, done := e.memo[key]; done {
		e.stats.MemoHits++
		return key, n != nil
	}
	var prevDyn *hypergraph.DynComponents
	if e.useDyn {
		prevDyn = e.dyn
		e.dyn = e.getDyn(c, seedEV)
	}
	var node *engineNode
	e.oracle.guesses(e, c, st, func(g engineGuess) bool {
		// Progress invariant: a bag disjoint from C would recreate the
		// same subproblem below and never terminate. Oracles reject
		// this cheaply themselves; the engine enforces it regardless.
		if !g.bag.Intersects(c) {
			return false
		}
		bag, children, ok := e.tryChildren(c, g)
		if !ok {
			return false
		}
		node = e.arena.node()
		node.bag, node.cover, node.children = bag, g.cover(), children
		if e.trim {
			node.comp = c
		}
		return true
	})
	if e.useDyn {
		e.dynFree = append(e.dynFree, e.dyn)
		e.dyn = prevDyn
	}
	e.memo[key] = node
	e.stats.Subproblems++
	return key, node != nil
}

// tryChildren recurses into the [bag]-components of c for one guess.
// All speculative state lives in depth-indexed buffers and mark-rolled
// stacks: a rejected guess truncates back to its marks and allocates
// nothing. On acceptance the bag and children move into the arena.
//
// Under a dynAware oracle the components come from the subproblem's
// incrementally maintained structure — synced here, for the first time
// along this guess's stack — and the child connector bag ∩ V(edges(C'))
// is read off the component's edge-vertex union instead of re-walking
// the incidence index (engine.connector).
func (e *engine) tryChildren(c hypergraph.VertexSet, g engineGuess) (hypergraph.VertexSet, []engineKey, bool) {
	d := e.depth
	e.depth++
	for len(e.bagBufs) <= d {
		e.bagBufs = append(e.bagBufs, hypergraph.NewVertexSet(e.h.NumVertices()))
	}
	bag := e.bagBufs[d].CopyFrom(g.bag)
	e.bagBufs[d] = bag
	ckMark := len(e.childBuf)
	ok := true
	if e.dyn != nil {
		cmMark := len(e.compBuf)
		e.compBuf = e.dyn.Components(e.compBuf)
		for _, comp := range e.compBuf[cmMark:] {
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
		e.compBuf = e.compBuf[:cmMark]
	} else {
		for _, comp := range e.h.ComponentsOf(bag, c) {
			var cst engineState
			if g.childState != nil {
				cst = *g.childState
			} else {
				cst = engineState{a: e.connector(comp, bag)}
			}
			ck, cok := e.decompose(comp, cst)
			if !cok {
				ok = false
				break
			}
			e.childBuf = append(e.childBuf, ck)
		}
	}
	e.depth--
	if !ok {
		e.childBuf = e.childBuf[:ckMark]
		return nil, nil, false
	}
	children := e.arena.keySlice(e.childBuf[ckMark:])
	e.childBuf = e.childBuf[:ckMark]
	return e.arena.set(bag), children, true
}

// connector computes the child connector W' = bag ∩ V(edges(C')) on
// scratch; callers must consume (intern) the result before the next
// engine call.
func (e *engine) connector(comp, bag hypergraph.VertexSet) hypergraph.VertexSet {
	e.ebuf = e.h.EdgesIntersectingSet(comp, e.ebuf)
	e.wc = e.wc.Reset()
	e.ebuf.ForEach(func(ed int) bool {
		e.wc = e.wc.UnionInPlace(e.h.Edge(ed))
		return true
	})
	return e.wc.IntersectInPlace(bag)
}

// build materializes the memoized witness tree into d under parent.
// Under trim, non-root bags follow the witness-tree definition after
// Algorithm 3: B_s = B(γ_s) ∩ (B_r ∪ comp(s)).
func (e *engine) build(d *decomp.Decomp, parent int, key engineKey, parentBag hypergraph.VertexSet) {
	n := e.memo[key]
	bag := n.bag
	if e.trim && parent >= 0 {
		bag = n.bag.Intersect(parentBag.Union(n.comp))
	}
	id := d.AddNode(parent, bag, n.cover)
	for _, ck := range n.children {
		e.build(d, id, ck, bag)
	}
}
