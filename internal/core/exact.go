package core

import (
	"math/big"
	"math/bits"

	"hypertree/internal/cover"
	"hypertree/internal/decomp"
	"hypertree/internal/hypergraph"
	"hypertree/internal/lp"
)

// The exact ghw/fhw algorithms below follow the elimination-ordering
// characterization: the tree decompositions of H correspond to the
// triangulations of its primal graph, whose maximal cliques are the sets
// {v} ∪ Q(S,v) for elimination prefixes S, where Q(S,v) are the vertices
// reachable from v through S. Therefore
//
//	fhw(H) = min over orderings of max over v of ρ*_H({v} ∪ Q(S,v)),
//
// and likewise for ghw with ρ. The minimum over orderings is computed by
// dynamic programming over subsets (Moll, Tazari, Thurley, "Computing
// hypergraph width measures exactly", IPL 2012 — reference [42] of the
// paper). This is exponential in |V(H)| and intended for hypergraphs of
// ≤ ~20 vertices; it is the ground truth the polynomial algorithms are
// cross-validated against.
//
// The DP keeps big.Rat out of its inner loop three ways: subset-indexed
// dense memo tables replace hashed maps for n ≤ dpDenseLimit, a bag whose
// vertices all lie in one edge costs exactly 1 without touching the LP
// (the dominant case by far), and the per-state minimization evaluates the
// cheapest subproblem first so bag costs of provably non-improving
// candidates (sub ≥ best) are never computed at all.

const maxExactVertices = 64

// dpDenseLimit is the largest vertex count for which the DP uses dense
// subset-indexed tables (8·2^n bytes); beyond it, hashed maps take over —
// at that size the 2^n·n runtime dwarfs map overhead anyway.
const dpDenseLimit = 20

// ratPool interns the rational values flowing through one DP run. Every
// DP value is either 0 or some bag cost, so the distinct values number a
// handful; representing them as dense ids with a maintained rank order
// turns every comparison in the DP inner loop into an integer compare.
// big.Rat.Cmp — which allocates big.Ints for its cross-multiplication —
// runs only O(V log V) times total for V distinct values, at insertion.
type ratPool struct {
	vals   []*big.Rat // id → value
	rank   []int32    // id → position in ascending value order
	byRank []int32    // position → id
}

// id interns r and returns its dense id. O(log V) comparisons on a fresh
// value, O(log V) on a known one, no allocation for known values.
func (p *ratPool) id(r *big.Rat) int32 {
	lo, hi := 0, len(p.byRank)
	for lo < hi {
		mid := (lo + hi) / 2
		switch r.Cmp(p.vals[p.byRank[mid]]) {
		case 0:
			return p.byRank[mid]
		case -1:
			hi = mid
		default:
			lo = mid + 1
		}
	}
	id := int32(len(p.vals))
	p.vals = append(p.vals, r)
	p.rank = append(p.rank, 0)
	p.byRank = append(p.byRank, 0)
	copy(p.byRank[lo+1:], p.byRank[lo:])
	p.byRank[lo] = id
	for i := lo; i < len(p.byRank); i++ {
		p.rank[p.byRank[i]] = int32(i)
	}
	return id
}

// less reports vals[a] < vals[b] by rank — no big.Rat arithmetic.
func (p *ratPool) less(a, b int32) bool { return p.rank[a] < p.rank[b] }

// max returns the id of the larger value.
func (p *ratPool) max(a, b int32) int32 {
	if p.rank[a] >= p.rank[b] {
		return a
	}
	return b
}

// infeasible marks a subproblem with no valid cover (ghw mode).
const infeasible = int32(-1)

// exactState carries one exact-width DP run.
type exactState struct {
	h       *hypergraph.Hypergraph
	n       int
	adj     []uint64 // primal-graph adjacency masks
	bagCost func(bag uint64) *big.Rat
	costMem map[uint64]int32 // bag mask → pooled cost id (or infeasible)
	pool    ratPool
	zeroID  int32
	oneID   int32

	// DP tables. memo/choice are dense slices indexed by the subset mask
	// when dense is set, hashed maps otherwise. Memo values are pooled
	// value ids, so the tables hold int32s, not pointers.
	dense   bool
	memoD   []int32
	doneD   []uint64 // bitset over subset masks
	choiceD []int8
	memoM   map[uint64]int32
	choiceM map[uint64]int

	// Cooperative cancellation (cancel.go): polled in f().
	stopCh <-chan struct{}
	steps  uint32

	bagScratch hypergraph.VertexSet
}

// fhwBagCost returns the ρ* bag-cost oracle of the fhw DP.
func fhwBagCost(h *hypergraph.Hypergraph) func(uint64) *big.Rat {
	return func(bag uint64) *big.Rat {
		w, _ := cover.FractionalEdgeCover(h, maskToSet(bag, h.NumVertices()))
		return w
	}
}

// ghwBagCost returns the ρ bag-cost oracle of the ghw DP (nil = no
// integral cover exists).
func ghwBagCost(h *hypergraph.Hypergraph) func(uint64) *big.Rat {
	return func(bag uint64) *big.Rat {
		c := cover.EdgeCover(h, maskToSet(bag, h.NumVertices()), 0)
		if c == nil {
			return nil
		}
		return lp.RI(int64(len(c)))
	}
}

// ExactFHW computes fhw(h) exactly together with an optimal FHD. It
// panics if h has more than 64 vertices; callers should gate on size.
func ExactFHW(h *hypergraph.Hypergraph) (*big.Rat, *decomp.Decomp) {
	s := newExactState(h, fhwBagCost(h))
	return s.run(false)
}

// ExactGHW computes ghw(h) exactly together with an optimal GHD.
func ExactGHW(h *hypergraph.Hypergraph) (int, *decomp.Decomp) {
	s := newExactState(h, ghwBagCost(h))
	w, d := s.run(true)
	if w == nil {
		return -1, nil
	}
	return int(w.Num().Int64()), d
}

func newExactState(h *hypergraph.Hypergraph, bagCost func(uint64) *big.Rat) *exactState {
	n := h.NumVertices()
	if n > maxExactVertices {
		panic("core: exact width computation limited to 64 vertices")
	}
	adj := make([]uint64, n)
	for v, vs := range h.AdjacencyMatrix() {
		var m uint64
		vs.ForEach(func(u int) bool {
			m |= 1 << uint(u)
			return true
		})
		adj[v] = m
	}
	s := &exactState{
		h: h, n: n, adj: adj, bagCost: bagCost,
		costMem:    map[uint64]int32{},
		bagScratch: hypergraph.NewVertexSet(n),
	}
	s.zeroID = s.pool.id(new(big.Rat))
	s.oneID = s.pool.id(lp.RI(1))
	if n > 0 && n <= dpDenseLimit {
		s.dense = true
		states := uint64(1) << uint(n)
		s.memoD = make([]int32, states)
		s.doneD = make([]uint64, (states+63)/64)
		s.choiceD = make([]int8, states)
	} else {
		s.memoM = map[uint64]int32{}
		s.choiceM = map[uint64]int{}
	}
	return s
}

func maskToSet(m uint64, n int) hypergraph.VertexSet {
	s := hypergraph.NewVertexSet(n)
	for m != 0 {
		v := bits.TrailingZeros64(m)
		s.Add(v)
		m &^= 1 << uint(v)
	}
	return s
}

// maskToSetInto writes mask m into the scratch set s and returns it.
func maskToSetInto(s hypergraph.VertexSet, m uint64) hypergraph.VertexSet {
	s = s.Reset()
	if m != 0 {
		s.Add(63 - bits.LeadingZeros64(m)) // grow once to the top bit
		s[0] = m
	}
	return s
}

// q returns Q(S,v): the vertices outside S∪{v} reachable from v via paths
// whose interior lies in S.
func (s *exactState) q(set uint64, v int) uint64 {
	reach := s.adj[v]
	inside := reach & set
	seen := inside
	for inside != 0 {
		u := bits.TrailingZeros64(inside)
		inside &^= 1 << uint(u)
		nb := s.adj[u] &^ seen & set
		seen |= nb
		inside |= nb
		reach |= s.adj[u]
	}
	return reach &^ set &^ (1 << uint(v))
}

// cost returns the pooled cost id of bag {v} ∪ Q(S,v), memoized by bag
// mask. Bags contained in a single edge cost exactly 1 (ρ = ρ* = 1 for
// non-empty coverable sets) — the integer fast path that spares the exact
// LP / branch-and-bound for the vast majority of DP states.
func (s *exactState) cost(set uint64, v int) int32 {
	bag := s.q(set, v) | 1<<uint(v)
	if c, ok := s.costMem[bag]; ok {
		return c
	}
	var c int32
	s.bagScratch = maskToSetInto(s.bagScratch, bag)
	if s.h.CoveringEdge(s.bagScratch) >= 0 {
		c = s.oneID
	} else if r := s.bagCost(bag); r != nil {
		c = s.pool.id(r)
	} else {
		c = infeasible
	}
	s.costMem[bag] = c
	return c
}

// lookup returns the memoized DP value id for set, if present.
func (s *exactState) lookup(set uint64) (int32, bool) {
	if s.dense {
		if s.doneD[set>>6]&(1<<(set&63)) != 0 {
			return s.memoD[set], true
		}
		return 0, false
	}
	v, ok := s.memoM[set]
	return v, ok
}

// store memoizes the DP value id and vertex choice for set.
func (s *exactState) store(set uint64, v int32, choice int) {
	if s.dense {
		s.doneD[set>>6] |= 1 << (set & 63)
		s.memoD[set] = v
		s.choiceD[set] = int8(choice)
		return
	}
	s.memoM[set] = v
	s.choiceM[set] = choice
}

// choiceFor returns the vertex eliminated last at state set.
func (s *exactState) choiceFor(set uint64) int {
	if s.dense {
		return int(s.choiceD[set])
	}
	return s.choiceM[set]
}

// f computes the DP value for the eliminated-set S: the minimum over
// orderings of S (as an elimination prefix) of the maximum bag cost.
//
// All child subproblems recurse first (they are needed regardless); the
// candidate with the smallest child value is then costed first, and every
// other candidate's bag cost is computed only if its child value still
// undercuts the best max found — child values lower-bound the max, so
// skipped candidates provably cannot improve the state.
func (s *exactState) f(set uint64) int32 {
	if set == 0 {
		return s.zeroID
	}
	if v, ok := s.lookup(set); ok {
		return v
	}
	if s.stopCh != nil {
		if s.steps++; s.steps&pollMask == 0 {
			pollCancel(s.stopCh)
		}
	}
	minSub := infeasible
	minV := -1
	for rem := set; rem != 0; {
		v := bits.TrailingZeros64(rem)
		rem &^= 1 << uint(v)
		sub := s.f(set &^ (1 << uint(v)))
		if sub != infeasible && (minSub == infeasible || s.pool.less(sub, minSub)) {
			minSub, minV = sub, v
		}
	}
	best := infeasible
	bestV := -1
	if minV >= 0 {
		if c := s.cost(set&^(1<<uint(minV)), minV); c != infeasible {
			best = s.pool.max(minSub, c)
			bestV = minV
		}
	}
	// best can never drop below minSub, so stop once it reaches it.
	if best == infeasible || s.pool.less(minSub, best) {
		for rem := set; rem != 0; {
			v := bits.TrailingZeros64(rem)
			rem &^= 1 << uint(v)
			if v == minV {
				continue
			}
			sub := s.f(set &^ (1 << uint(v))) // memoized above
			if sub == infeasible {
				continue
			}
			if best != infeasible && !s.pool.less(sub, best) {
				continue
			}
			c := s.cost(set&^(1<<uint(v)), v)
			if c == infeasible {
				continue
			}
			m := s.pool.max(sub, c)
			if best == infeasible || s.pool.less(m, best) {
				best, bestV = m, v
				if best == minSub {
					break
				}
			}
		}
	}
	s.store(set, best, bestV)
	return best
}

// run executes the DP and returns the decomposition of the optimal
// elimination order; integral selects integral covers for the bags.
func (s *exactState) run(integral bool) (*big.Rat, *decomp.Decomp) {
	if s.n == 0 || s.h.NumEdges() == 0 {
		return nil, nil
	}
	full := uint64(1)<<uint(s.n) - 1
	if s.n == 64 {
		full = ^uint64(0)
	}
	wid := s.f(full)
	if wid == infeasible {
		return nil, nil
	}
	w := s.pool.vals[wid]
	// Recover the elimination order, first-eliminated first: the vertex
	// chosen at state `set` is the last one eliminated among `set`.
	order := make([]int, s.n)
	for i, set := s.n-1, full; i >= 0; i-- {
		order[i] = s.choiceFor(set)
		set &^= 1 << uint(order[i])
	}
	return w, eliminationDecomp(s.h, order, integral, nil)
}
