package cover

import (
	"math/rand"
	"testing"

	"hypertree/internal/hypergraph"
)

// TestBasisCacheHitRevivesSameSolver — a Put followed by a Get for the
// same scope must return the identical solver (the warm basis survives),
// and the counters must record the hit.
func TestBasisCacheHitRevivesSameSolver(t *testing.T) {
	bc := NewBasisCache(0)
	scope := hypergraph.SetOf(0, 1, 2, 3)
	ic := bc.Get(scope)
	ic.Push(0, hypergraph.SetOf(0, 1))
	ic.Push(1, hypergraph.SetOf(2, 3))
	if ic.Solve() == nil {
		t.Fatal("solve failed")
	}
	bc.Put(scope, ic)
	got := bc.Get(scope)
	if got != ic {
		t.Fatal("Get after Put must revive the cached solver")
	}
	if got.Depth() != 0 {
		t.Fatal("revived solver must start with an empty caller stack")
	}
	s := bc.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss", s)
	}
	if s.Bytes != 0 {
		t.Fatalf("borrowed entries must not be charged: Bytes = %d", s.Bytes)
	}
}

// TestBasisCacheRevivalWithRecycledKeys pins the soundness hardening in
// Incremental.sync: a revived solver carries synced rows from a previous
// enumeration, and a new enumeration may recycle the same keys for
// DIFFERENT atom sets (pool ids are per engine run). The set-equality
// prefix check must retire the stale rows instead of reusing them. Only
// the rational path syncs rows, so that run is the one that guards it.
func TestBasisCacheRevivalWithRecycledKeys(t *testing.T) {
	eachPath(t, func(t *testing.T, _ bool) { testBasisCacheRevivalWithRecycledKeys(t) })
}

func testBasisCacheRevivalWithRecycledKeys(t *testing.T) {
	bc := NewBasisCache(0)
	scope := hypergraph.SetOf(0, 1, 2, 3, 4, 5)

	ic := bc.Get(scope)
	ic.Push(0, hypergraph.SetOf(0, 1))
	ic.Push(1, hypergraph.SetOf(2, 3))
	ic.Push(2, hypergraph.SetOf(4, 5))
	if got := ic.Solve(); got == nil || got.RatString() != "3" {
		t.Fatalf("first enumeration: got %v, want 3", got)
	}
	bc.Put(scope, ic)

	// Same keys 0 and 1, different atoms. A key-only prefix match would
	// keep the {0,1} and {2,3} rows and report a cover of the wrong sets.
	ic = bc.Get(scope)
	ic.Push(0, hypergraph.SetOf(0, 1, 2))
	ic.Push(1, hypergraph.SetOf(3, 4, 5))
	got := ic.Solve()
	fresh := NewIncremental(scope)
	fresh.Push(0, hypergraph.SetOf(0, 1, 2))
	fresh.Push(1, hypergraph.SetOf(3, 4, 5))
	want := fresh.Solve()
	if got == nil || want == nil || got.Cmp(want) != 0 {
		t.Fatalf("revived solve %v ≠ fresh solve %v", got, want)
	}
}

// TestBasisCacheDisplacement — guess enumerations nest, so two solvers
// for one scope can be live at once. The second Put displaces the first
// onto the cold free list, and a later miss for another scope reuses it.
func TestBasisCacheDisplacement(t *testing.T) {
	bc := NewBasisCache(0)
	scope := hypergraph.SetOf(0, 1)
	a := bc.Get(scope)
	b := bc.Get(scope)
	if a == b {
		t.Fatal("nested Gets must return distinct solvers")
	}
	bc.Put(scope, a)
	bc.Put(scope, b) // displaces a to the free list
	if got := bc.Get(scope); got != b {
		t.Fatal("newest Put must win the slot")
	}
	other := hypergraph.SetOf(2, 3)
	if got := bc.Get(other); got != a {
		t.Fatal("a miss must drain the displaced solver from the free list")
	}
}

// TestBasisCacheEviction — a tiny byte budget must evict oldest-first
// and keep the retained bytes bounded, while Get stays functional.
func TestBasisCacheEviction(t *testing.T) {
	bc := NewBasisCache(1) // everything is over budget
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		scope := hypergraph.SetOf(i, i+1, i+2)
		ic := bc.Get(scope)
		ic.Push(0, hypergraph.SetOf(i, i+1))
		ic.Push(1, hypergraph.SetOf(i+2))
		if rng.Intn(2) == 0 {
			ic.Pop()
		}
		if ic.Solve() == nil {
			t.Fatal("solve failed")
		}
		bc.Put(scope, ic)
	}
	s := bc.Stats()
	if s.Evictions == 0 {
		t.Fatal("a 1-byte budget must evict")
	}
	if s.Hits != 0 {
		t.Fatalf("every entry was evicted before reuse, yet Hits = %d", s.Hits)
	}
	// Evicted storage recycles: the next misses must not allocate fresh
	// solvers while the free list is stocked.
	before := bc.Get(hypergraph.SetOf(40, 41))
	bc.Put(hypergraph.SetOf(40, 41), before)
	after := bc.Get(hypergraph.SetOf(50, 51))
	if before != after {
		// before was evicted on Put (budget 1), so the Get must find it
		// on the free list.
		t.Fatal("eviction must feed the cold free list")
	}
}
