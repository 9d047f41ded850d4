package cover

import (
	"testing"

	"hypertree/internal/hypergraph"
)

// TestBasisCacheRevivalWithRecycledKeys pins pool reuse: a solver
// returned to the cache comes back with an empty stack, and when the
// next borrower stacks different atoms its answer is that of a fresh
// solver, on both solve paths. (The oracles' pool ids are per engine
// run, so a recycled solver meets the same keys for different atoms.)
func TestBasisCacheRevivalWithRecycledKeys(t *testing.T) {
	eachPath(t, func(t *testing.T, _ bool) { testBasisCacheRevivalWithRecycledKeys(t) })
}

func testBasisCacheRevivalWithRecycledKeys(t *testing.T) {
	bc := NewBasisCache(0)

	ic := bc.Get()
	ic.Push(hypergraph.SetOf(0, 1))
	ic.Push(hypergraph.SetOf(2, 3))
	ic.Push(hypergraph.SetOf(4, 5))
	if got := ic.Solve(); got == nil || got.RatString() != "3" {
		t.Fatalf("first enumeration: got %v, want 3", got)
	}
	bc.Put(ic)

	again := bc.Get()
	if again != ic {
		t.Fatal("Get after Put must reuse the pooled solver")
	}
	if len(again.stack) != 0 {
		t.Fatal("a reused solver must start with an empty stack")
	}
	again.Push(hypergraph.SetOf(0, 1, 2))
	again.Push(hypergraph.SetOf(3, 4, 5))
	got := again.Solve()
	var fresh Incremental
	fresh.Push(hypergraph.SetOf(0, 1, 2))
	fresh.Push(hypergraph.SetOf(3, 4, 5))
	want := fresh.Solve()
	if got == nil || want == nil || got.Cmp(want) != 0 {
		t.Fatalf("reused solve %v ≠ fresh solve %v", got, want)
	}
	bc.Put(again)
	if ls := bc.LPStats(); ls.Solves != 2 {
		t.Fatalf("LPStats = %+v, want the 2 solves of the returned solver", ls)
	}
}

// TestBasisCacheEviction — a tiny byte budget must drop every returned
// solver, after folding its LP counters into the cache's, while Get
// stays functional.
func TestBasisCacheEviction(t *testing.T) {
	bc := NewBasisCache(1) // everything is over budget
	var prev *Incremental
	for i := 0; i < 8; i++ {
		ic := bc.Get()
		if ic == prev {
			t.Fatal("a solver over the budget must not be pooled")
		}
		ic.Push(hypergraph.SetOf(i, i+1))
		ic.Push(hypergraph.SetOf(i + 2))
		if ic.Solve() == nil {
			t.Fatal("solve failed")
		}
		bc.Put(ic)
		prev = ic
	}
	if s := bc.Stats(); s.Borrows != 8 || s.Evictions != 8 {
		t.Fatalf("stats = %+v, want 8 borrows, all evicted", s)
	}
	if ls := bc.LPStats(); ls.Solves != 8 {
		t.Fatalf("LPStats = %+v, want the 8 solves of the dropped solvers", ls)
	}
}
