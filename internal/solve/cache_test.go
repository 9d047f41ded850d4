package solve

import (
	"context"
	"fmt"
	"testing"

	"hypertree/internal/hypergraph"
)

func TestKeyRenamingInvariance(t *testing.T) {
	a := hypergraph.MustParse("e1(x,y), e2(y,z), e3(z,x)")
	b := hypergraph.MustParse("r(A,B), s(B,C), t(C,A)")    // same structure, all names differ
	c := hypergraph.MustParse("e1(x,y), e2(y,z), e3(z,w)") // path, not triangle
	ka, kb, kc := KeyFor(GHW, a), KeyFor(GHW, b), KeyFor(GHW, c)
	if ka != kb {
		t.Error("renamed-isomorphic queries got different keys")
	}
	if ka == kc {
		t.Error("structurally different queries collided")
	}
	if ka == KeyFor(FHW, a) {
		t.Error("same hypergraph under different measures collided")
	}
}

func TestCacheHitPath(t *testing.T) {
	s := NewSolver(0, 0)
	h := hypergraph.ExampleH0()
	r1, err := s.Solve(context.Background(), h, Options{Measure: GHW})
	if err != nil {
		t.Fatal(err)
	}
	if r1.FromCache {
		t.Fatal("first solve claims cache hit")
	}
	r2, err := s.Solve(context.Background(), h, Options{Measure: GHW})
	if err != nil {
		t.Fatal(err)
	}
	if !r2.FromCache {
		t.Fatal("second solve missed the cache")
	}
	if r2.Upper.Cmp(r1.Upper) != 0 || !r2.Exact {
		t.Fatal("cached result differs from computed one")
	}
	// A renamed copy must hit too. Its leading isolated vertex shifts
	// every other vertex's index, so the witness translation runs
	// through a vertex map that is not the identity.
	renamed := hypergraph.New()
	renamed.Vertex("isolated")
	for e := 0; e < h.NumEdges(); e++ {
		var names []string
		h.Edge(e).ForEach(func(v int) bool {
			names = append(names, "n"+h.VertexName(v))
			return true
		})
		renamed.AddEdge(fmt.Sprintf("q%d", e), names...)
	}
	r3, err := s.Solve(context.Background(), renamed, Options{Measure: GHW, Validate: true})
	if err != nil {
		t.Fatal(err)
	}
	if !r3.FromCache {
		t.Fatal("renamed query missed the cache")
	}
	// The witness must have been translated onto the renamed hypergraph,
	// not served verbatim from the populating request.
	if r3.Witness == nil || r3.Witness.H != renamed {
		t.Fatal("cached witness not translated onto the querying hypergraph")
	}
	if err := r3.Witness.Validate(GHW.Kind()); err != nil {
		t.Fatalf("translated witness invalid: %v", err)
	}
	if r3.Witness.Width().Cmp(r1.Upper) != 0 {
		t.Fatalf("translated witness width %s != %s", r3.Witness.Width().RatString(), r1.Upper.RatString())
	}
	st := s.Cache().Stats()
	if st.Hits < 2 || st.Size != 1 {
		t.Fatalf("stats = %+v, want ≥2 hits and size 1", st)
	}
}

func TestCacheSkipsPartial(t *testing.T) {
	c := NewCache(0)
	k := KeyFor(HW, hypergraph.Clique(3))
	c.Put(k, &Result{Exact: false})
	if c.Len() != 0 {
		t.Fatal("partial result was cached")
	}
}

func TestCacheEviction(t *testing.T) {
	c := NewCache(2)
	for i := 0; i < 5; i++ {
		h := hypergraph.Path(i + 2)
		c.Put(KeyFor(HW, h), &Result{Exact: true})
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2 after eviction", c.Len())
	}
}

func TestCacheByteEviction(t *testing.T) {
	// A byte budget small enough for roughly two path instances: filling
	// it with five must evict down to the budget even though the entry
	// cap (100) is never reached.
	var perEntry int64
	{
		probe := NewCacheBytes(100, 0)
		h := hypergraph.Path(40)
		k, relabel := canonKey(Options{Measure: HW}, h)
		probe.putEntry(k, &entry{res: &Result{Exact: true}, h: h, relabel: relabel})
		perEntry = probe.Stats().Bytes
		if perEntry <= 0 {
			t.Fatalf("probe entry has non-positive size %d", perEntry)
		}
	}
	c := NewCacheBytes(100, 2*perEntry+perEntry/2)
	for i := 0; i < 5; i++ {
		h := hypergraph.Path(40 + i)
		k, relabel := canonKey(Options{Measure: HW}, h)
		c.putEntry(k, &entry{res: &Result{Exact: true}, h: h, relabel: relabel})
	}
	st := c.Stats()
	if st.Bytes > 2*perEntry+perEntry/2 {
		t.Fatalf("cache holds %d bytes, budget %d", st.Bytes, 2*perEntry+perEntry/2)
	}
	if st.Size == 0 || st.Size > 2 {
		t.Fatalf("cache holds %d entries, want 1-2 under the byte budget", st.Size)
	}
	// The newest entry must have survived (FIFO evicts oldest first).
	h := hypergraph.Path(44)
	k, _ := canonKey(Options{Measure: HW}, h)
	if _, ok := c.Get(k); !ok {
		t.Fatal("newest entry was evicted")
	}
}

func TestCacheRejectsOversizedEntry(t *testing.T) {
	c := NewCacheBytes(100, 64) // tiny byte budget
	h := hypergraph.Path(40)
	k, relabel := canonKey(Options{Measure: HW}, h)
	c.putEntry(k, &entry{res: &Result{Exact: true}, h: h, relabel: relabel})
	if c.Len() != 0 {
		t.Fatal("entry larger than the whole budget must not be cached")
	}
}
