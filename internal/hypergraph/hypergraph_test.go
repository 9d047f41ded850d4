package hypergraph

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseAndString(t *testing.T) {
	h, err := Parse("e1(a, b ,c),\n% comment\ne2(c,d).")
	if err != nil {
		t.Fatal(err)
	}
	if h.NumEdges() != 2 || h.NumVertices() != 4 {
		t.Fatalf("got %d edges, %d vertices", h.NumEdges(), h.NumVertices())
	}
	e1 := h.Edge(0)
	if e1.Count() != 3 {
		t.Fatalf("e1 has %d vertices", e1.Count())
	}
	round, err := Parse(h.String())
	if err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if round.NumEdges() != 2 || round.NumVertices() != 4 {
		t.Fatal("round trip lost structure")
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{"", "e1", "e1(", "e1()", "(a,b)", "e1(a,b"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}

func TestValidateNonEmpty(t *testing.T) {
	h := New()
	h.Vertex("lonely")
	h.AddEdge("e", "a", "b")
	if err := h.ValidateNonEmpty(); err == nil || !strings.Contains(err.Error(), "isolated") {
		t.Fatalf("want isolated-vertex error, got %v", err)
	}
}

func TestComponents(t *testing.T) {
	// Two triangles joined at vertex x.
	h := MustParse("e1(a,b),e2(b,c),e3(c,a),f1(x,a),f2(p,q),f3(q,r),f4(r,p),g(x,p)")
	// Removing x keeps everything connected through a–x–p? No: C = {x}
	// disconnects nothing since a,p are joined only via x-edges... f1 has
	// a,x; g has x,p. With x removed, f1\{x}={a}, g\{x}={p}: not adjacent.
	x, _ := h.VertexID("x")
	comps := h.ComponentsOf(SetOf(x), nil)
	if len(comps) != 2 {
		t.Fatalf("got %d [x]-components, want 2", len(comps))
	}
	// Empty separator: connected.
	if !h.IsConnected() {
		t.Fatal("h should be connected")
	}
	a, _ := h.VertexID("a")
	p, _ := h.VertexID("p")
	for _, comp := range comps {
		if comp.Has(a) && comp.Has(p) {
			t.Fatal("a and p must be separated by {x}")
		}
	}
}

func TestComponentsPartition(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := RandomBIP(rng, 12, 8, 4, 2)
		// Random separator.
		c := NewVertexSet(h.NumVertices())
		for v := 0; v < h.NumVertices(); v++ {
			if rng.Intn(3) == 0 {
				c.Add(v)
			}
		}
		comps := h.ComponentsOf(c, nil)
		// Components are disjoint, non-empty, avoid C, and cover exactly
		// the non-isolated vertices of V \ C.
		seen := NewVertexSet(h.NumVertices())
		for _, comp := range comps {
			if comp.IsEmpty() || comp.Intersects(c) || comp.Intersects(seen) {
				return false
			}
			seen = seen.UnionInPlace(comp)
		}
		return seen.Union(c).Equal(h.Vertices())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestProperties(t *testing.T) {
	h := ExampleH0()
	if got := h.IntersectionWidth(); got != 1 {
		t.Errorf("iwidth(H0) = %d, want 1 (Example 4.3)", got)
	}
	if got := h.MultiIntersectionWidth(3); got != 1 {
		t.Errorf("3-miwidth(H0) = %d, want 1 (Example 4.3)", got)
	}
	if got := h.MultiIntersectionWidth(4); got != 0 {
		t.Errorf("4-miwidth(H0) = %d, want 0 (Example 4.3)", got)
	}
	if got := h.Rank(); got != 3 {
		t.Errorf("rank = %d", got)
	}
	if got := h.Degree(); got != 3 {
		t.Errorf("degree = %d, want 3 (v9 in e2,e5,e7)", got)
	}
	if h.IsAcyclic() {
		t.Error("H0 must be cyclic")
	}
	if !Path(6).IsAcyclic() {
		t.Error("path must be acyclic")
	}
	if Cycle(5).IsAcyclic() {
		t.Error("C5 must be cyclic")
	}
	// α-acyclicity: a "big edge plus triangle inside" is acyclic.
	if !MustParse("big(a,b,c),t1(a,b),t2(b,c),t3(a,c)").IsAcyclic() {
		t.Error("triangle covered by a big edge is α-acyclic")
	}
}

func TestExample51Fixture(t *testing.T) {
	h := UnboundedSupport(5)
	if h.IntersectionWidth() != 1 {
		t.Errorf("iwidth(H_5) = %d, want 1 (Example 5.1)", h.IntersectionWidth())
	}
	if h.NumEdges() != 6 || h.NumVertices() != 6 {
		t.Fatalf("H_5 shape wrong: %d edges %d vertices", h.NumEdges(), h.NumVertices())
	}
}

func TestAntiBMIPFixture(t *testing.T) {
	h := AntiBMIP(7)
	// c-miwidth(H_n) ≥ n - c (Lemma 6.24 proof).
	for c := 2; c <= 4; c++ {
		if got := h.MultiIntersectionWidth(c); got != 7-c {
			t.Errorf("%d-miwidth(H_7) = %d, want %d", c, got, 7-c)
		}
	}
}

func TestDualAndReduce(t *testing.T) {
	h := MustParse("e1(a,b),e2(b,c),e3(c,a)")
	d := h.Dual()
	if d.NumVertices() != 3 || d.NumEdges() != 3 {
		t.Fatalf("dual of triangle: %d vertices, %d edges", d.NumVertices(), d.NumEdges())
	}
	// H^dd = H for reduced hypergraphs (Section 5): triangle is reduced.
	dd := d.Dual()
	if dd.NumVertices() != 3 || dd.NumEdges() != 3 {
		t.Fatal("double dual changed the triangle")
	}
	// Reduce fuses same-type vertices: a,b,c in one edge only.
	r, rep := MustParse("e(a,b,c),f(c,d)").Reduce()
	if r.NumVertices() != 3 { // {a,b} fused, c, d
		t.Fatalf("reduced has %d vertices, want 3", r.NumVertices())
	}
	if rep[0] != rep[1] {
		t.Fatal("a and b should be fused")
	}
	// Duplicate edges dropped.
	r2, _ := MustParse("e(a,b),f(a,b),g(b,c)").Reduce()
	if r2.NumEdges() != 2 {
		t.Fatalf("duplicate edge not dropped: %d edges", r2.NumEdges())
	}
}

func TestInducedSub(t *testing.T) {
	h := ExampleH0()
	sub, orig := h.InducedSub(SetOf(0, 1, 2)) // v1,v2,v3
	if sub.NumEdges() == 0 {
		t.Fatal("induced subhypergraph has no edges")
	}
	for id := 0; id < sub.NumEdges(); id++ {
		if !sub.Edge(id).IsSubsetOf(SetOf(0, 1, 2)) {
			t.Fatal("induced edge leaks outside C")
		}
	}
	for id, e := range orig {
		if !sub.Edge(id).IsSubsetOf(h.Edge(e)) {
			t.Fatal("induced edge not a subedge of its originator")
		}
	}
}

func TestGenerators(t *testing.T) {
	if k := Clique(6); k.NumEdges() != 15 {
		t.Errorf("K6 has %d edges", k.NumEdges())
	}
	if g := Grid(3, 4); g.NumVertices() != 12 || g.IntersectionWidth() != 1 {
		t.Errorf("grid wrong: %d vertices, iwidth %d", g.NumVertices(), g.IntersectionWidth())
	}
	hc := HyperCycle(4, 4, 2)
	if hc.IntersectionWidth() != 2 {
		t.Errorf("hypercycle iwidth = %d, want 2", hc.IntersectionWidth())
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		h := RandomBIP(rng, 14, 9, 4, 2)
		if h.IntersectionWidth() > 2 {
			t.Fatalf("RandomBIP violated BIP: iwidth %d", h.IntersectionWidth())
		}
		if err := h.ValidateNonEmpty(); err != nil {
			t.Fatalf("RandomBIP invalid: %v", err)
		}
		hd := RandomBoundedDegree(rng, 14, 9, 4, 3)
		if hd.Degree() > 3 {
			t.Fatalf("RandomBoundedDegree violated degree: %d", hd.Degree())
		}
	}
}

func TestUnionIntersectionOfEdges(t *testing.T) {
	h := ExampleH0()
	e2, _ := h.EdgeIDByName("e2")
	e3, _ := h.EdgeIDByName("e3")
	e7, _ := h.EdgeIDByName("e7")
	// Example 4.10: e2 ∩ (e3 ∪ e7) = {v3, v9}.
	got := h.Edge(e2).Intersect(h.UnionOfEdges([]int{e3, e7}))
	v3, _ := h.VertexID("v3")
	v9, _ := h.VertexID("v9")
	if !got.Equal(SetOf(v3, v9)) {
		t.Fatalf("e2 ∩ (e3 ∪ e7) = %v, want {v3,v9}", h.VertexNames(got))
	}
	if got := h.IntersectionOfEdges([]int{e2, e3}); got.Count() != 1 || !got.Has(v3) {
		t.Fatalf("e2 ∩ e3 = %v", h.VertexNames(got))
	}
}
