package decomp

import (
	"strings"
	"testing"

	"hypertree/internal/cover"
	"hypertree/internal/hypergraph"
	"hypertree/internal/lp"
)

func TestFigure5HDValid(t *testing.T) {
	h := hypergraph.ExampleH0()
	d := Figure5HD(h)
	if err := d.Validate(HD); err != nil {
		t.Fatalf("Figure 5 HD invalid: %v", err)
	}
	if d.Width().Cmp(lp.RI(3)) != 0 {
		t.Fatalf("Figure 5 HD width = %v, want 3", d.Width())
	}
	if !d.IsIntegral() {
		t.Fatal("HD must be integral")
	}
}

func TestFigure6aGHDValid(t *testing.T) {
	h := hypergraph.ExampleH0()
	d := Figure6aGHD(h)
	if err := d.Validate(GHD); err != nil {
		t.Fatalf("Figure 6(a) GHD invalid: %v", err)
	}
	if d.Width().Cmp(lp.RI(2)) != 0 {
		t.Fatalf("width = %v, want 2", d.Width())
	}
	// Example 4.4: the special condition is violated (vertex v2 at the
	// root), so HD validation must fail on condition 4.
	err := d.Validate(HD)
	if err == nil || !strings.Contains(err.Error(), "condition 4") {
		t.Fatalf("expected special-condition violation, got %v", err)
	}
	// Example 4.7: it is not bag-maximal (v4, v5 can be added to u').
	if d.IsBagMaximal() {
		t.Fatal("Figure 6(a) must not be bag-maximal")
	}
}

func TestBagMaximalize(t *testing.T) {
	h := hypergraph.ExampleH0()
	d := Figure6aGHD(h)
	w := d.Width()
	d.BagMaximalize()
	if err := d.Validate(GHD); err != nil {
		t.Fatalf("maximalized GHD invalid: %v", err)
	}
	if d.Width().Cmp(w) != 0 {
		t.Fatalf("width changed: %v -> %v", w, d.Width())
	}
	if !d.IsBagMaximal() {
		t.Fatal("not bag-maximal after BagMaximalize")
	}
	// u' (node 3) must have absorbed v4 and v5 (Example 4.7).
	v4, _ := h.VertexID("v4")
	v5, _ := h.VertexID("v5")
	if !d.Nodes[3].Bag.Has(v4) || !d.Nodes[3].Bag.Has(v5) {
		t.Fatalf("u' did not absorb v4/v5: %v", h.VertexNames(d.Nodes[3].Bag))
	}
}

func TestFigure6bGHDValid(t *testing.T) {
	h := hypergraph.ExampleH0()
	d := Figure6bGHD(h)
	if err := d.Validate(GHD); err != nil {
		t.Fatalf("Figure 6(b) GHD invalid: %v", err)
	}
	if !d.IsBagMaximal() {
		t.Fatal("Figure 6(b) must be bag-maximal")
	}
	// It is also a valid FHD (GHDs are FHDs).
	if err := d.Validate(FHD); err != nil {
		t.Fatal(err)
	}
	// But not a valid HD (special condition fails at the root for v2).
	if err := d.Validate(HD); err == nil {
		t.Fatal("Figure 6(b) should violate the special condition")
	}
}

func TestValidateCatchesBrokenDecompositions(t *testing.T) {
	h := hypergraph.ExampleH0()

	// Missing edge coverage.
	d := New(h)
	d.AddNode(-1, bag(h, "v1", "v2"), integral(h, "e1"))
	if err := d.Validate(TD); err == nil || !strings.Contains(err.Error(), "condition 1") {
		t.Fatalf("want condition 1 failure, got %v", err)
	}

	// Connectedness violation: v9 in two non-adjacent bags.
	d2 := Figure6bGHD(h)
	v9, _ := h.VertexID("v9")
	d2.Nodes[0].Bag = d2.Nodes[0].Bag.Without(v9) // root drops v9; u1,w keep it
	if err := d2.Validate(TD); err == nil || !strings.Contains(err.Error(), "condition 2") {
		t.Fatalf("want condition 2 failure, got %v", err)
	}

	// Bag not covered by weight function.
	d3 := Figure6bGHD(h)
	d3.Nodes[0].Cover = integral(h, "e2") // drops e6
	if err := d3.Validate(GHD); err == nil || !strings.Contains(err.Error(), "condition 3") {
		t.Fatalf("want condition 3 failure, got %v", err)
	}

	// Weight outside [0,1].
	d4 := Figure6bGHD(h)
	e2, _ := h.EdgeIDByName("e2")
	d4.Nodes[0].Cover[e2] = lp.RI(2)
	if err := d4.Validate(FHD); err == nil {
		t.Fatal("want weight-range failure")
	}

	// Broken tree structure.
	d5 := Figure6bGHD(h)
	d5.Nodes[1].Parent = 2
	if err := d5.Validate(TD); err == nil {
		t.Fatal("want tree failure")
	}
}

func TestFractionalDecomposition(t *testing.T) {
	// A genuinely fractional decomposition: one node covering the
	// triangle with weight 1/2 per edge.
	h := hypergraph.MustParse("e1(a,b),e2(b,c),e3(c,a)")
	d := New(h)
	c := cover.Fractional{}
	for e := 0; e < 3; e++ {
		c[e] = lp.R(1, 2)
	}
	d.AddNode(-1, h.Vertices(), c)
	if err := d.Validate(FHD); err != nil {
		t.Fatalf("triangle FHD invalid: %v", err)
	}
	if d.Width().Cmp(lp.R(3, 2)) != 0 {
		t.Fatalf("width = %v, want 3/2", d.Width())
	}
	if err := d.Validate(GHD); err == nil {
		t.Fatal("fractional cover must not validate as GHD")
	}
	// Fractional part: all of a,b,c are covered purely fractionally.
	if got := d.FractionalPartSize(0); got != 3 {
		t.Fatalf("fractional part = %d, want 3", got)
	}
}

func TestStrictAndWeakSpecial(t *testing.T) {
	h := hypergraph.ExampleH0()
	d := Figure5HD(h)
	if !d.IsStrict() {
		t.Fatal("Figure 5 bags equal their cover unions; must be strict")
	}
	if u := d.WeakSpecialCondition(); u != -1 {
		t.Fatalf("HD satisfies weak special condition, offender %d", u)
	}
	d6 := Figure6bGHD(h)
	if d6.IsStrict() {
		t.Fatal("Figure 6(b) root bag ≠ B(λ); must not be strict")
	}
	if u := d6.WeakSpecialCondition(); u == -1 {
		t.Fatal("Figure 6(b) violates the weak special condition at the root (v2)")
	}
}

func TestToFNF(t *testing.T) {
	h := hypergraph.ExampleH0()
	for name, build := range map[string]func(*hypergraph.Hypergraph) *Decomp{
		"fig5":  Figure5HD,
		"fig6a": Figure6aGHD,
		"fig6b": Figure6bGHD,
	} {
		d := build(h)
		w := d.Width()
		if err := d.ToFNF(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := d.Validate(FHD); err != nil {
			t.Fatalf("%s: FNF result invalid: %v", name, err)
		}
		if err := d.ValidateFNF(); err != nil {
			t.Fatalf("%s: not in FNF: %v", name, err)
		}
		if d.Width().Cmp(w) > 0 {
			t.Fatalf("%s: FNF increased width %v -> %v", name, w, d.Width())
		}
		// Lemma 6.9: |nodes| ≤ |V(H)|.
		if d.NumNodes() > h.NumVertices() {
			t.Fatalf("%s: FNF has %d nodes > %d vertices", name, d.NumNodes(), h.NumVertices())
		}
	}
}

func TestToFNFOnPathDecomposition(t *testing.T) {
	// A deliberately awkward decomposition of a path: one node per edge,
	// chained in reverse order, with a useless duplicate node.
	h := hypergraph.Path(6)
	d := New(h)
	prev := -1
	for e := h.NumEdges() - 1; e >= 0; e-- {
		c := cover.Fractional{e: lp.RI(1)}
		prev = d.AddNode(prev, h.Edge(e), c)
	}
	// Duplicate of the last bag.
	d.AddNode(prev, h.Edge(0), cover.Fractional{0: lp.RI(1)})
	if err := d.Validate(GHD); err != nil {
		t.Fatalf("setup invalid: %v", err)
	}
	if err := d.ToFNF(); err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(GHD); err != nil {
		t.Fatalf("FNF broke validity: %v", err)
	}
	if err := d.ValidateFNF(); err != nil {
		t.Fatal(err)
	}
}

func TestPathBetween(t *testing.T) {
	h := hypergraph.ExampleH0()
	d := Figure6aGHD(h)
	// Path from u2 (node 2) to w (node 4): u2,u1,u0,u',w.
	p := d.PathBetween(2, 4)
	want := []int{2, 1, 0, 3, 4}
	if len(p) != len(want) {
		t.Fatalf("path = %v, want %v", p, want)
	}
	for i := range p {
		if p[i] != want[i] {
			t.Fatalf("path = %v, want %v", p, want)
		}
	}
}

func TestSubtreeVertices(t *testing.T) {
	h := hypergraph.ExampleH0()
	d := Figure6aGHD(h)
	v1, _ := h.VertexID("v1")
	// v1 appears only at u2 (node 2); subtree of u1 (node 1) contains it.
	if !d.SubtreeVertices(1).Has(v1) {
		t.Fatal("V(T_u1) must contain v1")
	}
	if d.SubtreeVertices(3).Has(v1) {
		t.Fatal("V(T_u') must not contain v1")
	}
}
