package decomp

import (
	"testing"

	"hypertree/internal/cover"
	"hypertree/internal/hypergraph"
	"hypertree/internal/lp"
)

// onePart builds a single-node width-1 decomposition of a one-edge
// sub-hypergraph extracted from h.
func onePart(t *testing.T, h *hypergraph.Hypergraph, e int) Part {
	t.Helper()
	sub, vmap, emap := h.ExtractEdges([]int{e})
	d := New(sub)
	d.AddNode(-1, sub.Edge(0), cover.Fractional{0: lp.RI(1)})
	return Part{D: d, VertexMap: vmap, EdgeMap: emap}
}

func TestCombineSharedVertex(t *testing.T) {
	h := hypergraph.MustParse("e1(a,b,c), e2(c,d,e)")
	d, err := Combine(h, []Part{onePart(t, h, 0), onePart(t, h, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(HD); err != nil {
		t.Fatalf("stitched decomposition invalid: %v", err)
	}
	if got := d.Width(); got.Cmp(lp.RI(1)) != 0 {
		t.Fatalf("width = %s, want 1", got.RatString())
	}
	if d.NumNodes() != 2 {
		t.Fatalf("nodes = %d, want 2", d.NumNodes())
	}
}

func TestCombineAttachesAtSharedNode(t *testing.T) {
	// The second part is a path of three nodes rooted at {y,z}; it meets
	// the first part in c, which only its leaf {c,x} holds. The copy
	// must start at that leaf, hang it under the first part's node and
	// keep every node of the part.
	h := hypergraph.MustParse("e1(a,b,c), e2(c,x), e3(x,y), e4(y,z)")
	sub, vmap, emap := h.ExtractEdges([]int{1, 2, 3})
	chain := New(sub)
	top := chain.AddNode(-1, sub.Edge(2), cover.Fractional{2: lp.RI(1)})
	mid := chain.AddNode(top, sub.Edge(1), cover.Fractional{1: lp.RI(1)})
	chain.AddNode(mid, sub.Edge(0), cover.Fractional{0: lp.RI(1)})
	d, err := Combine(h, []Part{onePart(t, h, 0), {D: chain, VertexMap: vmap, EdgeMap: emap}})
	if err != nil {
		t.Fatal(err)
	}
	if d.NumNodes() != 4 {
		t.Fatalf("nodes = %d, want 4", d.NumNodes())
	}
	if c, _ := h.VertexID("c"); d.Nodes[1].Parent != 0 || !d.Nodes[1].Bag.Has(c) {
		t.Fatalf("node 1 = %v under %d, want the {c,x} node under node 0", d.Nodes[1].Bag, d.Nodes[1].Parent)
	}
	if err := d.Validate(GHD); err != nil {
		t.Fatalf("stitched decomposition invalid: %v", err)
	}
}

func TestCombineDisconnected(t *testing.T) {
	h := hypergraph.MustParse("e1(a,b), e2(c,d)")
	d, err := Combine(h, []Part{onePart(t, h, 0), onePart(t, h, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(HD); err != nil {
		t.Fatalf("stitched decomposition invalid: %v", err)
	}
}

func TestCombineChainOutOfOrder(t *testing.T) {
	// Three blocks in a chain B1 -c- B2 -e- B3. With the middle block
	// last it meets the placed parts in c and e: Combine must refuse,
	// or one of them would induce a disconnected node set. In
	// parent-first order the chain validates.
	h := hypergraph.MustParse("e1(a,b,c), e2(c,d,e), e3(e,f,g)")
	if d, err := Combine(h, []Part{onePart(t, h, 0), onePart(t, h, 2), onePart(t, h, 1)}); err == nil {
		t.Fatalf("middle block last: want error, got %d nodes", d.NumNodes())
	}
	d, err := Combine(h, []Part{onePart(t, h, 0), onePart(t, h, 1), onePart(t, h, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(HD); err != nil {
		t.Fatalf("stitched decomposition invalid: %v", err)
	}
}

func TestCombineEmptyPart(t *testing.T) {
	h := hypergraph.MustParse("e1(a,b)")
	if _, err := Combine(h, nil); err == nil {
		t.Fatal("Combine(nil parts): want error")
	}
	if _, err := Combine(h, []Part{{D: New(h)}}); err == nil {
		t.Fatal("Combine(empty part): want error")
	}
}
