package solve

import (
	"context"
	"fmt"
	"math/big"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"hypertree/internal/core"
	"hypertree/internal/decomp"
	"hypertree/internal/hypergraph"
	"hypertree/internal/lp"
)

// fixtures returns named instances small enough for the direct exact
// algorithms, which the portfolio must agree with.
func fixtures() map[string]*hypergraph.Hypergraph {
	rng := rand.New(rand.NewSource(7))
	return map[string]*hypergraph.Hypergraph{
		"H0":        hypergraph.ExampleH0(),
		"K4":        hypergraph.Clique(4),
		"K5":        hypergraph.Clique(5),
		"C6":        hypergraph.Cycle(6),
		"C8":        hypergraph.Cycle(8),
		"grid3x3":   hypergraph.Grid(3, 3),
		"path5":     hypergraph.Path(5),
		"hypercyc":  hypergraph.HyperCycle(5, 3, 1),
		"randBIP":   hypergraph.RandomBIP(rng, 9, 6, 3, 2),
		"twoBlocks": hypergraph.MustParse("a1(x,y), a2(y,z), a3(z,x), b1(z,u), b2(u,w), b3(w,z)"),
		"chain":     hypergraph.MustParse("e1(a,b,c), e2(c,d,e), e3(e,f,g), e4(g,h)"),
		"disconn":   hypergraph.MustParse("e1(a,b), e2(b,c), e3(c,a), f1(p,q), f2(q,r)"),
		"subsumed":  hypergraph.MustParse("e1(a,b,c,d), e2(a,b), e3(c,d), e4(d,e), e5(a,b,c,d)"),
	}
}

// TestPortfolioMatchesDirect is the acceptance gate: the portfolio must
// return widths identical to the direct algorithms, and its witnesses
// must validate as the measure's decomposition kind.
func TestPortfolioMatchesDirect(t *testing.T) {
	ctx := context.Background()
	for name, h := range fixtures() {
		t.Run(name, func(t *testing.T) {
			wantHW, _ := core.HW(h, 0)
			wantGHW, _ := core.ExactGHW(h)
			wantFHW, _ := core.ExactFHW(h)

			for _, tc := range []struct {
				m    Measure
				want *big.Rat
			}{
				{HW, ri(wantHW)},
				{GHW, ri(wantGHW)},
				{FHW, wantFHW},
			} {
				r, err := Solve(ctx, h, Options{Measure: tc.m, Validate: true})
				if err != nil {
					t.Fatalf("%v: %v", tc.m, err)
				}
				if !r.Exact {
					t.Fatalf("%v: not exact (bounds [%s, %s], strategy %s)",
						tc.m, r.Lower.RatString(), r.Upper.RatString(), r.Strategy)
				}
				if r.Upper.Cmp(tc.want) != 0 {
					t.Errorf("%v = %s, direct algorithms say %s (strategy %s)",
						tc.m, r.Upper.RatString(), tc.want.RatString(), r.Strategy)
				}
				if r.Witness == nil {
					t.Fatalf("%v: exact result without witness", tc.m)
				}
				if err := r.Witness.Validate(tc.m.Kind()); err != nil {
					t.Errorf("%v witness invalid: %v", tc.m, err)
				}
				if r.Witness.Width().Cmp(r.Upper) != 0 {
					t.Errorf("%v witness width %s != upper %s",
						tc.m, r.Witness.Width().RatString(), r.Upper.RatString())
				}
			}
		})
	}
}

// TestStitchedFromBlocks is the stitching property test: instances built
// as chains of biconnected blocks must decompose blockwise, recombine
// into a decomposition that validates against the original hypergraph,
// and have width equal to the maximum over the blocks solved directly.
func TestStitchedFromBlocks(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 6; trial++ {
		// Chain 3 random blocks through articulation vertices.
		h := hypergraph.New()
		joint := "J0"
		for b := 0; b < 3; b++ {
			size := 3 + rng.Intn(3)
			var names []string
			names = append(names, joint)
			for v := 0; v < size; v++ {
				names = append(names, blockVar(b, v))
			}
			// A cycle through the block's vertices plus a chord.
			for i := range names {
				h.AddEdge("", names[i], names[(i+1)%len(names)])
			}
			h.AddEdge("", names[0], names[len(names)/2])
			joint = names[len(names)-1]
		}
		for _, m := range []Measure{HW, GHW, FHW} {
			r, err := Solve(ctx, h, Options{Measure: m, Validate: true})
			if err != nil {
				t.Fatalf("trial %d %v: %v", trial, m, err)
			}
			if !r.Exact || r.Witness == nil {
				t.Fatalf("trial %d %v: not exact", trial, m)
			}
			if m != HW && r.Pre.Blocks < 3 {
				t.Errorf("trial %d %v: expected ≥ 3 blocks, got %d", trial, m, r.Pre.Blocks)
			}
			// Direct (unsplit, uncached) solve must agree.
			direct, err := Solve(ctx, h, Options{Measure: m, NoPreprocess: true, Validate: true})
			if err != nil {
				t.Fatalf("trial %d %v direct: %v", trial, m, err)
			}
			if !direct.Exact || direct.Upper.Cmp(r.Upper) != 0 {
				t.Errorf("trial %d %v: blockwise %s != direct %s",
					trial, m, r.Upper.RatString(), direct.Upper.RatString())
			}
		}
	}
}

func blockVar(b, v int) string {
	return string(rune('A'+b)) + string(rune('a'+v))
}

// TestPreprocessInvariance checks simplification bookkeeping and that
// removal of subsumed/duplicate edges does not change any measure.
func TestPreprocessInvariance(t *testing.T) {
	h := hypergraph.MustParse("e1(a,b,c), e2(a,b), e3(a,b,c), e4(c,d)")
	p := simplify(h, GHW, false)
	// e2 subsumed, e3 duplicate.
	if len(p.kept) != 2 || p.removed != 2 {
		t.Fatalf("kept=%v removed=%d, want 2 kept / 2 removed", p.kept, p.removed)
	}
	pHW := simplify(h, HW, false)
	// For hw only the duplicate is dropped.
	if len(pHW.kept) != 3 || pHW.removed != 1 {
		t.Fatalf("hw: kept=%v removed=%d, want 3 kept / 1 removed", pHW.kept, pHW.removed)
	}
	for _, m := range []Measure{HW, GHW, FHW} {
		pre, err := Solve(context.Background(), h, Options{Measure: m, Validate: true})
		if err != nil {
			t.Fatal(err)
		}
		raw, err := Solve(context.Background(), h, Options{Measure: m, NoPreprocess: true, Validate: true})
		if err != nil {
			t.Fatal(err)
		}
		if !pre.Exact || !raw.Exact || pre.Upper.Cmp(raw.Upper) != 0 {
			t.Errorf("%v: preprocessed %s != raw %s", m, pre.Upper.RatString(), raw.Upper.RatString())
		}
	}
}

// TestBiconnectedSplit pins the pieces of small shapes: under ghw (and
// fhw) the primal graph's biconnected blocks, under hw its connected
// components. Each piece is written as its edge names, ascending.
func TestBiconnectedSplit(t *testing.T) {
	for _, tc := range []struct {
		name, h string
		ghw, hw []string
	}{
		{"path", "e1(a,b), e2(b,c), e3(c,d)",
			[]string{"e1", "e2", "e3"}, []string{"e1 e2 e3"}},
		{"star", "e1(c,a), e2(c,b), e3(c,d)",
			[]string{"e1", "e2", "e3"}, []string{"e1 e2 e3"}},
		{"one-hyperedge", "e1(a,b,c)",
			[]string{"e1"}, []string{"e1"}},
		{"pendant-triangle", "t1(a,b), t2(b,c), t3(c,a), p1(a,x), p2(b,y), p3(c,z)",
			[]string{"p1", "p2", "p3", "t1 t2 t3"}, []string{"t1 t2 t3 p1 p2 p3"}},
		{"two-triangles", "a1(x,y), a2(y,z), a3(z,x), b1(x,u), b2(u,w), b3(w,x)",
			[]string{"a1 a2 a3", "b1 b2 b3"}, []string{"a1 a2 a3 b1 b2 b3"}},
		{"isolated-singleton", "e1(a,b), e2(b,c), s(z)",
			[]string{"e1", "e2", "s"}, []string{"e1 e2", "s"}},
	} {
		h := hypergraph.MustParse(tc.h)
		for _, m := range []Measure{GHW, HW} {
			want := tc.ghw
			if m == HW {
				want = tc.hw
			}
			var got []string
			for _, es := range simplify(h, m, false).blocks {
				var names []string
				for _, e := range es {
					names = append(names, h.EdgeName(e))
				}
				got = append(got, strings.Join(names, " "))
			}
			slices.Sort(got)
			if !slices.Equal(got, want) {
				t.Errorf("%s %v: pieces %q, want %q", tc.name, m, got, want)
			}
		}
	}
}

// TestSplitProperties checks the split of random hypergraphs of at most
// 14 vertices against independent definitions: the pieces partition the
// kept edges, ascending inside each piece; under hw they are
// vertex-disjoint and connected; under ghw a piece of two or more edges
// has no cut vertex (one [{v}]-component for every vertex v); two pieces
// share at most one vertex, and pieces joined through shared vertices
// form a forest. The pieces come parent-first: each meets the union of
// the pieces before it in at most one vertex, and decomp.Combine of the
// trivial per-piece witnesses, in split order, validates.
func TestSplitProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 1500; trial++ {
		n := 1 + rng.Intn(14)
		h := hypergraph.New()
		for e, m := 0, 1+rng.Intn(2*n); e < m; e++ {
			var vs []string
			for i, k := 0, 1+rng.Intn(min(n, 4)); i < k; i++ {
				vs = append(vs, fmt.Sprintf("v%d", rng.Intn(n)))
			}
			h.AddEdge("", vs...)
		}
		for _, m := range []Measure{HW, GHW} {
			p := simplify(h, m, false)
			fail := func(format string, args ...any) {
				t.Helper()
				t.Fatalf("trial %d %v on %s, pieces %v: %s", trial, m, h, p.blocks, fmt.Sprintf(format, args...))
			}
			var all []int
			verts := make([]hypergraph.VertexSet, len(p.blocks))
			for i, es := range p.blocks {
				if !slices.IsSorted(es) {
					fail("piece %d not ascending", i)
				}
				all = append(all, es...)
				verts[i] = h.UnionOfEdges(es)
				bh, _, _ := h.ExtractEdges(es)
				if m == HW && !bh.IsConnected() {
					fail("piece %d not connected", i)
				}
				if m == GHW && len(es) > 1 {
					for v := 0; v < bh.NumVertices(); v++ {
						if c := bh.ComponentsOf(hypergraph.SetOf(v), nil); len(c) != 1 {
							fail("piece %d has cut vertex %s", i, bh.VertexName(v))
						}
					}
				}
			}
			slices.Sort(all)
			if !slices.Equal(all, p.kept) {
				fail("pieces hold edges %v, kept %v", all, p.kept)
			}
			// Union-find over pieces (0..len-1) and shared vertices
			// (len+v): a repeated union closes a cycle.
			parent := make([]int, len(verts)+n)
			for i := range parent {
				parent[i] = i
			}
			var find func(x int) int
			find = func(x int) int {
				if parent[x] != x {
					parent[x] = find(parent[x])
				}
				return parent[x]
			}
			for i := range verts {
				for j := i + 1; j < len(verts); j++ {
					common := verts[i].Intersect(verts[j]).Count()
					if common > 1 || (m == HW && common > 0) {
						fail("pieces %d and %d share %d vertices", i, j, common)
					}
				}
				verts[i].ForEach(func(v int) bool {
					shared := false
					for j := range verts {
						shared = shared || (j != i && verts[j].Has(v))
					}
					if shared {
						a, b := find(i), find(len(verts)+v)
						if a == b {
							fail("pieces through vertex %s close a cycle", h.VertexName(v))
						}
						parent[a] = b
					}
					return true
				})
			}
			before := hypergraph.NewVertexSet(n)
			for i := range p.blocks {
				if c := verts[i].IntersectionCount(before); c > 1 {
					fail("piece %d meets the pieces before it in %d vertices", i, c)
				}
				before = before.UnionInPlace(verts[i])
			}
			d, err := decomp.Combine(h, trivialParts(h, p.blocks))
			if err != nil {
				fail("stitching in split order: %v", err)
			}
			if err := d.Validate(m.Kind()); err != nil {
				fail("stitched witness invalid: %v", err)
			}
		}
	}
}

// trivialParts returns the one-node trivialDecomp witness of each piece
// as a part for decomp.Combine.
func trivialParts(h *hypergraph.Hypergraph, pieces [][]int) []decomp.Part {
	parts := make([]decomp.Part, len(pieces))
	for i, es := range pieces {
		bh, vmap, emap := h.ExtractEdges(es)
		parts[i] = decomp.Part{D: trivialDecomp(bh), VertexMap: vmap, EdgeMap: emap}
	}
	return parts
}

// FuzzStitch: for any hypergraph of at most 12 vertices, under hw and
// ghw, decomp.Combine of the trivial per-piece witnesses in split order
// validates; in an order drawn from the fuzz bytes it either refuses or
// returns a witness that validates, never an invalid one.
func FuzzStitch(f *testing.F) {
	f.Add([]byte{6, 0, 1, 1, 1, 2, 1, 0, 2, 3, 1, 4, 1, 5, 1})
	f.Add([]byte{7, 0, 3, 2, 1, 3, 1, 4, 3, 6, 1, 0, 9})
	f.Add([]byte{12, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 0, 5, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		// Each pair of bytes after the first is an edge: a start vertex
		// and a membership mask over the next vertices.
		n := 1 + int(data[0])%12
		h := hypergraph.New()
		rest := data[1:]
		for i := 0; i+1 < len(rest) && h.NumEdges() < 16; i += 2 {
			vs := []string{fmt.Sprintf("v%d", int(rest[i])%n)}
			for j := 0; j < 8; j++ {
				if rest[i+1]&(1<<j) != 0 {
					vs = append(vs, fmt.Sprintf("v%d", (int(rest[i])+j+1)%n))
				}
			}
			h.AddEdge("", vs...)
		}
		for _, m := range []Measure{HW, GHW} {
			blocks := simplify(h, m, false).blocks
			parts := trivialParts(h, blocks)
			d, err := decomp.Combine(h, parts)
			if err != nil {
				t.Fatalf("%v on %s, pieces %v: split order: %v", m, h, blocks, err)
			}
			if err := d.Validate(m.Kind()); err != nil {
				t.Fatalf("%v on %s, pieces %v: split order: %v", m, h, blocks, err)
			}
			for i := len(parts) - 1; i > 0; i-- {
				j := int(data[i%len(data)]) % (i + 1)
				parts[i], parts[j] = parts[j], parts[i]
			}
			if d, err := decomp.Combine(h, parts); err == nil {
				if err := d.Validate(m.Kind()); err != nil {
					t.Fatalf("%v on %s: permuted order stitched an invalid witness: %v", m, h, err)
				}
			}
		}
	})
}

func TestEmptyAndTrivial(t *testing.T) {
	r, err := Solve(context.Background(), hypergraph.New(), Options{Measure: GHW})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Exact || r.Upper.Sign() != 0 {
		t.Fatalf("empty hypergraph: want exact width 0, got [%s, %s]",
			r.Lower.RatString(), r.Upper.RatString())
	}
	one := hypergraph.MustParse("e1(a,b,c)")
	r, err = Solve(context.Background(), one, Options{Measure: HW, Validate: true})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Exact || r.Upper.Cmp(lp.RI(1)) != 0 {
		t.Fatalf("single edge: want hw 1, got [%s, %s]", r.Lower.RatString(), r.Upper.RatString())
	}
}

// TestCancellation: an already-cancelled context must yield a partial
// result quickly, never an error, with whatever bounds were free.
func TestCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	h := hypergraph.Grid(4, 4)
	start := time.Now()
	r, err := (NewSolver(nil, 0)).Solve(ctx, h, Options{Measure: HW})
	if err != nil {
		t.Fatalf("cancelled solve errored: %v", err)
	}
	if !r.Partial {
		t.Fatal("cancelled solve not marked partial")
	}
	if r.Lower.Sign() <= 0 {
		t.Fatalf("partial result lost its lower bound: %s", r.Lower.RatString())
	}
	if time.Since(start) > 5*time.Second {
		t.Fatalf("cancelled solve took %v", time.Since(start))
	}
}

// TestTimeoutPartial: a tiny budget on a hard instance yields bounds,
// not a hang or an error.
func TestTimeoutPartial(t *testing.T) {
	h := hypergraph.Grid(5, 5) // 25 vertices: beyond the exact-DP gate
	r, err := Solve(context.Background(), h, Options{Measure: HW, Timeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Partial && !r.Exact {
		t.Fatal("want partial or (surprisingly fast) exact")
	}
	if r.Lower.Sign() <= 0 {
		t.Fatal("missing lower bound")
	}
}

// ri adapts an int width to *big.Rat via the lp helper.
func ri(k int) *big.Rat { return lp.RI(int64(k)) }

func TestFHWPortfolioWithoutExactDP(t *testing.T) {
	// No lane runs the exact elimination DP, and the fhw portfolio must
	// still close the triangle exactly: the fractional clique bound meets
	// a min-fill or sat-ord witness at 3/2.
	r, err := Solve(context.Background(), hypergraph.Clique(3), Options{
		Measure: FHW, Validate: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Exact || r.Upper.Cmp(lp.R(3, 2)) != 0 {
		t.Fatalf("fhw(K3) = [%v, %v] exact=%v, want exact 3/2", r.Lower, r.Upper, r.Exact)
	}
}
