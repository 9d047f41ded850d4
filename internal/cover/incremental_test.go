package cover

import (
	"math/big"
	"math/rand"
	"testing"

	"hypertree/internal/hypergraph"
	"hypertree/internal/lp"
)

// setFloatFirst sets the float-path seam for the rest of the test: on,
// solves answer float-first as in production; off, every solve takes
// the rational warm path, which stays the fallback and must stay right
// on its own.
func setFloatFirst(t *testing.T, on bool) {
	t.Helper()
	old := floatFirst
	floatFirst = on
	t.Cleanup(func() { floatFirst = old })
}

// eachPath runs f once per solve path as a subtest.
func eachPath(t *testing.T, f func(t *testing.T, float bool)) {
	for _, float := range []bool{true, false} {
		name := "rational"
		if float {
			name = "float"
		}
		t.Run(name, func(t *testing.T) {
			setFloatFirst(t, float)
			f(t, float)
		})
	}
}

// checkPathTaken asserts that the solves of st went where the seam sent
// them: all float-first with the seam on (the certificate never failed
// on these small covering LPs), and through the warm engine, resuming
// warm at least once, with it off.
func checkPathTaken(t *testing.T, st lp.WarmStats, float bool, what string) {
	t.Helper()
	if st.Solves != st.ColdStarts+st.NoopSolves+st.PrimalSolves+st.DualSolves+st.FloatSolves {
		t.Fatalf("%s: solve paths do not partition the solves: %+v", what, st)
	}
	if float && (st.FloatSolves == 0 || st.FloatSolves != st.Solves) {
		t.Fatalf("%s: float path answered %d of %d solves", what, st.FloatSolves, st.Solves)
	}
	if !float && (st.FloatSolves != 0 || st.WarmSolves == 0) {
		t.Fatalf("%s never took the warm path: %+v", what, st)
	}
}

// rationalRho is ρ*(ws) by the rational simplex alone (nil when some
// vertex of ws lies in no edge): the exact reference the float-first
// and warm paths are both checked against.
func rationalRho(h *hypergraph.Hypergraph, ws hypergraph.VertexSet) *big.Rat {
	if ws.IsEmpty() {
		return new(big.Rat)
	}
	w, _ := solveCoverRational(h, h.EdgesIntersecting(ws), ws.Vertices())
	return w
}

// TestIncrementalMatchesSolveCoverLP walks a random DFS of atom stacks
// and compares every solve against the one-shot rational cover LP on an
// equivalent hypergraph, on both solve paths.
func TestIncrementalMatchesSolveCoverLP(t *testing.T) {
	eachPath(t, testIncrementalMatchesSolveCoverLP)
}

func testIncrementalMatchesSolveCoverLP(t *testing.T, float bool) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := hypergraph.RandomBIP(rng, 8, 6, 4, 2)
		scope := h.Vertices()
		ic := NewIncremental(scope)

		// Atoms: the edges of h plus a few random subsets.
		var atoms []hypergraph.VertexSet
		for e := 0; e < h.NumEdges(); e++ {
			atoms = append(atoms, h.Edge(e))
		}
		check := func(stack []int) {
			if len(stack) == 0 {
				return
			}
			got := ic.Solve()
			if got == nil {
				t.Fatal("incremental solve failed")
			}
			// Reference: a scratch hypergraph whose edges are the stacked
			// atoms, covering their union.
			ref := hypergraph.New()
			for v := 0; v < h.NumVertices(); v++ {
				ref.Vertex(h.VertexName(v))
			}
			union := hypergraph.NewVertexSet(h.NumVertices())
			var es []int
			for i, ai := range stack {
				ref.AddEdgeSet("", atoms[ai])
				union = union.UnionInPlace(atoms[ai])
				es = append(es, i)
			}
			want, _ := solveCoverRational(ref, es, union.Vertices())
			if want == nil {
				t.Fatal("reference cover LP failed")
			}
			if got.Cmp(want) != 0 {
				t.Fatalf("seed %d: incremental %v ≠ reference %v (stack %v)",
					seed, got.RatString(), want.RatString(), stack)
			}
			// The duals must certify the same weight and cover the union.
			sum := new(big.Rat)
			weights := make(map[int]*big.Rat)
			for i := range stack {
				d := ic.Dual(i)
				if d.Sign() < 0 {
					t.Fatal("negative cover weight")
				}
				sum.Add(sum, d)
				weights[i] = new(big.Rat).Set(d)
			}
			if sum.Cmp(got) != 0 {
				t.Fatalf("dual weights sum to %v, optimum %v", sum, got)
			}
			one := lp.RI(1)
			bad := false
			union.ForEach(func(v int) bool {
				acc := new(big.Rat)
				for i, ai := range stack {
					if atoms[ai].Has(v) {
						acc.Add(acc, weights[i])
					}
				}
				if acc.Cmp(one) < 0 {
					bad = true
					return false
				}
				return true
			})
			if bad {
				t.Fatalf("seed %d: dual weights do not cover the union", seed)
			}
		}

		var stack []int
		var walk func(depth int)
		walk = func(depth int) {
			check(stack)
			if depth == 0 {
				return
			}
			for trial := 0; trial < 2; trial++ {
				ai := rng.Intn(len(atoms))
				stack = append(stack, ai)
				ic.Push(ai, atoms[ai])
				walk(depth - 1)
				ic.Pop()
				stack = stack[:len(stack)-1]
			}
		}
		walk(3)
		checkPathTaken(t, ic.Stats(), float, "DFS")
	}
}

// TestTargetLPMatchesFractionalEdgeCover drifts a target set around a
// random hypergraph and compares every ρ*(target) against the one-shot
// rational cover LP, on both solve paths.
func TestTargetLPMatchesFractionalEdgeCover(t *testing.T) {
	eachPath(t, testTargetLPMatchesFractionalEdgeCover)
}

func testTargetLPMatchesFractionalEdgeCover(t *testing.T, float bool) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := hypergraph.RandomBIP(rng, 9, 6, 3, 2)
		scope := h.Vertices()
		tl := NewTargetLP(h, scope)
		vs := scope.Vertices()
		ws := hypergraph.NewVertexSet(h.NumVertices())
		for step := 0; step < 15; step++ {
			v := vs[rng.Intn(len(vs))]
			if ws.Has(v) {
				ws.Remove(v)
			} else {
				ws.Add(v)
			}
			gotW, gotG := tl.Solve(ws)
			wantW := rationalRho(h, ws)
			if (gotW == nil) != (wantW == nil) {
				t.Fatalf("seed %d: solvability mismatch on %v", seed, ws)
			}
			if gotW == nil {
				continue
			}
			if gotW.Cmp(wantW) != 0 {
				t.Fatalf("seed %d: ρ*(%v) = %v, want %v", seed, ws, gotW.RatString(), wantW.RatString())
			}
			// The returned cover must be optimal and actually cover ws.
			if gotG.Weight().Cmp(wantW) != 0 {
				t.Fatalf("cover weight %v ≠ optimum %v", gotG.Weight(), wantW)
			}
			if !ws.IsSubsetOf(gotG.Covered(h)) {
				t.Fatalf("seed %d: cover misses target vertices", seed)
			}
		}
		checkPathTaken(t, tl.Stats(), float, "target drift")
	}
}

// TestTargetLPUncoverable: a vertex in no edge must be reported as
// uncoverable, and recoverably so once it leaves the target.
func TestTargetLPUncoverable(t *testing.T) {
	eachPath(t, func(t *testing.T, _ bool) { testTargetLPUncoverable(t) })
}

func testTargetLPUncoverable(t *testing.T) {
	h := hypergraph.New()
	a := h.Vertex("a")
	b := h.Vertex("b")
	iso := h.Vertex("iso")
	h.AddEdgeSet("e", hypergraph.SetOf(a, b))
	tl := NewTargetLP(h, h.Vertices())
	if w, _ := tl.Solve(hypergraph.SetOf(a, iso)); w != nil {
		t.Fatal("isolated vertex must be uncoverable")
	}
	w, g := tl.Solve(hypergraph.SetOf(a, b))
	if w == nil || w.Cmp(lp.RI(1)) != 0 || len(g) != 1 {
		t.Fatalf("ρ*({a,b}) = %v (%v), want 1 via e", w, g)
	}
}
