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
// the cold rational fallback, which must stay right on its own.
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
// on these small covering LPs), all cold rational with it off.
func checkPathTaken(t *testing.T, st LPStats, float bool, what string) {
	t.Helper()
	if st.Solves == 0 || st.Solves != st.ColdStarts+st.FloatSolves {
		t.Fatalf("%s: solve paths do not partition the solves: %+v", what, st)
	}
	if float && st.FloatSolves != st.Solves {
		t.Fatalf("%s: float path answered %d of %d solves", what, st.FloatSolves, st.Solves)
	}
	if !float && st.ColdStarts != st.Solves {
		t.Fatalf("%s: rational path answered %d of %d solves", what, st.ColdStarts, st.Solves)
	}
}

// primalCover is the exact reference both solve paths are checked
// against: min Σ x_i subject to Σ_{i : v ∈ rows[i]} x_i ≥ 1 for every
// v ∈ vs, x ≥ 0, solved in primal form by the two-phase rational
// simplex — not through the dual ≤-form the solvers use. It returns
// nil when some vertex lies in no row.
func primalCover(rows []hypergraph.VertexSet, vs []int) *big.Rat {
	if len(vs) == 0 {
		return new(big.Rat)
	}
	p := lp.NewProblem(len(rows))
	for i := range rows {
		p.SetObjective(i, lp.RI(1))
	}
	for _, v := range vs {
		coef := make([]*big.Rat, len(rows))
		for i, r := range rows {
			if r.Has(v) {
				coef[i] = lp.RI(1)
			}
		}
		p.AddConstraint(coef, lp.GE, lp.RI(1))
	}
	s, err := p.Solve()
	if err != nil || s.Status != lp.Optimal {
		return nil
	}
	return s.Value
}

// edgeSets returns the vertex sets of the given edges of h.
func edgeSets(h *hypergraph.Hypergraph, edges []int) []hypergraph.VertexSet {
	sets := make([]hypergraph.VertexSet, len(edges))
	for i, e := range edges {
		sets[i] = h.Edge(e)
	}
	return sets
}

// rationalRho is ρ*(ws) by primalCover over the edges meeting ws.
func rationalRho(h *hypergraph.Hypergraph, ws hypergraph.VertexSet) *big.Rat {
	return primalCover(edgeSets(h, h.EdgesIntersecting(ws)), ws.Vertices())
}

// TestIncrementalMatchesSolveCoverLP walks a random DFS of atom stacks
// and compares every solve against primalCover, the primal-form
// rational cover LP of the stacked atoms, on both solve paths.
func TestIncrementalMatchesSolveCoverLP(t *testing.T) {
	eachPath(t, testIncrementalMatchesSolveCoverLP)
}

func testIncrementalMatchesSolveCoverLP(t *testing.T, float bool) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := hypergraph.RandomBIP(rng, 8, 6, 4, 2)
		var ic Incremental

		// Atoms: the edges of h.
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
			union := hypergraph.NewVertexSet(h.NumVertices())
			var rows []hypergraph.VertexSet
			for _, ai := range stack {
				rows = append(rows, atoms[ai])
				union = union.UnionInPlace(atoms[ai])
			}
			want := primalCover(rows, union.Vertices())
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
				ic.Push(atoms[ai])
				walk(depth - 1)
				ic.Pop()
				stack = stack[:len(stack)-1]
			}
		}
		walk(3)
		checkPathTaken(t, ic.lp.stats, float, "DFS")
	}
}

// TestTargetLPMatchesFractionalEdgeCover drifts a target set around a
// random hypergraph and compares every ρ*(target) against the
// primal-form rational cover LP, on both solve paths.
func TestTargetLPMatchesFractionalEdgeCover(t *testing.T) {
	eachPath(t, testTargetLPMatchesFractionalEdgeCover)
}

func testTargetLPMatchesFractionalEdgeCover(t *testing.T, float bool) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := hypergraph.RandomBIP(rng, 9, 6, 3, 2)
		tl := NewTargetLP(h)
		vs := h.Vertices().Vertices()
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
	tl := NewTargetLP(h)
	if w, _ := tl.Solve(hypergraph.SetOf(a, iso)); w != nil {
		t.Fatal("isolated vertex must be uncoverable")
	}
	w, g := tl.Solve(hypergraph.SetOf(a, b))
	if w == nil || w.Cmp(lp.RI(1)) != 0 || len(g) != 1 {
		t.Fatalf("ρ*({a,b}) = %v (%v), want 1 via e", w, g)
	}
}
