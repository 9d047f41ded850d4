package core

import (
	"context"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"

	"hypertree/internal/decomp"
	"hypertree/internal/hypergraph"
	"hypertree/internal/lp"
)

// Differential tests for the cover-oracle engine: the rewritten
// Check(·,k) procedures must decide exactly like the pre-engine
// implementations. The old behaviours are reconstructed here — a naive
// string-keyed det-k-decomp as an independent reference, and the eager
// BIPSubedges/FullSubedgeClosure → Augment → CheckHD pipeline that
// CheckGHDViaBIP/CheckGHDExact used to run — and compared on paper
// fixtures and random hypergraphs, with every returned witness
// validated.

// refCheckHD is a deliberately naive det-k-decomp used as the
// differential oracle for Check(HD,k): string-keyed memo, fresh
// allocations everywhere, no engine machinery shared with the
// implementation under test.
func refCheckHD(h *hypergraph.Hypergraph, k int) bool {
	if k <= 0 || h.NumEdges() == 0 {
		return false
	}
	memo := map[string]bool{}
	var solve func(c, w hypergraph.VertexSet) bool
	solve = func(c, w hypergraph.VertexSet) bool {
		key := c.Key() + "|" + w.Key()
		if v, ok := memo[key]; ok {
			return v
		}
		scope := c.Union(w)
		var cands []int
		for e := 0; e < h.NumEdges(); e++ {
			if h.Edge(e).Intersects(scope) {
				cands = append(cands, e)
			}
		}
		var lambda []int
		var rec func(start int) bool
		rec = func(start int) bool {
			if len(lambda) > 0 {
				bag := h.UnionOfEdges(lambda).Intersect(scope)
				if w.IsSubsetOf(bag) && bag.Intersects(c) {
					good := true
					for _, comp := range h.ComponentsOf(bag, c) {
						wc := hypergraph.NewVertexSet(h.NumVertices())
						for _, e := range h.EdgesIntersecting(comp) {
							wc = wc.UnionInPlace(h.Edge(e))
						}
						wc = wc.IntersectInPlace(bag)
						if !solve(comp, wc) {
							good = false
							break
						}
					}
					if good {
						return true
					}
				}
			}
			if len(lambda) == k {
				return false
			}
			for i := start; i < len(cands); i++ {
				lambda = append(lambda, cands[i])
				if rec(i + 1) {
					return true
				}
				lambda = lambda[:len(lambda)-1]
			}
			return false
		}
		ok := rec(0)
		memo[key] = ok
		return ok
	}
	return solve(h.Vertices(), hypergraph.NewVertexSet(h.NumVertices()))
}

// eagerCheckGHD reconstructs the pre-engine Check(GHD,k) pipeline:
// materialize the whole subedge pool, augment, run Check(HD,k) on the
// augmented hypergraph, map covers back to originators.
func eagerCheckGHD(h *hypergraph.Hypergraph, k int, exact bool) (*decomp.Decomp, error) {
	var subs []hypergraph.VertexSet
	var err error
	if exact {
		subs, err = FullSubedgeClosure(h, 0)
	} else {
		subs, err = BIPSubedges(h, k, 0)
	}
	if err != nil {
		return nil, err
	}
	aug := Augment(h, subs)
	hd := CheckHD(aug.H, k)
	if hd == nil {
		return nil, nil
	}
	return aug.ToOriginal(hd), nil
}

func engineTestFixtures() []*hypergraph.Hypergraph {
	return []*hypergraph.Hypergraph{
		hypergraph.Path(5),
		hypergraph.Cycle(6),
		hypergraph.Clique(4),
		hypergraph.ExampleH0(),
		hypergraph.Grid(2, 3),
		hypergraph.HyperCycle(6, 4, 2),
		hypergraph.MustParse("a1(x,y),a2(y,z),a3(z,x),b1(p,q),b2(q,r),b3(r,p)"),
	}
}

func TestCheckHDMatchesReference(t *testing.T) {
	for _, h := range engineTestFixtures() {
		for k := 1; k <= 3; k++ {
			want := refCheckHD(h, k)
			d := CheckHD(h, k)
			if (d != nil) != want {
				t.Fatalf("CheckHD(%v, %d) = %v, reference says %v", h, k, d != nil, want)
			}
			if d != nil {
				if err := d.ValidateWidth(decomp.HD, lp.RI(int64(k))); err != nil {
					t.Fatalf("CheckHD(%v, %d) witness invalid: %v", h, k, err)
				}
			}
		}
	}
}

func TestCheckHDMatchesReferenceRandom(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := hypergraph.RandomBIP(rng, 8, 6, 3, 2)
		for k := 1; k <= 3; k++ {
			want := refCheckHD(h, k)
			d := CheckHD(h, k)
			if (d != nil) != want {
				return false
			}
			if d != nil && d.ValidateWidth(decomp.HD, lp.RI(int64(k))) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestLazyGHDMatchesEagerPipeline(t *testing.T) {
	for _, h := range engineTestFixtures() {
		for k := 1; k <= 3; k++ {
			want, err := eagerCheckGHD(h, k, false)
			if err != nil {
				t.Fatalf("eager pipeline failed on %v at k=%d: %v", h, k, err)
			}
			got, err := CheckGHDViaBIP(h, k, Options{})
			if err != nil {
				t.Fatalf("CheckGHDViaBIP(%v, %d): %v", h, k, err)
			}
			if (got != nil) != (want != nil) {
				t.Fatalf("CheckGHDViaBIP(%v, %d) = %v, eager pipeline says %v",
					h, k, got != nil, want != nil)
			}
			if got != nil {
				if err := got.ValidateWidth(decomp.GHD, lp.RI(int64(k))); err != nil {
					t.Fatalf("lazy witness invalid on %v at k=%d: %v", h, k, err)
				}
			}
		}
	}
}

func TestLazyGHDMatchesEagerPipelineRandom(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := hypergraph.RandomBIP(rng, 8, 5, 3, 2)
		for k := 1; k <= 3; k++ {
			want, err := eagerCheckGHD(h, k, false)
			if err != nil {
				return false
			}
			got, err := CheckGHDViaBIP(h, k, Options{})
			if err != nil || (got != nil) != (want != nil) {
				return false
			}
			if got != nil && got.ValidateWidth(decomp.GHD, lp.RI(int64(k))) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestLazyGHDExactMatchesEagerClosure(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := hypergraph.RandomBIP(rng, 7, 4, 3, 2)
		for k := 1; k <= 3; k++ {
			want, err := eagerCheckGHD(h, k, true)
			if err != nil {
				return false
			}
			got, err := CheckGHDExact(h, k, Options{})
			if err != nil || (got != nil) != (want != nil) {
				return false
			}
			if got != nil && got.ValidateWidth(decomp.GHD, lp.RI(int64(k))) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestLazyGHDAgreesWithExactDPOnFixtures pins the lazy path against the
// exact elimination DP on the structured families where ghw is known.
func TestLazyGHDAgreesWithExactDPOnFixtures(t *testing.T) {
	for _, h := range engineTestFixtures() {
		ghw, _ := ExactGHW(h)
		if ghw < 0 || ghw > 3 {
			continue
		}
		for k := 1; k <= 3; k++ {
			d, err := CheckGHDViaBIP(h, k, Options{})
			if err != nil {
				t.Fatalf("CheckGHDViaBIP(%v, %d): %v", h, k, err)
			}
			if (d != nil) != (ghw <= k) {
				t.Fatalf("CheckGHDViaBIP(%v, %d) = %v but ghw = %d", h, k, d != nil, ghw)
			}
		}
	}
}

// TestFracDecompSoundAndTight — Algorithm 3 on the engine: accepting at
// k+ε yields a valid FHD no wider than k+ε, and a target strictly below
// fhw must reject (acceptance is sound, Theorem 6.16).
func TestFracDecompSoundAndTight(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := hypergraph.RandomBIP(rng, 7, 5, 3, 2)
		fhw, _ := ExactFHW(h)
		if fhw == nil {
			return true
		}
		eps := lp.R(1, 2)
		d := FracDecomp(h, FracDecompParams{K: fhw, Eps: eps, C: 8})
		if d != nil {
			if d.Validate(decomp.FHD) != nil {
				return false
			}
			limit := new(big.Rat).Add(fhw, eps)
			if d.Width().Cmp(limit) > 0 {
				return false
			}
		}
		// Target k+ε = fhw − 1/2 < fhw: no FHD of that width exists, so
		// frac-decomp must reject whatever c allows.
		low := new(big.Rat).Sub(fhw, lp.RI(1))
		if below := FracDecomp(h, FracDecompParams{K: low, Eps: eps, C: 8}); below != nil {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestCheckFHDWitnessesOnRandom — the engine-based CheckFHD returns
// validating witnesses at rational thresholds around the optimum.
func TestCheckFHDWitnessesOnRandom(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := hypergraph.RandomBoundedDegree(rng, 6, 4, 3, 2)
		fhw, _ := ExactFHW(h)
		if fhw == nil {
			return true
		}
		for _, k := range []*big.Rat{fhw, new(big.Rat).Add(fhw, lp.R(1, 3))} {
			d, err := CheckFHD(h, k, FHDOptions{})
			if err != nil || d == nil {
				return false
			}
			if d.ValidateWidth(decomp.FHD, k) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestCheckFHDCtxMatchesDirect — the new context-aware FHD entry point
// behaves exactly like CheckFHD under a live context.
func TestCheckFHDCtxMatchesDirect(t *testing.T) {
	ctx := context.Background()
	h := hypergraph.Clique(3)
	for _, k := range []*big.Rat{lp.R(149, 100), lp.R(3, 2), lp.RI(2)} {
		want, err := CheckFHD(h, k, FHDOptions{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := CheckFHDCtx(ctx, h, k, FHDOptions{})
		if err != nil || (got != nil) != (want != nil) {
			t.Fatalf("CheckFHDCtx(K3, %s) = (%v, %v), direct says %v",
				k.RatString(), got != nil, err, want != nil)
		}
	}
	// A dead context aborts promptly with ctx.Err().
	dead, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := CheckFHDCtx(dead, hypergraph.Grid(3, 3), lp.RI(2), FHDOptions{}); err == nil {
		t.Fatal("CheckFHDCtx on dead context: want error")
	}
}

// TestHWCliqueStartMatchesNaiveDeepening — starting iterative deepening
// at the clique lower bound must not change HW's answer.
func TestHWCliqueStartMatchesNaiveDeepening(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := hypergraph.RandomBIP(rng, 8, 6, 3, 2)
		naive := -1
		for k := 1; k <= h.NumEdges(); k++ {
			if CheckHD(h, k) != nil {
				naive = k
				break
			}
		}
		hw, d := HW(h, 0)
		if hw != naive {
			return false
		}
		return naive < 0 || (d != nil && d.Validate(decomp.HD) == nil)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
	// Clique fixture: the 4-clique forces the start level above 1.
	h := hypergraph.Clique(4)
	if lb := cliqueStartK(h); lb < 2 {
		t.Fatalf("cliqueStartK(K4) = %d, want ≥ 2", lb)
	}
	hw, _ := HW(h, 0)
	want := -1
	for k := 1; k <= h.NumEdges(); k++ {
		if CheckHD(h, k) != nil {
			want = k
			break
		}
	}
	if hw != want {
		t.Fatalf("HW(K4) = %d, naive deepening says %d", hw, want)
	}
}

// TestGHDSubedgeCapStillTriggers — the lazy generator must honor
// MaxSubedges like the eager closure did.
func TestGHDSubedgeCapStillTriggers(t *testing.T) {
	h := hypergraph.ExampleH0()
	// H0 at k=2 needs subedges (hw = 3 > ghw = 2), so generation must
	// run and exceed a tiny cap.
	if _, err := CheckGHDViaBIP(h, 2, Options{MaxSubedges: 3}); err == nil {
		t.Fatal("tiny subedge cap must trigger on H0 at k=2")
	}
	// With the default cap the decision goes through.
	d, err := CheckGHDViaBIP(h, 2, Options{})
	if err != nil || d == nil {
		t.Fatalf("CheckGHDViaBIP(H0, 2) = (%v, %v), want witness", d != nil, err)
	}
}

// TestGHDExactSubedgeCapSurfaces — when the f⁺ closure trips its cap
// the run must return the error, never a clean "no": failures under a
// capped closure cannot be trusted.
func TestGHDExactSubedgeCapSurfaces(t *testing.T) {
	d, err := CheckGHDExact(hypergraph.Clique(6), 2, Options{MaxSubedges: 4})
	if err == nil {
		t.Fatalf("CheckGHDExact(K6, 2) with a 4-subedge cap = (%v, nil), want the cap error", d != nil)
	}
}
