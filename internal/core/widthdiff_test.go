package core_test

// Width differentials for the Check(·,k) procedures: at each measure's
// ground-truth width the check must accept with a witness that
// validates at that width, and one level below it must reject. The
// ground truth is iterative deepening from the clique bound (hw, ghw)
// cross-checked against the exact elimination DP where it is cheap
// (ghw, fhw), over the testdata/corpus mini corpus and the E-series
// generator families.

import (
	"math/big"
	"math/rand"
	"testing"

	"hypertree/internal/core"
	"hypertree/internal/corpus"
	"hypertree/internal/decomp"
	"hypertree/internal/hypergraph"
	"hypertree/internal/lp"
)

// widthDiffable gates the integral (HD/GHD) differential to instances
// whose full rejection leg stays CI-sized under the race detector.
func widthDiffable(h *hypergraph.Hypergraph) bool {
	return h.NumVertices() <= 18 && h.NumEdges() <= 18 && h.Rank() <= 6
}

// exactDiffable gates the exact-DP cross-checks.
func exactDiffable(h *hypergraph.Hypergraph) bool {
	return h.NumVertices() <= 14 && h.Rank() <= 5
}

// diffHDAtWidth pins Check(HD,k) at hw and hw-1.
func diffHDAtWidth(t *testing.T, name string, h *hypergraph.Hypergraph) {
	t.Helper()
	hw, _ := core.HW(h, 0)
	if hw < 0 {
		return
	}
	d := core.CheckHD(h, hw)
	if d == nil {
		t.Fatalf("%s: Check(HD,%d) rejects at hw", name, hw)
	}
	if err := d.ValidateWidth(decomp.HD, lp.RI(int64(hw))); err != nil {
		t.Fatalf("%s: HD witness invalid at hw=%d: %v", name, hw, err)
	}
	if hw > 1 && core.CheckHD(h, hw-1) != nil {
		t.Fatalf("%s: Check(HD,%d) accepts below hw=%d", name, hw-1, hw)
	}
}

// diffGHDAtWidth pins Check(GHD,k)-via-BIP at ghw and ghw-1, with ghw checked
// against the exact DP on small instances.
func diffGHDAtWidth(t *testing.T, name string, h *hypergraph.Hypergraph) {
	t.Helper()
	ghw, _, err := core.GHWViaBIP(h, 0, core.Options{})
	if err != nil {
		t.Fatalf("%s: GHD deepening: %v", name, err)
	}
	if exactDiffable(h) {
		if want, _ := core.ExactGHW(h); ghw != want {
			t.Fatalf("%s: BIP deepening says ghw=%d, exact DP says %d", name, ghw, want)
		}
	}
	d, err := core.CheckGHDViaBIP(h, ghw, core.Options{})
	if err != nil {
		t.Fatalf("%s: Check(GHD,%d): %v", name, ghw, err)
	}
	if d == nil {
		t.Fatalf("%s: Check(GHD,%d) rejects at ghw", name, ghw)
	}
	if err := d.ValidateWidth(decomp.GHD, lp.RI(int64(ghw))); err != nil {
		t.Fatalf("%s: GHD witness invalid at ghw=%d: %v", name, ghw, err)
	}
	if ghw > 1 {
		d, err := core.CheckGHDViaBIP(h, ghw-1, core.Options{})
		if err != nil {
			t.Fatalf("%s: Check(GHD,%d): %v", name, ghw-1, err)
		}
		if d != nil {
			t.Fatalf("%s: Check(GHD,%d) accepts below ghw=%d", name, ghw-1, ghw)
		}
	}
}

// diffFHDAtWidth pins Check(FHD,k) at fhw (from the exact DP) and just below.
func diffFHDAtWidth(t *testing.T, name string, h *hypergraph.Hypergraph) {
	t.Helper()
	fhw, _ := core.ExactFHW(h)
	if fhw == nil {
		return
	}
	d, err := core.CheckFHD(h, fhw, core.FHDOptions{})
	if err != nil {
		t.Fatalf("%s: CheckFHD: %v", name, err)
	}
	if d == nil {
		t.Fatalf("%s: Check(FHD,%s) rejects, exact DP says fhw", name, fhw.RatString())
	}
	if d.Width().Cmp(fhw) != 0 {
		t.Fatalf("%s: FHD width %s != fhw %s", name, d.Width().RatString(), fhw.RatString())
	}
	if err := d.ValidateWidth(decomp.FHD, fhw); err != nil {
		t.Fatalf("%s: FHD witness invalid: %v", name, err)
	}
	if fhw.Cmp(lp.RI(1)) > 0 && h.NumEdges() <= 8 {
		below := new(big.Rat).Sub(fhw, lp.R(1, 1000))
		d, err := core.CheckFHD(h, below, core.FHDOptions{})
		if err != nil {
			t.Fatalf("%s: CheckFHD below fhw: %v", name, err)
		}
		if d != nil {
			t.Fatalf("%s: Check(FHD,%s) accepts below fhw", name, below.RatString())
		}
	}
}

func diffWidths(t *testing.T, name string, h *hypergraph.Hypergraph) {
	t.Helper()
	diffHDAtWidth(t, name, h)
	diffGHDAtWidth(t, name, h)
	if exactDiffable(h) {
		diffFHDAtWidth(t, name, h)
	}
}

// TestChecksAcceptAtWidthRejectBelow runs the three differentials over
// every tractable instance of the mini corpus and over the generator
// families — including instances with many components after one bag
// removal (grids, hypercycles) and disconnected ones (twotriangles),
// which split at the root.
func TestChecksAcceptAtWidthRejectBelow(t *testing.T) {
	t.Run("corpus", func(t *testing.T) {
		instances, err := corpus.LoadDir("../../testdata/corpus")
		if err != nil {
			t.Fatal(err)
		}
		ran := 0
		for _, in := range instances {
			h, _, err := in.Read()
			if err != nil {
				t.Fatalf("%s: %v", in.Name, err)
			}
			if !widthDiffable(h) {
				continue
			}
			ran++
			diffWidths(t, in.Name, h)
		}
		if ran < 10 {
			t.Fatalf("only %d corpus instances were diffable; the gate is too tight", ran)
		}
	})
	t.Run("generators", func(t *testing.T) {
		fixtures := map[string]*hypergraph.Hypergraph{
			"path6":        hypergraph.Path(6),
			"cycle7":       hypergraph.Cycle(7),
			"clique4":      hypergraph.Clique(4),
			"grid3x3":      hypergraph.Grid(3, 3),
			"hypercycle":   hypergraph.HyperCycle(6, 3, 1),
			"twotriangles": hypergraph.MustParse("a1(x,y),a2(y,z),a3(z,x),b1(p,q),b2(q,r),b3(r,p)"),
		}
		for seed := int64(0); seed < 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			fixtures["bdp"+string(rune('0'+seed))] = hypergraph.RandomBoundedDegree(rng, 7, 5, 3, 2)
		}
		for name, h := range fixtures {
			if !widthDiffable(h) {
				t.Fatalf("fixture %s is not diffable; shrink it", name)
			}
			diffWidths(t, name, h)
		}
	})
}
