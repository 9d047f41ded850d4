package core_test

// Differential tests for the PR-6 cross-scope warm-basis cache: an
// iterative-deepening sequence of CheckFHD levels sharing one
// cover.BasisCache through FHDOptions.Basis must decide — and
// weigh — exactly like the same sequence with a fresh cache per level.
// The cover LP is k-independent (k only thresholds the optimum), so a
// warm basis revived from another level or another DFS scope can steer
// the pivot order but never the optimum; these tests pin that argument
// over the testdata/corpus mini corpus and the generator families,
// mirroring the PR-5 lazy-vs-eager pattern in fhddiff_test.go.

import (
	"context"
	"fmt"
	"testing"

	"hypertree/internal/core"
	"hypertree/internal/corpus"
	"hypertree/internal/cover"
	"hypertree/internal/decomp"
	"hypertree/internal/hypergraph"
	"hypertree/internal/lp"
)

// diffBasisDeepening runs the deepening loop twice over h — one shared
// cache across levels versus a fresh cache per level — comparing the
// decision at every level and the witness width at acceptance. Returns
// the shared cache so callers can assert revival happened and which
// solve path answered.
func diffBasisDeepening(t *testing.T, name string, h *hypergraph.Hypergraph, maxK int) *cover.BasisCache {
	t.Helper()
	shared := cover.NewBasisCache(0)
	for k := 1; k <= maxK; k++ {
		kr := lp.RI(int64(k))
		ds, err := core.CheckFHD(h, kr, core.FHDOptions{Basis: shared})
		if err != nil {
			t.Fatalf("%s: shared-cache CheckFHD at k=%d: %v", name, k, err)
		}
		df, err := core.CheckFHD(h, kr, core.FHDOptions{})
		if err != nil {
			t.Fatalf("%s: fresh-cache CheckFHD at k=%d: %v", name, k, err)
		}
		if (ds == nil) != (df == nil) {
			t.Fatalf("%s: decision mismatch at k=%d: shared=%v fresh=%v",
				name, k, ds != nil, df != nil)
		}
		if ds == nil {
			continue
		}
		if ds.Width().Cmp(df.Width()) != 0 {
			t.Fatalf("%s: width mismatch at k=%d: shared=%s fresh=%s",
				name, k, ds.Width().RatString(), df.Width().RatString())
		}
		if err := ds.ValidateWidth(decomp.FHD, kr); err != nil {
			t.Fatalf("%s: shared-cache witness invalid at k=%d: %v", name, k, err)
		}
		break
	}
	return shared
}

// TestFHDSharedBasisCacheMatchesFreshOnCorpus runs the differential over
// every tractable instance of the mini corpus and checks that the shared
// cache actually revived solvers somewhere — a cache that never hits
// would make the differential vacuous — and that the float path
// answered the cover LPs. The rational warm path behind it is guarded
// with the float path switched off in internal/cover's revival tests.
func TestFHDSharedBasisCacheMatchesFreshOnCorpus(t *testing.T) {
	instances, err := corpus.LoadDir("../../testdata/corpus")
	if err != nil {
		t.Fatal(err)
	}
	if len(instances) == 0 {
		t.Fatal("empty corpus")
	}
	ran, hits, float := 0, 0, 0
	for _, in := range instances {
		h, _, err := in.Read()
		if err != nil {
			t.Fatalf("%s: %v", in.Name, err)
		}
		if !fhdDiffable(h) {
			continue
		}
		ran++
		bc := diffBasisDeepening(t, in.Name, h, 3)
		hits += bc.Stats().Hits
		float += bc.WarmStats().FloatSolves
	}
	if ran < 10 {
		t.Fatalf("only %d corpus instances were diffable; the gate is too tight", ran)
	}
	if hits == 0 {
		t.Fatal("the shared cache never revived a warm basis across the corpus")
	}
	if float == 0 {
		t.Fatal("no cover LP across the corpus was answered float-first")
	}
}

// TestFHDSharedBasisCacheMatchesFreshOnGenerators runs the differential
// over generator families whose deepening spans at least two levels, so
// cross-level revival (one cache shared across levels) is exercised,
// not just cross-scope revival within one run.
func TestFHDSharedBasisCacheMatchesFreshOnGenerators(t *testing.T) {
	fixtures := map[string]*hypergraph.Hypergraph{
		"cycle6":     hypergraph.Cycle(6),
		"clique4":    hypergraph.Clique(4),
		"grid2x3":    hypergraph.Grid(2, 3),
		"hypercycle": hypergraph.HyperCycle(6, 3, 1),
	}
	hits, float := 0, 0
	for name, h := range fixtures {
		bc := diffBasisDeepening(t, name, h, 3)
		hits += bc.Stats().Hits
		float += bc.WarmStats().FloatSolves
	}
	if hits == 0 {
		t.Fatal("the shared cache never revived a warm basis across the generators")
	}
	if float == 0 {
		t.Fatal("no cover LP across the generators was answered float-first")
	}
}

// TestCheckFHDBasisCacheCounters deepens CheckFHDCtx on the triangle
// (reject at k=1, accept at k=2: fhw = 3/2) through one caller-owned
// BasisCache, serially and with two workers, and checks the LP counters
// the cache reports. Parallel workers solve in private caches and never
// borrow from the caller's, so every solve it counts at Parallelism 2
// arrived through the retire-time Absorb.
func TestCheckFHDBasisCacheCounters(t *testing.T) {
	h := hypergraph.Clique(3)
	for _, par := range []int{1, 2} {
		t.Run(fmt.Sprintf("parallelism=%d", par), func(t *testing.T) {
			basis := cover.NewBasisCache(0)
			es := &core.EngineStats{}
			opt := core.FHDOptions{Basis: basis, Stats: es, Parallelism: par}
			for k := 1; k <= 2; k++ {
				d, err := core.CheckFHDCtx(context.Background(), h, lp.RI(int64(k)), opt)
				if err != nil {
					t.Fatalf("k=%d: %v", k, err)
				}
				if (d != nil) != (k == 2) {
					t.Fatalf("k=%d: accepted=%v, want accept only at 2", k, d != nil)
				}
			}
			ws := basis.WarmStats()
			if ws.Solves == 0 || ws.Solves != ws.FloatSolves+ws.ColdStarts+ws.NoopSolves+ws.PrimalSolves+ws.DualSolves {
				t.Fatalf("LP path mix does not partition the solves: %+v", ws)
			}
			if ws.FloatSolves == 0 {
				t.Fatalf("no cover LP was answered float-first: %+v", ws)
			}
			bs := basis.Stats()
			switch {
			case par == 1 && bs.Hits+bs.Misses == 0:
				t.Fatalf("serial run never borrowed from the cache: %+v", bs)
			case par > 1 && (es.ParWorkers == 0 || bs.Hits+bs.Misses != 0):
				t.Fatalf("parallel run: workers=%d, caller-cache borrows=%d, want >0 and 0",
					es.ParWorkers, bs.Hits+bs.Misses)
			}
			if es.Subproblems == 0 || es.DynResets == 0 {
				t.Fatalf("engine counters missing: %+v", *es)
			}
		})
	}
}
