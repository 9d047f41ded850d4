package core_test

// Differential tests for the shared cover-LP solver pool: an
// iterative-deepening sequence of CheckFHD levels sharing one
// cover.BasisCache through FHDOptions.Basis must decide — and
// weigh — exactly like the same sequence with a fresh pool per level.
// A solver recycled from another level or another DFS scope carries
// buffers and counters, never answers; these tests pin that over the
// testdata/corpus mini corpus and the generator families, mirroring the
// lazy-vs-eager pattern in fhddiff_test.go.

import (
	"context"
	"testing"

	"hypertree/internal/core"
	"hypertree/internal/corpus"
	"hypertree/internal/cover"
	"hypertree/internal/decomp"
	"hypertree/internal/hypergraph"
	"hypertree/internal/lp"
	"hypertree/internal/telemetry"
)

// diffBasisDeepening runs the deepening loop twice over h — one shared
// cache across levels versus a fresh cache per level — comparing the
// decision at every level and the witness width at acceptance. Returns
// the shared cache so callers can assert which solve path answered.
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
// every tractable instance of the mini corpus and checks that the float
// path answered the cover LPs. The cold rational path behind it is
// guarded with the float path switched off in internal/cover's tests.
func TestFHDSharedBasisCacheMatchesFreshOnCorpus(t *testing.T) {
	instances, err := corpus.LoadDir("../../testdata/corpus")
	if err != nil {
		t.Fatal(err)
	}
	if len(instances) == 0 {
		t.Fatal("empty corpus")
	}
	ran, float := 0, 0
	for _, in := range instances {
		h, _, err := in.Read()
		if err != nil {
			t.Fatalf("%s: %v", in.Name, err)
		}
		if !fhdDiffable(h) {
			continue
		}
		ran++
		float += diffBasisDeepening(t, in.Name, h, 3).LPStats().FloatSolves
	}
	if ran < 10 {
		t.Fatalf("only %d corpus instances were diffable; the gate is too tight", ran)
	}
	if float == 0 {
		t.Fatal("no cover LP across the corpus was answered float-first")
	}
}

// TestFHDSharedBasisCacheMatchesFreshOnGenerators runs the differential
// over generator families whose deepening spans at least two levels, so
// solvers recycled across levels (one pool shared across levels) are
// exercised, not just across scopes within one run.
func TestFHDSharedBasisCacheMatchesFreshOnGenerators(t *testing.T) {
	fixtures := map[string]*hypergraph.Hypergraph{
		"cycle6":     hypergraph.Cycle(6),
		"clique4":    hypergraph.Clique(4),
		"grid2x3":    hypergraph.Grid(2, 3),
		"hypercycle": hypergraph.HyperCycle(6, 3, 1),
	}
	float := 0
	for name, h := range fixtures {
		float += diffBasisDeepening(t, name, h, 3).LPStats().FloatSolves
	}
	if float == 0 {
		t.Fatal("no cover LP across the generators was answered float-first")
	}
}

// TestCheckFHDBasisCacheCounters deepens CheckFHDCtx on the triangle
// (reject at k=1, accept at k=2: fhw = 3/2) through one caller-owned
// BasisCache and checks the LP counters the cache reports. The search
// is single-worker, which the subtest name records.
func TestCheckFHDBasisCacheCounters(t *testing.T) {
	h := hypergraph.Clique(3)
	t.Run("parallelism=1", func(t *testing.T) {
		basis := cover.NewBasisCache(0)
		tr := telemetry.NewTrace()
		opt := core.FHDOptions{Basis: basis, Trace: tr}
		for k := 1; k <= 2; k++ {
			d, err := core.CheckFHDCtx(context.Background(), h, lp.RI(int64(k)), opt)
			if err != nil {
				t.Fatalf("k=%d: %v", k, err)
			}
			if (d != nil) != (k == 2) {
				t.Fatalf("k=%d: accepted=%v, want accept only at 2", k, d != nil)
			}
		}
		ls := basis.LPStats()
		if ls.Solves == 0 || ls.Solves != ls.FloatSolves+ls.ColdStarts {
			t.Fatalf("LP path mix does not partition the solves: %+v", ls)
		}
		if ls.FloatSolves == 0 {
			t.Fatalf("no cover LP was answered float-first: %+v", ls)
		}
		if bs := basis.Stats(); bs.Borrows == 0 {
			t.Fatalf("the run never borrowed from the cache: %+v", bs)
		}
		if c := tr.Summary().Counters; c.EngineRuns != 2 || c.EngineSubproblems == 0 || c.DynResets == 0 {
			t.Fatalf("engine counters missing: %+v", c)
		}
	})
}
