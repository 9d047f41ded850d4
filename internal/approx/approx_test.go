// The suite lives in an external test package: it loads instances
// through internal/corpus, which (via internal/solve's portfolio) now
// imports internal/approx, so an in-package test would be an import
// cycle.
package approx_test

import (
	"bufio"
	"context"
	"math/big"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	. "hypertree/internal/approx"
	"hypertree/internal/core"
	"hypertree/internal/corpus"
	"hypertree/internal/cover"
	"hypertree/internal/decomp"
	"hypertree/internal/hypergraph"
	"hypertree/internal/lp"
)

const testCorpusDir = "../../testdata/corpus"

// goldenWidths parses GOLDEN.tsv into name → exact ghw.
func goldenWidths(t *testing.T) map[string]int {
	t.Helper()
	f, err := os.Open(filepath.Join(testCorpusDir, "GOLDEN.tsv"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string]int{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Split(line, "\t")
		if len(fields) < 2 {
			t.Fatalf("bad golden line %q", line)
		}
		w, ok := new(big.Rat).SetString(fields[1])
		if !ok || !w.IsInt() {
			t.Fatalf("bad golden width %q", fields[1])
		}
		out[fields[0]] = int(w.Num().Int64())
	}
	if len(out) == 0 {
		t.Fatal("empty golden file")
	}
	return out
}

func corpusInstances(t *testing.T) []corpus.Instance {
	t.Helper()
	ins, err := corpus.LoadDir(testCorpusDir)
	if err != nil {
		t.Fatal(err)
	}
	return ins
}

// TestLogNIntegralSoundOnCorpus is the differential suite's integral
// leg: on every corpus instance with a known exact ghw, the LogN ladder
// must return a valid GHD with exact ≤ width ≤ RatioBound(n)·exact, and
// the structural certificate width ≤ (depth+1)·m must hold.
func TestLogNIntegralSoundOnCorpus(t *testing.T) {
	golden := goldenWidths(t)
	ctx := context.Background()
	for _, in := range corpusInstances(t) {
		exact, ok := golden[in.Name]
		if !ok {
			continue
		}
		h, _, err := in.Read()
		if err != nil {
			t.Fatalf("%s: %v", in.Name, err)
		}
		d, st, err := LogN(ctx, h, Options{Integral: true})
		if err != nil {
			t.Fatalf("%s: LogN: %v", in.Name, err)
		}
		if err := d.Validate(decomp.GHD); err != nil {
			t.Fatalf("%s: invalid GHD: %v", in.Name, err)
		}
		w := d.Width()
		if w.Cmp(lp.RI(int64(exact))) < 0 {
			t.Fatalf("%s: upper bound %s below exact ghw %d", in.Name, w.RatString(), exact)
		}
		cap := new(big.Rat).Mul(RatioBound(h.NumVertices()), lp.RI(int64(exact)))
		if w.Cmp(cap) > 0 {
			t.Fatalf("%s: width %s exceeds certified ratio bound %s (exact %d, n %d)",
				in.Name, w.RatString(), cap.RatString(), exact, h.NumVertices())
		}
		if w.Cmp(st.CertBound) > 0 {
			t.Fatalf("%s: width %s exceeds structural certificate %s",
				in.Name, w.RatString(), st.CertBound.RatString())
		}
	}
}

// TestLogNFractionalSoundOnCorpus is the fractional leg: valid FHDs
// whose width brackets the exact fhw (computed by the elimination DP on
// the small instances) within the certified ratio.
func TestLogNFractionalSoundOnCorpus(t *testing.T) {
	ctx := context.Background()
	for _, in := range corpusInstances(t) {
		h, _, err := in.Read()
		if err != nil {
			t.Fatalf("%s: %v", in.Name, err)
		}
		d, st, err := LogN(ctx, h, Options{})
		if err != nil {
			t.Fatalf("%s: LogN: %v", in.Name, err)
		}
		if err := d.Validate(decomp.FHD); err != nil {
			t.Fatalf("%s: invalid FHD: %v", in.Name, err)
		}
		w := d.Width()
		if w.Cmp(st.CertBound) > 0 {
			t.Fatalf("%s: width %s exceeds structural certificate %s",
				in.Name, w.RatString(), st.CertBound.RatString())
		}
		if h.NumVertices() > 16 {
			continue // exact DP too expensive; the certificate was still checked
		}
		exact, _ := core.ExactFHW(h)
		if exact == nil {
			continue
		}
		if w.Cmp(exact) < 0 {
			t.Fatalf("%s: upper bound %s below exact fhw %s", in.Name, w.RatString(), exact.RatString())
		}
		cap := new(big.Rat).Mul(RatioBound(h.NumVertices()), exact)
		if w.Cmp(cap) > 0 {
			t.Fatalf("%s: width %s exceeds certified ratio bound %s (exact %s)",
				in.Name, w.RatString(), cap.RatString(), exact.RatString())
		}
	}
}

// trivialDecomp builds the one-bag witness Improve is expected to tear
// apart: every covered vertex in a single bag under a greedy cover.
func trivialDecomp(t *testing.T, h *hypergraph.Hypergraph) *decomp.Decomp {
	t.Helper()
	bag := hypergraph.NewVertexSet(h.NumVertices())
	for e := 0; e < h.NumEdges(); e++ {
		bag.UnionInPlace(h.Edge(e))
	}
	cov := cover.IntegralCover(h, bag, 0)
	if cov == nil {
		t.Fatal("greedy cover failed")
	}
	d := decomp.New(h)
	d.AddNode(-1, bag, cov)
	return d
}

// TestImproveNeverLoosens property-tests the monotone contract: from
// min-fill, LogN and trivial starting points over random hypergraphs,
// Improve must return a valid decomposition of the same kind with width
// ≤ the incumbent's.
func TestImproveNeverLoosens(t *testing.T) {
	ctx := context.Background()
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var h *hypergraph.Hypergraph
		if seed%2 == 0 {
			h = hypergraph.RandomBIP(rng, 10+int(seed), 8+int(seed), 4, 2)
		} else {
			h = hypergraph.RandomBoundedDegree(rng, 12+int(seed), 9, 4, 3)
		}
		if h.NumEdges() == 0 {
			continue
		}
		for _, integral := range []bool{true, false} {
			kind := decomp.FHD
			if integral {
				kind = decomp.GHD
			}
			var starts []*decomp.Decomp
			starts = append(starts, trivialDecomp(t, h))
			if d, _, err := LogN(ctx, h, Options{Integral: integral}); err == nil {
				starts = append(starts, d)
			}
			if integral {
				if _, d := core.MinFillGHD(h); d != nil {
					starts = append(starts, d)
				}
			} else if _, d := core.MinFillFHD(h); d != nil {
				starts = append(starts, d)
			}
			for si, d0 := range starts {
				before := d0.Width()
				d1, _, err := Improve(ctx, h, d0, ImproveOptions{Integral: integral})
				if err != nil {
					t.Fatalf("seed %d integral=%v start %d: %v", seed, integral, si, err)
				}
				if d1.Width().Cmp(before) > 0 {
					t.Fatalf("seed %d integral=%v start %d: loosened %s → %s",
						seed, integral, si, before.RatString(), d1.Width().RatString())
				}
				if err := d1.Validate(kind); err != nil {
					t.Fatalf("seed %d integral=%v start %d: invalid %v after improve: %v",
						seed, integral, si, kind, err)
				}
				if integral && !d1.IsIntegral() {
					t.Fatalf("seed %d start %d: integral improve produced fractional weights", seed, si)
				}
			}
		}
	}
}

// TestImproveTightensTrivial pins that the splitting pass actually
// works: the one-bag witness of a path must improve strictly (a path
// has ghw 1, the trivial bag needs ⌈n/2⌉ edges).
func TestImproveTightensTrivial(t *testing.T) {
	h := hypergraph.Path(8)
	d0 := trivialDecomp(t, h)
	d1, st, err := Improve(context.Background(), h, d0, ImproveOptions{Integral: true})
	if err != nil {
		t.Fatal(err)
	}
	if d1.Width().Cmp(d0.Width()) >= 0 {
		t.Fatalf("trivial witness not improved: %s → %s", d0.Width().RatString(), d1.Width().RatString())
	}
	if st.Splits == 0 {
		t.Fatalf("expected at least one split, got stats %+v", st)
	}
	if err := d1.Validate(decomp.GHD); err != nil {
		t.Fatal(err)
	}
}

// TestImproveAnytimeCallback pins the OnImprove hook: every published
// snapshot must be valid and monotonically tighter.
func TestImproveAnytimeCallback(t *testing.T) {
	h := hypergraph.Grid(3, 3)
	d0 := trivialDecomp(t, h)
	last := d0.Width()
	calls := 0
	_, _, err := Improve(context.Background(), h, d0, ImproveOptions{
		Integral: true,
		OnImprove: func(d *decomp.Decomp) {
			calls++
			if d.Width().Cmp(last) >= 0 {
				t.Fatalf("snapshot %d loosened %s → %s", calls, last.RatString(), d.Width().RatString())
			}
			last = d.Width()
			if err := d.Validate(decomp.GHD); err != nil {
				t.Fatalf("snapshot %d invalid: %v", calls, err)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Fatal("OnImprove never fired on the trivial grid witness")
	}
}

// TestLogNCanceled: a dead context surfaces as ctx.Err().
func TestLogNCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := LogN(ctx, hypergraph.Grid(3, 3), Options{}); err != context.Canceled {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if _, _, err := Improve(ctx, hypergraph.Grid(3, 3), trivialDecomp(t, hypergraph.Grid(3, 3)), ImproveOptions{}); err != context.Canceled {
		t.Fatalf("improve: got %v, want context.Canceled", err)
	}
}

// TestRatioBound pins the certified factor shape ⌈log₂ n⌉ + 2.
func TestRatioBound(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{1, 2}, {2, 3}, {3, 4}, {4, 4}, {5, 5}, {8, 5}, {9, 6}, {1024, 12},
	} {
		if got := RatioBound(tc.n); got.Cmp(lp.RI(int64(tc.want))) != 0 {
			t.Fatalf("RatioBound(%d) = %s, want %d", tc.n, got.RatString(), tc.want)
		}
	}
}

// TestLogNDisconnected: component roots chain under one tree and the
// result still validates.
func TestLogNDisconnected(t *testing.T) {
	h := hypergraph.New()
	h.AddEdge("a", "x1", "x2")
	h.AddEdge("b", "x2", "x3")
	h.AddEdge("c", "y1", "y2") // second component
	d, _, err := LogN(context.Background(), h, Options{Integral: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(decomp.GHD); err != nil {
		t.Fatal(err)
	}
	if d.Width().Cmp(lp.RI(2)) > 0 {
		t.Fatalf("disconnected toy instance got width %s", d.Width().RatString())
	}
}

// BenchmarkApproxLadder measures the ladder on a mid-size grid: the
// logn leg is the recursive balanced-separator construction alone,
// logn+improve chains the improvement passes the portfolio runs on every
// incumbent.
func BenchmarkApproxLadder(b *testing.B) {
	h := hypergraph.Grid(4, 5)
	ctx := context.Background()
	for _, improve := range []bool{false, true} {
		name := "logn"
		if improve {
			name = "logn+improve"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				d, _, err := LogN(ctx, h, Options{})
				if err != nil {
					b.Fatal(err)
				}
				if !improve {
					continue
				}
				if _, _, err := Improve(ctx, h, d, ImproveOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkApproxImproveMinFill measures the improvement passes alone
// over the min-fill incumbent (the portfolio's minfill → local-improve
// chain).
func BenchmarkApproxImproveMinFill(b *testing.B) {
	h := hypergraph.Grid(4, 5)
	_, d := core.MinFillFHD(h)
	if d == nil {
		b.Fatal("min-fill failed")
	}
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		if _, _, err := Improve(ctx, h, d, ImproveOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
