package hypertree_test

// One benchmark per experiment of DESIGN.md's per-experiment index
// (E1–E14). Each bench regenerates the series its paper artifact
// predicts — cover numbers, widths, witness validations, approximation
// qualities — and reports the relevant scalar as a custom metric where
// meaningful, so `go test -bench=.` reproduces the paper-vs-measured
// tables of EXPERIMENTS.md.

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"hypertree/internal/core"
	"hypertree/internal/cover"
	"hypertree/internal/csp"
	"hypertree/internal/decomp"
	"hypertree/internal/hypergraph"
	"hypertree/internal/lp"
	"hypertree/internal/ordenc"
	"hypertree/internal/sat"
	"hypertree/internal/vc"
)

// BenchmarkE01CliqueCovers — Lemma 2.3: ρ(K_2n) = ρ*(K_2n) = n.
func BenchmarkE01CliqueCovers(b *testing.B) {
	for _, n := range []int{2, 3, 4} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			k := hypergraph.Clique(2 * n)
			for i := 0; i < b.N; i++ {
				if cover.Rho(k) != n || cover.RhoStar(k).Cmp(lp.RI(int64(n))) != 0 {
					b.Fatal("Lemma 2.3 violated")
				}
			}
		})
	}
}

// BenchmarkE02GadgetWidths — Figure 1 / Lemma 3.1: the gadget has
// fhw = ghw = 2 regardless of |M|.
func BenchmarkE02GadgetWidths(b *testing.B) {
	for _, m := range []int{0, 1, 2} {
		b.Run(fmt.Sprintf("M=%d", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				h, _ := sat.StandaloneGadget(m, m)
				fhw, _ := core.ExactFHW(h)
				if fhw.Cmp(lp.RI(2)) != 0 {
					b.Fatal("gadget fhw != 2")
				}
			}
		})
	}
}

// BenchmarkE03ReductionYes — Theorem 3.2 "if" / Table 1: building H(φ)
// and validating the width-2 witness GHD, over growing formulas.
func BenchmarkE03ReductionYes(b *testing.B) {
	for _, nm := range [][2]int{{1, 1}, {2, 2}, {3, 2}, {4, 3}} {
		b.Run(fmt.Sprintf("n=%d_m=%d", nm[0], nm[1]), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			var cnf *sat.CNF
			var model []bool
			for {
				cnf = sat.Random3SAT(rng, nm[0], nm[1])
				if model = cnf.Solve(); model != nil {
					break
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := sat.BuildReduction(cnf)
				d, err := sat.WitnessGHD(r, model)
				if err != nil || d.Validate(decomp.GHD) != nil || d.Width().Cmp(lp.RI(2)) != 0 {
					b.Fatal("witness construction failed")
				}
				b.ReportMetric(float64(r.H.NumVertices()), "vertices")
			}
		})
	}
}

// BenchmarkE04ReductionLemmas — Theorem 3.2 "only if": exact-LP checks
// of Lemmas 3.5/3.6 on the reduction hypergraph.
func BenchmarkE04ReductionLemmas(b *testing.B) {
	cnf := sat.NewCNF(sat.Clause{1, 1, 1}, sat.Clause{-1, -1, -1}) // unsat
	r := sat.BuildReduction(cnf)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r.VerifyCoreLP() != nil || r.VerifyLemma36(r.Min()) != nil {
			b.Fatal("reduction lemmas violated")
		}
	}
}

// BenchmarkE05ExampleH0 — Example 4.3 / Figures 4–6: hw = 3 > ghw = 2.
func BenchmarkE05ExampleH0(b *testing.B) {
	h := hypergraph.ExampleH0()
	for i := 0; i < b.N; i++ {
		hw, _ := core.HW(h, 4)
		ghw, _ := core.ExactGHW(h)
		if hw != 3 || ghw != 2 {
			b.Fatalf("H0 widths hw=%d ghw=%d", hw, ghw)
		}
	}
}

// BenchmarkE06UnionIntersectionTree — Figure 7 / Example 4.12.
func BenchmarkE06UnionIntersectionTree(b *testing.B) {
	h := hypergraph.ExampleH0()
	d := decomp.Figure6bGHD(h)
	e2, _ := h.EdgeIDByName("e2")
	v3, _ := h.VertexID("v3")
	v9, _ := h.VertexID("v9")
	want := hypergraph.SetOf(v3, v9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree, _, err := core.UnionOfIntersectionsTree(d, 0, e2)
		if err != nil || !tree.LeafUnion(h).Equal(want) {
			b.Fatal("Figure 7 tree wrong")
		}
	}
}

// BenchmarkE07CheckGHDBIP — Theorem 4.11: Check(GHD,k) via BIP
// augmentation, scaling over instance size.
func BenchmarkE07CheckGHDBIP(b *testing.B) {
	for _, size := range []int{6, 9, 12} {
		b.Run(fmt.Sprintf("grid2x%d", size/2), func(b *testing.B) {
			g := hypergraph.Grid(2, size/2)
			for i := 0; i < b.N; i++ {
				d, err := core.CheckGHDViaBIP(g, 2, core.Options{})
				if err != nil || d == nil {
					b.Fatal("grid has ghw 2")
				}
			}
		})
	}
}

// BenchmarkE08CheckFHDBDP — Theorem 5.2: Check(FHD,k) under bounded
// degree. The lazy leg is the default since PR 5 (per-scope f⁺ atoms,
// memoized cover LPs); the eager leg reconstructs the pre-PR-5
// pipeline by materializing the full closure and passing it through
// FHDOptions.Subedges.
func BenchmarkE08CheckFHDBDP(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	h := hypergraph.RandomBoundedDegree(rng, 7, 5, 3, 2)
	fhw, _ := core.ExactFHW(h)
	if fhw == nil {
		b.Skip("degenerate instance")
	}
	b.Run("lazy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			d, err := core.CheckFHD(h, fhw, core.FHDOptions{})
			if err != nil || d == nil {
				b.Fatal("CheckFHD must accept at fhw")
			}
		}
	})
	b.Run("eager", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			subs, err := core.FullSubedgeClosure(h, 0)
			if err != nil {
				b.Fatal(err)
			}
			d, err := core.CheckFHD(h, fhw, core.FHDOptions{Subedges: subs})
			if err != nil || d == nil {
				b.Fatal("CheckFHD must accept at fhw")
			}
		}
	})
}

// BenchmarkE08CheckFHDGrid — the FHD check on grid instances, where the
// support enumeration solves long runs of sibling cover LPs (the
// lazy-closure showcase of PR 5).
func BenchmarkE08CheckFHDGrid(b *testing.B) {
	h := hypergraph.Grid(2, 4)
	k := lp.RI(2) // fhw(grid 2×4) = 2
	b.Run("lazy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			d, err := core.CheckFHD(h, k, core.FHDOptions{})
			if err != nil || d == nil {
				b.Fatal("CheckFHD must accept the 2×4 grid at 2")
			}
		}
	})
	b.Run("eager", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			subs, err := core.FullSubedgeClosure(h, 0)
			if err != nil {
				b.Fatal(err)
			}
			d, err := core.CheckFHD(h, k, core.FHDOptions{Subedges: subs})
			if err != nil || d == nil {
				b.Fatal("CheckFHD must accept the 2×4 grid at 2")
			}
		}
	})
}

// BenchmarkE09UnboundedSupport — Example 5.1: ρ*(H_n) = 2 − 1/n with
// support n+1.
func BenchmarkE09UnboundedSupport(b *testing.B) {
	for _, n := range []int{4, 8, 16} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			h := hypergraph.UnboundedSupport(n)
			want := new(big.Rat).Sub(lp.RI(2), lp.R(1, int64(n)))
			for i := 0; i < b.N; i++ {
				w, g := cover.FractionalEdgeCover(h, h.Vertices())
				if w.Cmp(want) != 0 {
					b.Fatal("Example 5.1 value wrong")
				}
				b.ReportMetric(float64(len(g.Support())), "support")
			}
		})
	}
}

// BenchmarkE10FHWApprox — Theorems 6.1/6.20: the PTAAS binary search
// with the exact finder.
func BenchmarkE10FHWApprox(b *testing.B) {
	h := hypergraph.ExampleH0()
	eps := lp.R(1, 4)
	fhw, _ := core.ExactFHW(h)
	limit := new(big.Rat).Add(fhw, eps)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := core.FHWApproximation(h, 3, eps, core.ExactFinder)
		if d == nil || d.Width().Cmp(limit) >= 0 {
			b.Fatal("PTAAS out of bounds")
		}
	}
}

// BenchmarkE11LogKApprox — Theorem 6.23: integral-cover approximation
// quality (reported as width ratio ×1000).
func BenchmarkE11LogKApprox(b *testing.B) {
	h := hypergraph.Clique(7)
	fhw, fd := core.ExactFHW(h)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := core.IntegralizeCovers(fd, 16)
		if g == nil || g.Validate(decomp.GHD) != nil {
			b.Fatal("integralization failed")
		}
		ratio := new(big.Rat).Quo(g.Width(), fhw)
		f, _ := ratio.Float64()
		b.ReportMetric(f, "width-ratio")
	}
	_ = vc.Dimension(h)
}

// BenchmarkE12CorpusStudy — the HyperBench-style corpus statistics.
func BenchmarkE12CorpusStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(3))
		corpus := csp.SyntheticCorpus(rng, 5)
		s := csp.Collect(corpus)
		if s.Total == 0 || s.IWidthLE2*2 < s.Total {
			b.Fatal("corpus shape unexpected")
		}
		b.ReportMetric(100*float64(s.Acyclic)/float64(s.Total), "%acyclic")
	}
}

// BenchmarkE13WidthLift — Section 3 closing: fhw(lift_ℓ(H)) = fhw(H)+ℓ.
func BenchmarkE13WidthLift(b *testing.B) {
	base := hypergraph.Clique(3)
	want := lp.R(5, 2) // 3/2 + 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lifted := sat.WidthLift(base, 1)
		fhw, _ := core.ExactFHW(lifted)
		if fhw.Cmp(want) != 0 {
			b.Fatal("width lift wrong")
		}
	}
}

// BenchmarkE14Transforms — Lemma 4.6 / Theorem A.3: bag-maximalization
// and FNF preserve validity and width.
func BenchmarkE14Transforms(b *testing.B) {
	h := hypergraph.ExampleH0()
	for i := 0; i < b.N; i++ {
		d := decomp.Figure6aGHD(h)
		d.BagMaximalize()
		if !d.IsBagMaximal() || d.Validate(decomp.GHD) != nil {
			b.Fatal("bag-maximalization broke the GHD")
		}
		f := decomp.Figure5HD(h)
		if f.ToFNF() != nil || f.ValidateFNF() != nil {
			b.Fatal("FNF transformation failed")
		}
	}
}

// BenchmarkExactDPScaling — the exact elimination DP ([42]) versus the
// polynomial BIP check: the shape the tractability theorems predict
// (exponential vs polynomial growth in n).
func BenchmarkExactDPScaling(b *testing.B) {
	for _, n := range []int{8, 10, 12, 14} {
		b.Run(fmt.Sprintf("exact_n=%d", n), func(b *testing.B) {
			g := hypergraph.Cycle(n)
			for i := 0; i < b.N; i++ {
				if w, _ := core.ExactGHW(g); w != 2 {
					b.Fatal("cycle ghw != 2")
				}
			}
		})
		b.Run(fmt.Sprintf("bip_n=%d", n), func(b *testing.B) {
			g := hypergraph.Cycle(n)
			for i := 0; i < b.N; i++ {
				if d, _ := core.CheckGHDViaBIP(g, 2, core.Options{}); d == nil {
					b.Fatal("cycle ghw != 2")
				}
			}
		})
	}
}

// BenchmarkLPCover — the exact rational LP on growing covering problems
// (the inner loop of every fractional-width computation).
func BenchmarkLPCover(b *testing.B) {
	for _, n := range []int{6, 10, 14} {
		b.Run(fmt.Sprintf("K%d", n), func(b *testing.B) {
			k := hypergraph.Clique(n)
			for i := 0; i < b.N; i++ {
				if w := cover.RhoStar(k); w == nil {
					b.Fatal("no cover")
				}
			}
		})
	}
}

// BenchmarkLPIncrementalVsOneShot — a buffer-reusing solver against
// allocating one-shot solves on a DFS-shaped sequence of sibling cover
// LPs: push the edges of K_n one by one, solving the cover LP of the
// union after each push, then walk the last stack slot through every
// remaining edge (a pop+push+re-solve per sibling, the FHD oracle's
// innermost move). The incremental leg drives one cover.Incremental
// across the sequence; the one-shot leg builds each LP afresh in a new
// cover.Incremental. Both solve float-first.
func BenchmarkLPIncrementalVsOneShot(b *testing.B) {
	k := hypergraph.Clique(8)
	grow := k.NumEdges() / 2
	b.Run("one-shot", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			stack := make([]int, 0, grow)
			solve := func() {
				var ic cover.Incremental
				for _, e := range stack {
					ic.Push(k.Edge(e))
				}
				if ic.Solve() == nil {
					b.Fatal("cover LP failed")
				}
			}
			stack = append(stack, 0)
			for e := 1; e < grow; e++ {
				stack = append(stack, e)
				solve()
			}
			for e := grow; e < k.NumEdges(); e++ {
				stack[len(stack)-1] = e
				solve()
			}
		}
	})
	b.Run("incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var ic cover.Incremental
			ic.Push(k.Edge(0))
			for e := 1; e < grow; e++ {
				ic.Push(k.Edge(e))
				if ic.Solve() == nil {
					b.Fatal("cover LP failed")
				}
			}
			for e := grow; e < k.NumEdges(); e++ {
				ic.Pop()
				ic.Push(k.Edge(e))
				if ic.Solve() == nil {
					b.Fatal("cover LP failed")
				}
			}
		}
	})
}

// BenchmarkE07FPTInIntersectionWidth — Theorem 4.15: Check(GHD,k) is FPT
// in the intersection width i; runtime grows with i (the 2^{ik} closure)
// at fixed instance size.
func BenchmarkE07FPTInIntersectionWidth(b *testing.B) {
	for _, i := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("i=%d", i), func(b *testing.B) {
			h := hypergraph.HyperCycle(6, i+2, i)
			for n := 0; n < b.N; n++ {
				d, err := core.CheckGHDViaBIP(h, 2, core.Options{})
				if err != nil || d == nil {
					b.Fatal("hypercycle has ghw 2")
				}
			}
		})
	}
}

// BenchmarkEngineIncrementality — PR 6: the engine's incremental
// connectivity on Check(·,k)-dominated runs. The deepenFHD leg drives
// an iterative-deepening CheckFHD loop (reject at k=1, accept at k=2,
// as `hgwidth -check` levels do); the decision legs pin the
// steady-state cost of the HD/GHD guess loops that now ride
// DynComponents instead of per-guess ComponentsOf. The grid legs at
// workload-mix scale (5×8, 6×6, 5×6) time the connector-pruned λ
// enumeration on the levels the hw and ghw races run there: the hw
// acceptance at 3, the k=3 rejection that proves hw(grid6x6) = 4, and a
// ghw refutation of level 2.
func BenchmarkEngineIncrementality(b *testing.B) {
	b.Run("checkHD/grid2x4", func(b *testing.B) {
		g := hypergraph.Grid(2, 4)
		for i := 0; i < b.N; i++ {
			if core.CheckHD(g, 3) == nil {
				b.Fatal("grid 2x4 has hw ≤ 3")
			}
		}
	})
	b.Run("checkHD/grid5x8-k3", func(b *testing.B) {
		g := hypergraph.Grid(5, 8)
		for i := 0; i < b.N; i++ {
			if core.CheckHD(g, 3) == nil {
				b.Fatal("grid 5x8 has hw ≤ 3")
			}
		}
	})
	b.Run("checkHD/grid6x6-k3-reject", func(b *testing.B) {
		g := hypergraph.Grid(6, 6)
		for i := 0; i < b.N; i++ {
			if core.CheckHD(g, 3) != nil {
				b.Fatal("grid 6x6 has hw 4")
			}
		}
	})
	b.Run("checkGHD/grid5x6-k2-reject", func(b *testing.B) {
		g := hypergraph.Grid(5, 6)
		for i := 0; i < b.N; i++ {
			d, err := core.CheckGHDViaBIP(g, 2, core.Options{})
			if err != nil || d != nil {
				b.Fatal("grid 5x6 has ghw 3")
			}
		}
	})
	b.Run("checkGHD/grid2x6", func(b *testing.B) {
		g := hypergraph.Grid(2, 6)
		for i := 0; i < b.N; i++ {
			d, err := core.CheckGHDViaBIP(g, 2, core.Options{})
			if err != nil || d == nil {
				b.Fatal("grid 2x6 has ghw 2")
			}
		}
	})
	b.Run("deepenFHD", func(b *testing.B) {
		g := hypergraph.Grid(2, 3)
		for i := 0; i < b.N; i++ {
			var d *decomp.Decomp
			for k := 1; k <= 2 && d == nil; k++ {
				var err error
				d, err = core.CheckFHD(g, lp.RI(int64(k)), core.FHDOptions{})
				if err != nil {
					b.Fatal(err)
				}
				if d != nil && k != 2 {
					b.Fatal("grid 2x3 must reject at k=1")
				}
			}
			if d == nil {
				b.Fatal("grid 2x3 must accept at k=2")
			}
		}
	})
}

// BenchmarkSATOrdering — PR 9: the ordering-based SAT strategy against
// the engine's subedge-based deepening on mid-size grids (24–28
// vertices). Both legs run the full ghw deepening sweep — reject every
// level below 3, accept at 3 — which is exactly the race the portfolio
// stages; the SAT legs keep one incremental solver across levels. The
// fhw leg runs the LP-hybrid sweep the fhw portfolio stages on grid
// 4×5: integer levels from 2 until one accepts, then RefineBelow down
// to the exact width 3; it reports the CEGAR rounds' blocking clauses,
// priced bags and solver conflicts per op next to time and allocations.
func BenchmarkSATOrdering(b *testing.B) {
	b.Run("grid4x5/fhw", func(b *testing.B) {
		const fhw = 3
		g := hypergraph.Grid(4, 5)
		b.ReportAllocs()
		var st ordenc.Stats
		for i := 0; i < b.N; i++ {
			s, err := ordenc.NewFHWSearch(g, nil)
			if err != nil {
				b.Fatal(err)
			}
			var w *big.Rat
			for k := int64(2); w == nil; k++ {
				if _, w, err = s.CheckLevel(nil, lp.RI(k)); err != nil {
					b.Fatal(err)
				}
			}
			for {
				d, w2, err := s.RefineBelow(nil, w)
				if err != nil {
					b.Fatal(err)
				}
				if d == nil {
					break
				}
				w = w2
			}
			if w.Cmp(lp.RI(fhw)) != 0 {
				b.Fatalf("fhw(grid4x5) = %v, want %d", w, fhw)
			}
			st = s.Stats()
		}
		b.ReportMetric(float64(st.Blocked), "blocked/op")
		b.ReportMetric(float64(st.PricedBags), "priced/op")
		b.ReportMetric(float64(st.Conflicts), "conflicts/op")
	})
	for _, tc := range []struct {
		name       string
		rows, cols int
	}{
		{"grid4x6", 4, 6},
		{"grid4x7", 4, 7},
	} {
		const ghw = 3
		g := hypergraph.Grid(tc.rows, tc.cols)
		b.Run(tc.name+"/sat-ord", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s, err := ordenc.NewGHWSearch(g, ghw)
				if err != nil {
					b.Fatal(err)
				}
				for k := 1; ; k++ {
					d, err := s.Check(nil, k)
					if err != nil {
						b.Fatal(err)
					}
					if d != nil {
						if k != ghw {
							b.Fatalf("accepted at %d, want %d", k, ghw)
						}
						break
					}
				}
			}
		})
		b.Run(tc.name+"/engine", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for k := 1; ; k++ {
					d, err := core.CheckGHDViaBIP(g, k, core.Options{})
					if err != nil {
						b.Fatal(err)
					}
					if d != nil {
						if k != ghw {
							b.Fatalf("accepted at %d, want %d", k, ghw)
						}
						break
					}
				}
			}
		})
	}
}
