// Command hgbench regenerates every table- and figure-shaped artifact of
// the paper as the experiment suite E1–E14 documented in DESIGN.md and
// EXPERIMENTS.md. Each experiment prints the series the paper's
// construction, lemma or theorem predicts next to the value measured by
// this library.
//
// Usage:
//
//	hgbench [-exp E03] [-seed 1] [-quick] [-cpuprofile cpu.out] [-memprofile mem.out]
package main

import (
	"context"
	"flag"
	"fmt"
	"math/big"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"hypertree/internal/core"
	"hypertree/internal/corpus"
	"hypertree/internal/cover"
	"hypertree/internal/csp"
	"hypertree/internal/decomp"
	"hypertree/internal/hypergraph"
	"hypertree/internal/lp"
	"hypertree/internal/sat"
	"hypertree/internal/solve"
	"hypertree/internal/vc"
)

var (
	quick      = flag.Bool("quick", false, "smaller parameter sweeps")
	seed       = flag.Int64("seed", 1, "random seed for generated workloads")
	cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
)

type experiment struct {
	id    string
	title string
	run   func()
}

func main() {
	sel := flag.String("exp", "", "run a single experiment (e.g. E03)")
	flag.Parse()
	exps := []experiment{
		{"E01", "Lemma 2.3: ρ(K_2n) = ρ*(K_2n) = n", e01},
		{"E02", "Figure 1 / Lemma 3.1: gadget widths and forced bags", e02},
		{"E03", "Theorem 3.2 (if) / Table 1: witness GHDs for satisfiable φ", e03},
		{"E04", "Theorem 3.2 (only if) / Lemmas 3.5–3.6: LP facts", e04},
		{"E05", "Example 4.3 / Figures 4–6: hw=3 > ghw=2 on H0", e05},
		{"E06", "Figure 7 / Example 4.12: union-of-intersections tree", e06},
		{"E07", "Theorem 4.11/4.15: Check(GHD,k) under the BIP", e07},
		{"E08", "Theorem 5.2: Check(FHD,k) under bounded degree", e08},
		{"E09", "Example 5.1: unbounded optimal support", e09},
		{"E10", "Theorem 6.1/6.20: k+ε approximation and PTAAS", e10},
		{"E11", "Theorem 6.23 / Lemma 6.24: integral covers and VC dimension", e11},
		{"E12", "HyperBench-style corpus study (synthetic substitute)", e12},
		{"E13", "Section 3 closing: k+ℓ width lift", e13},
		{"E14", "Lemma 4.6 / Theorem A.3: transformations preserve width", e14},
	}
	if *sel != "" {
		known := false
		for _, e := range exps {
			if strings.EqualFold(*sel, e.id) {
				known = true
				break
			}
		}
		if !known {
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *sel)
			os.Exit(1)
		}
	}
	// Profiles start only after flag validation so error exits never
	// leave truncated profile files behind.
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
		}()
	}
	for _, e := range exps {
		if *sel != "" && !strings.EqualFold(*sel, e.id) {
			continue
		}
		fmt.Printf("==== %s: %s ====\n", e.id, e.title)
		start := time.Now()
		e.run()
		fmt.Printf("  [%s done in %v]\n\n", e.id, time.Since(start).Round(time.Millisecond))
	}
}

func e01() {
	fmt.Println("  n   ρ(K_2n)  ρ*(K_2n)  paper")
	top := 6
	if *quick {
		top = 4
	}
	for n := 1; n <= top; n++ {
		k := hypergraph.Clique(2 * n)
		fmt.Printf("  %-3d %-8d %-9s n=%d\n", n, cover.Rho(k), cover.RhoStar(k).RatString(), n)
	}
}

func e02() {
	fmt.Println("  |M1|,|M2|  fhw  ghw  forced-uB-bag")
	for _, msz := range [][2]int{{0, 0}, {1, 1}, {2, 2}} {
		h, g := sat.StandaloneGadget(msz[0], msz[1])
		fhw, fd := core.ExactFHW(h)
		ghw, _ := core.ExactGHW(h)
		// Check a node with bag exactly {b1,b2,c1,c2} ∪ M exists.
		m := h.Vertices().Diff(hypergraph.SetOf(g.A1, g.A2, g.B1, g.B2, g.C1, g.C2, g.D1, g.D2))
		want := hypergraph.SetOf(g.B1, g.B2, g.C1, g.C2).Union(m)
		found := false
		for u := range fd.Nodes {
			if fd.Nodes[u].Bag.Equal(want) {
				found = true
			}
		}
		fmt.Printf("  %d,%-8d %-4s %-4d %v\n", msz[0], msz[1], fhw.RatString(), ghw, found)
	}
}

func e03() {
	fmt.Println("  n  m  |V(H)|  |E(H)|  sat  witness-width  valid  ms")
	rng := rand.New(rand.NewSource(*seed))
	sizes := [][2]int{{1, 1}, {2, 1}, {2, 2}, {3, 2}, {3, 3}, {4, 3}}
	if *quick {
		sizes = sizes[:4]
	}
	for _, nm := range sizes {
		cnf := sat.Random3SAT(rng, nm[0], nm[1])
		model := cnf.Solve()
		r := sat.BuildReduction(cnf)
		if model == nil {
			fmt.Printf("  %d  %d  %-7d %-7d no   -              -      -\n",
				nm[0], nm[1], r.H.NumVertices(), r.H.NumEdges())
			continue
		}
		start := time.Now()
		d, err := sat.WitnessGHD(r, model)
		valid := err == nil && d.Validate(decomp.GHD) == nil && d.Width().Cmp(lp.RI(2)) == 0
		fmt.Printf("  %d  %d  %-7d %-7d yes  %-14s %-6v %d\n",
			nm[0], nm[1], r.H.NumVertices(), r.H.NumEdges(),
			d.Width().RatString(), valid, time.Since(start).Milliseconds())
	}
}

func e04() {
	fmt.Println("  φ                     ρ*(S∪z)=2  blocking>2  L3.6  compl-δ0  compl-δ½")
	for _, cnf := range []*sat.CNF{
		sat.NewCNF(sat.Clause{1, 1, 1}),
		sat.NewCNF(sat.Clause{1, 1, 1}, sat.Clause{-1, -1, -1}),
		sat.NewCNF(sat.Clause{1, -2, 3}, sat.Clause{-1, 2, -3}),
	} {
		r := sat.BuildReduction(cnf)
		ok := func(err error) string {
			if err == nil {
				return "OK"
			}
			return "FAIL"
		}
		fmt.Printf("  %-21s %-10s %-11s %-5s %-9s %s\n", cnf,
			ok(r.VerifyCoreLP()), ok(r.VerifyBlockingSets()), ok(r.VerifyLemma36(r.Min())),
			ok(r.VerifyComplementaryWeights(r.Min(), 1, lp.RI(0))),
			ok(r.VerifyComplementaryWeights(r.Min(), 1, lp.R(1, 2))))
	}
}

func e05() {
	h := hypergraph.ExampleH0()
	hw, _ := core.HW(h, 4)
	ghw, _ := core.ExactGHW(h)
	fhw, _ := core.ExactFHW(h)
	fmt.Printf("  measure  paper  measured\n")
	fmt.Printf("  hw       3      %d\n", hw)
	fmt.Printf("  ghw      2      %d\n", ghw)
	fmt.Printf("  fhw      ≤2     %s\n", fhw.RatString())
	d5 := decomp.Figure5HD(h)
	d6a := decomp.Figure6aGHD(h)
	d6b := decomp.Figure6bGHD(h)
	fmt.Printf("  Figure 5 HD valid:        %v (width %s)\n", d5.Validate(decomp.HD) == nil, d5.Width().RatString())
	fmt.Printf("  Figure 6a GHD valid:      %v, bag-maximal: %v\n", d6a.Validate(decomp.GHD) == nil, d6a.IsBagMaximal())
	fmt.Printf("  Figure 6b GHD valid:      %v, bag-maximal: %v\n", d6b.Validate(decomp.GHD) == nil, d6b.IsBagMaximal())
}

func e06() {
	h := hypergraph.ExampleH0()
	d := decomp.Figure6bGHD(h)
	e2, _ := h.EdgeIDByName("e2")
	tree, path, err := core.UnionOfIntersectionsTree(d, 0, e2)
	if err != nil {
		fmt.Println("  error:", err)
		return
	}
	fmt.Printf("  critical path critp(u,e2): %v (paper: u,u1,u2)\n", path)
	var leaves []string
	for _, l := range tree.Leaves() {
		var names []string
		for _, e := range l.Label {
			names = append(names, h.EdgeName(e))
		}
		leaves = append(leaves, "{"+strings.Join(names, ",")+"}")
	}
	sort.Strings(leaves)
	fmt.Printf("  leaves: %v (paper: {e2,e3},{e2,e7})\n", leaves)
	fmt.Printf("  leaf union = %v (paper: {v3,v9})\n", h.VertexNames(tree.LeafUnion(h)))
}

func e07() {
	fmt.Println("  family        n    m    k  exact-ghw  bip-check  agree  ms")
	rng := rand.New(rand.NewSource(*seed))
	type row struct {
		name string
		h    *hypergraph.Hypergraph
	}
	rows := []row{
		{"grid3x3", hypergraph.Grid(3, 3)},
		{"cycle8", hypergraph.Cycle(8)},
		{"hypercycle", hypergraph.HyperCycle(5, 3, 1)},
	}
	n := 3
	if *quick {
		n = 2
	}
	for i := 0; i < n; i++ {
		rows = append(rows, row{fmt.Sprintf("randBIP#%d", i+1), hypergraph.RandomBIP(rng, 9, 6, 3, 2)})
	}
	for _, r := range rows {
		exact, _ := core.ExactGHW(r.h)
		start := time.Now()
		d, err := core.CheckGHDViaBIP(r.h, exact, core.Options{})
		ms := time.Since(start).Milliseconds()
		ok := err == nil && d != nil && d.Validate(decomp.GHD) == nil
		below, _ := core.CheckGHDViaBIP(r.h, exact-1, core.Options{})
		fmt.Printf("  %-13s %-4d %-4d %d  %-9d %-10v %-6v %d\n",
			r.name, r.h.NumVertices(), r.h.NumEdges(), exact, exact, ok, ok && below == nil, ms)
	}
}

func e08() {
	fmt.Println("  instance   degree  exact-fhw  check@fhw  check-below  ms")
	rng := rand.New(rand.NewSource(*seed))
	n := 4
	if *quick {
		n = 2
	}
	for i := 0; i < n; i++ {
		h := hypergraph.RandomBoundedDegree(rng, 7, 5, 3, 2)
		fhw, _ := core.ExactFHW(h)
		if fhw == nil {
			continue
		}
		start := time.Now()
		at, _ := core.CheckFHD(h, fhw, core.FHDOptions{})
		ms := time.Since(start).Milliseconds()
		var belowFails bool
		if fhw.Cmp(lp.RI(1)) > 0 {
			below, _ := core.CheckFHD(h, new(big.Rat).Sub(fhw, lp.R(1, 100)), core.FHDOptions{})
			belowFails = below == nil
		} else {
			belowFails = true
		}
		fmt.Printf("  randBDP#%d  %-7d %-10s %-10v %-12v %d\n",
			i+1, h.Degree(), fhw.RatString(), at != nil, belowFails, ms)
	}
}

func e09() {
	fmt.Println("  n    iwidth  ρ*          paper(2-1/n)  support")
	top := 8
	if *quick {
		top = 5
	}
	for n := 2; n <= top; n++ {
		h := hypergraph.UnboundedSupport(n)
		w, g := cover.FractionalEdgeCover(h, h.Vertices())
		want := new(big.Rat).Sub(lp.RI(2), lp.R(1, int64(n)))
		fmt.Printf("  %-4d %-7d %-11s %-13s %d\n",
			n, h.IntersectionWidth(), w.RatString(), want.RatString(), len(g.Support()))
	}
}

func e10() {
	fmt.Println("  instance  exact-fhw  ptaas-width  ε     within")
	eps := lp.R(1, 4)
	for _, tc := range []struct {
		name string
		h    *hypergraph.Hypergraph
	}{
		{"K4", hypergraph.Clique(4)},
		{"K5", hypergraph.Clique(5)},
		{"C6", hypergraph.Cycle(6)},
		{"H0", hypergraph.ExampleH0()},
	} {
		fhw, _ := core.ExactFHW(tc.h)
		d := core.FHWApproximation(tc.h, 4, eps, core.ExactFinder)
		if d == nil {
			fmt.Printf("  %-9s %-10s failed\n", tc.name, fhw.RatString())
			continue
		}
		limit := new(big.Rat).Add(fhw, eps)
		fmt.Printf("  %-9s %-10s %-12s %-5s %v\n",
			tc.name, fhw.RatString(), d.Width().RatString(), eps.RatString(),
			d.Width().Cmp(limit) < 0)
	}
	// Algorithm 3 driven run on a BIP instance.
	h := hypergraph.Cycle(5)
	fhw, _ := core.ExactFHW(h)
	d := core.FHWApproximation(h, 3, lp.R(1, 2), core.FracDecompFinder(3))
	if d != nil {
		fmt.Printf("  C5 via frac-decomp: fhw=%s width=%s\n", fhw.RatString(), d.Width().RatString())
	}
}

func e11() {
	fmt.Println("  instance      fhw    integral-width  ratio≤bound  vc  3-miwidth")
	rng := rand.New(rand.NewSource(*seed))
	hs := []struct {
		name string
		h    *hypergraph.Hypergraph
	}{
		{"K5", hypergraph.Clique(5)},
		{"K6", hypergraph.Clique(6)},
		{"grid3x3", hypergraph.Grid(3, 3)},
		{"randBIP", hypergraph.RandomBIP(rng, 9, 6, 3, 1)},
	}
	for _, tc := range hs {
		fhw, fd := core.ExactFHW(tc.h)
		g := core.IntegralizeCovers(fd, 16)
		if g == nil {
			continue
		}
		bound := vc.DingSeymourWinklerBound(tc.h)
		ratio := new(big.Rat).Quo(g.Width(), fhw)
		fmt.Printf("  %-13s %-6s %-15s %-12v %-3d %d\n",
			tc.name, fhw.RatString(), g.Width().RatString(),
			bound == nil || ratio.Cmp(bound) <= 0,
			vc.Dimension(tc.h), tc.h.MultiIntersectionWidth(3))
	}
	// Lemma 6.24 second half: AntiBMIP has bounded VC, unbounded miwidth.
	for _, n := range []int{5, 7, 9} {
		h := hypergraph.AntiBMIP(n)
		fmt.Printf("  AntiBMIP_%-4d vc=%d  3-miwidth=%d (=n-3)\n", n, vc.Dimension(h), h.MultiIntersectionWidth(3))
	}
}

func e12() {
	rng := rand.New(rand.NewSource(*seed))
	per := 6
	if *quick {
		per = 3
	}
	synth := csp.SyntheticCorpus(rng, per)
	s := csp.Collect(synth)
	pct := func(a int) float64 { return 100 * float64(a) / float64(s.Total) }
	fmt.Printf("  instances            %d\n", s.Total)
	fmt.Printf("  acyclic              %d (%.0f%%)\n", s.Acyclic, pct(s.Acyclic))
	fmt.Printf("  iwidth ≤ 2           %d (%.0f%%)   [paper: overwhelming majority]\n", s.IWidthLE2, pct(s.IWidthLE2))
	fmt.Printf("  3-miwidth ≤ 1        %d (%.0f%%)\n", s.MIWidth3LE1, pct(s.MIWidth3LE1))
	fmt.Printf("  degree ≤ 3           %d (%.0f%%)\n", s.DegreeLE3, pct(s.DegreeLE3))
	fmt.Printf("  max iwidth/3-miwidth %d/%d, max rank %d, max degree %d\n",
		s.MaxIWidth, s.MaxMIWidth3, s.MaxRank, s.MaxDegree)

	// Corpus-scale width study through internal/solve: the serial leg
	// mimics the pre-solve path (no preprocessing, no cache, one
	// instance at a time); the parallel leg runs the full pipeline
	// through the corpus runner's RunLoaded sharded across GOMAXPROCS,
	// which adds no per-instance classification or trace.
	ctx := context.Background()
	budget := 5 * time.Second
	serialSolver := solve.NewSolver(nil, 1)
	serialOpt := solve.Options{Measure: solve.GHW, Timeout: budget, NoPreprocess: true}
	serial := make([]*big.Rat, len(synth.Queries))
	t0 := time.Now()
	for i, q := range synth.Queries {
		if r, err := serialSolver.Solve(ctx, q.H, serialOpt); err == nil {
			serial[i] = r.Upper
		}
	}
	tSerial := time.Since(t0)

	items := make([]corpus.Loaded, len(synth.Queries))
	for i, q := range synth.Queries {
		items[i] = corpus.Loaded{Name: q.Name, H: q.H}
	}
	workers := runtime.GOMAXPROCS(0)
	t1 := time.Now()
	par := corpus.RunLoaded(ctx, solve.NewSolver(solve.NewCache(0, 0), 0), items,
		corpus.RunOptions{Measure: solve.GHW, Timeout: budget, Shards: workers}, nil)
	tPar := time.Since(t1)

	hist := map[string]int{}
	exactN, agree := 0, true
	for i, r := range par {
		if r.Err != "" || r.Upper == "" {
			agree = false
			continue
		}
		hist[r.Upper]++
		if r.Exact {
			exactN++
		}
		if serial[i] == nil || serial[i].RatString() != r.Upper {
			agree = false
		}
	}
	var widths []string
	for w := range hist {
		widths = append(widths, w)
	}
	sort.Strings(widths)
	var parts []string
	for _, w := range widths {
		parts = append(parts, fmt.Sprintf("%s:%d", w, hist[w]))
	}
	fmt.Printf("  ghw histogram        %s (exact %d/%d)\n", strings.Join(parts, " "), exactN, s.Total)
	fmt.Printf("  serial direct        %v\n", tSerial.Round(time.Millisecond))
	fmt.Printf("  parallel solve (P=%d) %v  (%.1fx, widths agree: %v)\n",
		workers, tPar.Round(time.Millisecond),
		float64(tSerial)/float64(tPar), agree)
}

func e13() {
	fmt.Println("  base   ℓ  fhw(base)  fhw(lift)  ghw(base)  ghw(lift)")
	for _, tc := range []struct {
		name string
		h    *hypergraph.Hypergraph
	}{
		{"K3", hypergraph.Clique(3)},
		{"path4", hypergraph.Path(4)},
	} {
		bf, _ := core.ExactFHW(tc.h)
		bg, _ := core.ExactGHW(tc.h)
		for ell := 1; ell <= 2; ell++ {
			lifted := sat.WidthLift(tc.h, ell)
			lf, _ := core.ExactFHW(lifted)
			lg, _ := core.ExactGHW(lifted)
			fmt.Printf("  %-6s %d  %-9s %-9s %-9d %d\n",
				tc.name, ell, bf.RatString(), lf.RatString(), bg, lg)
		}
	}
}

func e14() {
	fmt.Println("  input   transform      valid  width-kept  property")
	h := hypergraph.ExampleH0()
	a := decomp.Figure6aGHD(h)
	w := a.Width()
	a.BagMaximalize()
	fmt.Printf("  fig6a   bag-maximalize %-6v %-11v bag-maximal=%v\n",
		a.Validate(decomp.GHD) == nil, a.Width().Cmp(w) == 0, a.IsBagMaximal())
	b := decomp.Figure5HD(h)
	wb := b.Width()
	err := b.ToFNF()
	fmt.Printf("  fig5    ToFNF          %-6v %-11v fnf=%v\n",
		err == nil && b.Validate(decomp.FHD) == nil, b.Width().Cmp(wb) <= 0, b.ValidateFNF() == nil)
	rng := rand.New(rand.NewSource(*seed))
	hh := hypergraph.RandomBIP(rng, 9, 6, 3, 2)
	_, fd := core.ExactFHW(hh)
	if fd != nil {
		wf := fd.Width()
		repaired, _, err := core.RepairWeakSCVs(fd)
		fmt.Printf("  random  weak-SCV fix   %-6v %-11v weak-special=%v\n",
			err == nil && repaired.Validate(decomp.FHD) == nil,
			repaired.Width().Cmp(wf) <= 0, repaired.WeakSpecialCondition() == -1)
	}
}
