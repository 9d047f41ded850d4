// Command hgwidth computes hypergraph width measures: the hypertree
// width hw, generalized hypertree width ghw and fractional hypertree
// width fhw, along with the structural properties (degree, rank,
// intersection widths, acyclicity) that decide which of the paper's
// algorithms apply.
//
// Usage:
//
//	hgwidth [-measures hw,ghw,fhw] [-timeout 30s] [-no-preprocess]
//	        [-exact] [-heuristic] [-check k] [-dump-cnf out.cnf]
//	        [-show] [-gml] [-stats] [file]
//
// The hypergraph is read from the file (or stdin) in any
// corpus-supported format, auto-detected: the edge-list format
// e1(a,b,c), e2(c,d), the PACE-2019 htd format, or the JSON form (see
// internal/corpus). The default run routes every measure through the
// internal/solve portfolio (preprocessing, strategy race, witness
// stitching) under the -timeout budget; SIGINT cancels gracefully and
// the bounds proven so far are still reported. With -exact, the
// exponential elimination DP computes ghw and fhw directly (≤ 24
// vertices recommended); -heuristic reports min-fill upper bounds;
// -check k runs the polynomial Check(HD,k) / Check(GHD,k) / Check(FHD,k)
// procedures.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math/big"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"hypertree/internal/core"
	"hypertree/internal/corpus"
	"hypertree/internal/decomp"
	"hypertree/internal/hypergraph"
	"hypertree/internal/ordenc"
	"hypertree/internal/solve"
	"hypertree/internal/telemetry"
)

func main() {
	measures := flag.String("measures", "hw,ghw,fhw", "comma-separated width measures to solve (hw, ghw, fhw)")
	timeout := flag.Duration("timeout", 30*time.Second, "budget per measure (0 = unbounded)")
	noPre := flag.Bool("no-preprocess", false, "disable the simplification pipeline")
	exact := flag.Bool("exact", false, "also run the exponential elimination DP directly (small inputs)")
	heuristic := flag.Bool("heuristic", false, "also report min-fill upper bounds on ghw/fhw")
	check := flag.String("check", "", "width k (integer or rational p/q) to run the Check procedures at")
	dumpCNF := flag.String("dump-cnf", "", "write the sat-ord ordering encoding as DIMACS CNF to this file and exit (first -measures entry; ghw/hw bound the width at -check k, default 2)")
	show := flag.Bool("show", false, "print the decompositions found")
	gml := flag.Bool("gml", false, "print decompositions as GML instead of text")
	stats := flag.Bool("stats", false, "print the per-measure solve trace (strategy timeline, engine/LP/cache counters)")
	flag.Parse()
	gmlMode = *gml

	input, err := readInput(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	h, format, err := corpus.DecodeString(input)
	if err != nil {
		fatal(err)
	}
	if err := h.ValidateNonEmpty(); err != nil {
		fatal(err)
	}

	if *dumpCNF != "" {
		if err := dumpEncoding(h, *measures, *check, *dumpCNF); err != nil {
			fatal(err)
		}
		return
	}

	// SIGINT/SIGTERM cancel the solves; partial bounds are reported.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	fmt.Printf("format=%s vertices=%d edges=%d rank=%d degree=%d\n",
		format, h.NumVertices(), h.NumEdges(), h.Rank(), h.Degree())
	fmt.Printf("iwidth=%d 3-miwidth=%d acyclic=%v connected=%v\n",
		h.IntersectionWidth(), h.MultiIntersectionWidth(3), h.IsAcyclic(), h.IsConnected())

	interrupted := false
	for _, name := range strings.Split(*measures, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		m, err := solve.ParseMeasure(name)
		if err != nil {
			fatal(err)
		}
		sctx, tr := ctx, (*telemetry.Trace)(nil)
		if *stats {
			sctx, tr = telemetry.WithTrace(ctx)
		}
		r, err := solve.Solve(sctx, h, solve.Options{
			Measure:      m,
			Timeout:      *timeout,
			NoPreprocess: *noPre,
		})
		if err != nil {
			fatal(err)
		}
		printResult(os.Stdout, m, r)
		if tr != nil {
			tr.Summary().WriteText(os.Stdout)
		}
		maybeShow(*show, strings.ToUpper(m.Kind().String()), r.Witness)
		interrupted = interrupted || (r.Partial && ctx.Err() != nil)
	}

	if *exact && ctx.Err() == nil {
		if h.NumVertices() > 24 {
			fatal(fmt.Errorf("-exact limited to 24 vertices (got %d); use -heuristic", h.NumVertices()))
		}
		ghw, gd := core.ExactGHW(h)
		fmt.Printf("ghw = %d (exact DP)\n", ghw)
		maybeShow(*show, "GHD", gd)
		fhw, fd := core.ExactFHW(h)
		fmt.Printf("fhw = %s (exact DP)\n", fhw.RatString())
		maybeShow(*show, "FHD", fd)
	}
	if *heuristic && ctx.Err() == nil {
		gw, gd := core.MinFillGHD(h)
		fmt.Printf("ghw ≤ %d (min-fill)\n", gw)
		maybeShow(*show, "GHD", gd)
		fw, fd := core.MinFillFHD(h)
		fmt.Printf("fhw ≤ %s (min-fill)\n", fw.RatString())
		maybeShow(*show, "FHD", fd)
	}
	if *check != "" && ctx.Err() == nil {
		runChecks(ctx, h, *check, *show)
	}
	if interrupted {
		fmt.Println("(interrupted: bounds above are partial)")
		os.Exit(130)
	}
}

// dumpEncoding writes the sat-ord ordering encoding for the first
// requested measure to path. hw and ghw share the weighted encoding
// with the width bound k folded in as assumption units; fhw dumps the
// arcs-only core (its width bound lives in the LP pricing loop, not in
// the CNF).
func dumpEncoding(h *hypergraph.Hypergraph, measures, check, path string) error {
	first := strings.TrimSpace(strings.Split(measures, ",")[0])
	m, err := solve.ParseMeasure(first)
	if err != nil {
		return err
	}
	k := 2
	if check != "" {
		r, ok := new(big.Rat).SetString(check)
		if !ok || !r.IsInt() || r.Sign() <= 0 {
			return fmt.Errorf("-dump-cnf needs a positive integer -check width, got %q", check)
		}
		k = int(r.Num().Int64())
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if m == solve.FHW {
		s, err := ordenc.NewFHWSearch(h, nil)
		if err != nil {
			return err
		}
		if err := s.WriteDIMACS(f); err != nil {
			return err
		}
		fmt.Printf("wrote fhw ordering core to %s\n", path)
		return f.Close()
	}
	s, err := ordenc.NewGHWSearch(h, k)
	if err != nil {
		return err
	}
	if err := s.WriteDIMACS(f, k); err != nil {
		return err
	}
	fmt.Printf("wrote %s<=%d ordering encoding to %s\n", m, k, path)
	return f.Close()
}

// printResult renders one solve outcome: an exact width, a bracket, or
// a lone lower bound. It must not trust any field combination — a
// result degraded by deadlines can in principle carry any subset of the
// interval — so exactness is only printed when an Upper backs it, and a
// nil Lower (impossible today, cheap to guard) falls back to 0.
func printResult(w io.Writer, m solve.Measure, r *solve.Result) {
	state := func() string {
		var tags []string
		if r.Partial {
			tags = append(tags, "partial")
		}
		if r.FromCache {
			tags = append(tags, "cached")
		}
		if !r.Exact && r.Provenance != "" {
			tags = append(tags, string(r.Provenance))
		}
		if r.Strategy != "" {
			tags = append(tags, r.Strategy)
		}
		if r.Pre.Blocks > 1 {
			tags = append(tags, fmt.Sprintf("%d blocks", r.Pre.Blocks))
		}
		return strings.Join(tags, ", ")
	}
	lower := "0"
	if r.Lower != nil {
		lower = r.Lower.RatString()
	}
	switch {
	case r.Exact && r.Upper != nil:
		fmt.Fprintf(w, "%-3s = %-8s (%s, %v)\n", m, r.Upper.RatString(), state(), r.Elapsed.Round(time.Millisecond))
	case r.Upper != nil:
		fmt.Fprintf(w, "%-3s ∈ [%s, %s] (%s, %v)\n", m, lower, r.Upper.RatString(),
			state(), r.Elapsed.Round(time.Millisecond))
	default:
		fmt.Fprintf(w, "%-3s ≥ %-8s (%s, %v)\n", m, lower, state(), r.Elapsed.Round(time.Millisecond))
	}
}

// runChecks preserves the direct Check(·,k) procedures of the original
// command.
func runChecks(ctx context.Context, h *hypergraph.Hypergraph, check string, show bool) {
	k, ok := new(big.Rat).SetString(check)
	if !ok {
		fatal(fmt.Errorf("bad -check value %q", check))
	}
	if k.IsInt() {
		ki := int(k.Num().Int64())
		if d, err := core.CheckHDCtx(ctx, h, ki); err != nil {
			fmt.Printf("Check(HD,%d): %v\n", ki, err)
		} else if d != nil {
			fmt.Printf("Check(HD,%d): yes\n", ki)
			maybeShow(show, "HD", d)
		} else {
			fmt.Printf("Check(HD,%d): no\n", ki)
		}
		d, err := core.CheckGHDViaBIPCtx(ctx, h, ki, core.Options{})
		switch {
		case err != nil:
			fmt.Printf("Check(GHD,%d): %v\n", ki, err)
		case d != nil:
			fmt.Printf("Check(GHD,%d): yes\n", ki)
			maybeShow(show, "GHD", d)
		default:
			fmt.Printf("Check(GHD,%d): no\n", ki)
		}
	}
	d, err := core.CheckFHDCtx(ctx, h, k, core.FHDOptions{})
	switch {
	case err != nil:
		fmt.Printf("Check(FHD,%s): %v\n", k.RatString(), err)
	case d != nil:
		fmt.Printf("Check(FHD,%s): yes (width %s)\n", k.RatString(), d.Width().RatString())
		maybeShow(show, "FHD", d)
	default:
		fmt.Printf("Check(FHD,%s): no\n", k.RatString())
	}
}

var gmlMode bool

func maybeShow(show bool, kind string, d *decomp.Decomp) {
	if !show || d == nil {
		return
	}
	if gmlMode {
		fmt.Printf("--- %s (width %s, GML) ---\n%s", kind, d.Width().RatString(), d.WriteGML())
		return
	}
	fmt.Printf("--- %s (width %s) ---\n%s", kind, d.Width().RatString(), d)
}

func readInput(path string) (string, error) {
	if path == "" || path == "-" {
		b, err := io.ReadAll(os.Stdin)
		return string(b), err
	}
	b, err := os.ReadFile(path)
	return string(b), err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hgwidth:", err)
	os.Exit(1)
}
