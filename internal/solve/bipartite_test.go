// bipartite_test.go — fhw = ghw on bipartite blocks of rank ≤ 2 (external
// package: it loads the corpus and the csp generators, both of which
// import internal/solve). Such blocks run the ghw race under the fhw
// measure and leave a `bipartite` trace event carrying their colouring.
package solve_test

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"hypertree/internal/corpus"
	"hypertree/internal/csp"
	"hypertree/internal/decomp"
	"hypertree/internal/hypergraph"
	"hypertree/internal/lp"
	"hypertree/internal/solve"
	"hypertree/internal/telemetry"
)

// bipartiteEvent is a parsed `bipartite` trace event.
type bipartiteEvent struct {
	block        int
	sizeA, sizeB int
	class        []int // block-local vertices of the first class
}

// bipartiteEvents parses every `bipartite` event of a trace.
func bipartiteEvents(t *testing.T, s *telemetry.Summary) []bipartiteEvent {
	t.Helper()
	var out []bipartiteEvent
	for _, e := range s.Events {
		if e.Kind != "bipartite" {
			continue
		}
		var ev bipartiteEvent
		if _, err := fmt.Sscanf(e.Detail, "block=%d sizes=%d/%d", &ev.block, &ev.sizeA, &ev.sizeB); err != nil {
			t.Fatalf("bad bipartite detail %q: %v", e.Detail, err)
		}
		_, list, ok := strings.Cut(e.Detail, "class=[")
		if !ok {
			t.Fatalf("bipartite detail %q lacks its class", e.Detail)
		}
		for _, f := range strings.Fields(strings.TrimSuffix(list, "]")) {
			v, err := strconv.Atoi(f)
			if err != nil {
				t.Fatalf("bad class vertex %q in %q", f, e.Detail)
			}
			ev.class = append(ev.class, v)
		}
		if len(ev.class) != ev.sizeA {
			t.Fatalf("class lists %d vertices, sizes say %d", len(ev.class), ev.sizeA)
		}
		out = append(out, ev)
	}
	return out
}

// startedOn returns the strategies started on block blk.
func startedOn(s *telemetry.Summary, blk int) map[string]bool {
	out := map[string]bool{}
	for _, e := range s.Events {
		if e.Kind == "strategy_start" && e.Block == blk {
			out[e.Strategy] = true
		}
	}
	return out
}

// TestBipartiteFHWEqualsGHW: on every bipartite corpus instance, on
// grids up to 5×6, on CycleCQ(24) and on even cycles, fhw and ghw are
// both exact and equal; every block is routed, and the fhw witness
// validates as an FHD at the reported width. On single-block inputs the
// traced colouring is checked as a certificate against the block.
func TestBipartiteFHWEqualsGHW(t *testing.T) {
	cases := map[string]*hypergraph.Hypergraph{
		"CycleCQ(24)": csp.CycleCQ(24).H,
	}
	for _, rc := range [][2]int{{3, 3}, {3, 4}, {4, 4}, {4, 5}, {5, 5}, {5, 6}} {
		cases[fmt.Sprintf("Grid(%d,%d)", rc[0], rc[1])] = hypergraph.Grid(rc[0], rc[1])
	}
	for _, n := range []int{4, 6, 10} {
		cases[fmt.Sprintf("Cycle(%d)", n)] = hypergraph.Cycle(n)
	}
	ins, err := corpus.LoadDir(contractCorpusDir)
	if err != nil {
		t.Fatal(err)
	}
	corpusBipartite := 0
	for _, in := range ins {
		h, _, err := in.Read()
		if err != nil {
			t.Fatalf("%s: %v", in.Name, err)
		}
		if _, ok := h.TwoColouring(); ok {
			cases["corpus/"+in.Name] = h
			corpusBipartite++
		}
	}
	if corpusBipartite == 0 {
		t.Fatal("no bipartite corpus instance found")
	}

	for name, h := range cases {
		t.Run(name, func(t *testing.T) {
			ctx := context.Background()
			g, err := solve.Solve(ctx, h, solve.Options{Measure: solve.GHW, Timeout: 30 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			tctx, tr := telemetry.WithTrace(ctx)
			f, err := solve.Solve(tctx, h, solve.Options{Measure: solve.FHW, Validate: true, Timeout: 30 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			if !g.Exact || !f.Exact || f.Upper.Cmp(g.Upper) != 0 {
				t.Fatalf("ghw [%v, %v] exact=%v, fhw [%v, %v] exact=%v: want equal and exact",
					g.Lower, g.Upper, g.Exact, f.Lower, f.Upper, f.Exact)
			}
			if err := f.Witness.ValidateWidth(decomp.FHD, f.Upper); err != nil {
				t.Fatalf("fhw witness invalid at %v: %v", f.Upper, err)
			}
			evs := bipartiteEvents(t, tr.Summary())
			if len(evs) != f.Pre.Blocks {
				t.Fatalf("%d bipartite events for %d blocks", len(evs), f.Pre.Blocks)
			}
			if f.Pre.Blocks != 1 || f.Pre.RemovedEdges != 0 {
				return
			}
			// One block with every edge kept: the block is the input's
			// edges extracted in order, as the pipeline extracts it.
			es := make([]int, h.NumEdges())
			for i := range es {
				es[i] = i
			}
			bh, _, _ := h.ExtractEdges(es)
			colour := make([]bool, bh.NumVertices())
			for _, v := range evs[0].class {
				colour[v] = true
			}
			if evs[0].sizeA+evs[0].sizeB != bh.NumVertices() {
				t.Fatalf("class sizes %d/%d for %d vertices", evs[0].sizeA, evs[0].sizeB, bh.NumVertices())
			}
			if err := hypergraph.CheckTwoColouring(bh, colour); err != nil {
				t.Fatalf("traced colouring is no certificate: %v", err)
			}
		})
	}
}

// TestBipartiteGuards: odd cycles and rank-3 blocks keep the fhw race.
// The triangle still answers 3/2, also with the sat-ord lane gated off
// (the exact encoding the race would otherwise close it with), and
// Cycle(7) keeps width 2; none of them leaves a bipartite event.
func TestBipartiteGuards(t *testing.T) {
	for _, tc := range []struct {
		name string
		h    *hypergraph.Hypergraph
		opt  solve.Options
		want string
	}{
		{"triangle", hypergraph.Clique(3), solve.Options{Measure: solve.FHW}, "3/2"},
		{"triangle-no-dp", hypergraph.Clique(3), solve.Options{Measure: solve.FHW, SATOrdLimit: -1}, "3/2"},
		{"cycle7", hypergraph.Cycle(7), solve.Options{Measure: solve.FHW}, "2"},
		{"hypercycle-rank3", hypergraph.HyperCycle(5, 3, 1), solve.Options{Measure: solve.FHW}, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, tr := telemetry.WithTrace(context.Background())
			tc.opt.Validate = true
			r, err := solve.Solve(ctx, tc.h, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			if !r.Exact {
				t.Fatalf("fhw [%v, %v] not exact", r.Lower, r.Upper)
			}
			if tc.want != "" && r.Upper.RatString() != tc.want {
				t.Fatalf("fhw = %s, want %s", r.Upper.RatString(), tc.want)
			}
			if evs := bipartiteEvents(t, tr.Summary()); len(evs) != 0 {
				t.Fatalf("non-bipartite block routed: %+v", evs)
			}
		})
	}
}

// TestBipartiteGlueRoutesOnlyGridBlock: a 5×6 grid with a triangle glued
// at a cut vertex splits into two blocks. The grid block runs the ghw
// race (its lanes include bip), the triangle block keeps the fhw race
// (no bip), and the whole closes at fhw 3.
func TestBipartiteGlueRoutesOnlyGridBlock(t *testing.T) {
	h := hypergraph.Grid(5, 6)
	h.AddEdge("t1", "v0_0", "x")
	h.AddEdge("t2", "x", "y")
	h.AddEdge("t3", "y", "v0_0")
	ctx, tr := telemetry.WithTrace(context.Background())
	r, err := solve.Solve(ctx, h, solve.Options{Measure: solve.FHW, Validate: true, Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Exact || r.Upper.Cmp(lp.RI(3)) != 0 {
		t.Fatalf("fhw [%v, %v] exact=%v, want exact 3", r.Lower, r.Upper, r.Exact)
	}
	if r.Pre.Blocks != 2 {
		t.Fatalf("%d blocks, want grid + triangle", r.Pre.Blocks)
	}
	sum := tr.Summary()
	evs := bipartiteEvents(t, sum)
	if len(evs) != 1 || evs[0].sizeA != 15 || evs[0].sizeB != 15 {
		t.Fatalf("want one routed 15/15 grid block, got %+v", evs)
	}
	grid, tri := evs[0].block, 1-evs[0].block
	if !startedOn(sum, grid)["bip"] {
		t.Fatalf("routed grid block ran no ghw lanes: %v", startedOn(sum, grid))
	}
	if s := startedOn(sum, tri); s["bip"] || !s["minfill"] {
		t.Fatalf("triangle block left the fhw race: %v", s)
	}
}
