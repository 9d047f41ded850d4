package solve

import (
	"context"
	"slices"
	"strings"
	"testing"

	"hypertree/internal/decomp"
	"hypertree/internal/hypergraph"
	"hypertree/internal/lp"
	"hypertree/internal/telemetry"
)

// laneFor returns the lane table's row for strategy name in the race of
// measure m.
func laneFor(t *testing.T, name string, m Measure) *lane {
	t.Helper()
	for i := range lanes {
		if lanes[i].name == name && slices.Contains(lanes[i].measures, m) {
			return &lanes[i]
		}
	}
	t.Fatalf("no %s lane in the %v race", name, m)
	return nil
}

// TestDeepenHDGHWMode drives the detk lane of the ghw race directly.
// Under ghw a rejected Check(HD,k) level proves nothing (ghw ≤ hw), so
// the lane must leave the lower bound alone and publish its accepted
// level as a heuristic upper bound; and it must attempt no level at or
// above an incumbent upper bound.
func TestDeepenHDGHWMode(t *testing.T) {
	bh := hypergraph.Grid(4, 4) // hw = ghw = 3: k=2 rejects, k=3 accepts
	opt := Options{Measure: GHW}
	detk := laneFor(t, "detk", GHW)

	ctx, tr := telemetry.WithTrace(context.Background())
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	r := &race{bh: bh, opt: opt, tr: tr, cancel: cancel}
	r.res.lower = lp.RI(2)
	deepen(ctx, detk, r)

	if r.res.upper == nil || r.res.upper.Cmp(lp.RI(3)) != 0 || r.res.strategy != "detk" {
		t.Fatalf("upper = %v by %q, want 3 by detk", r.res.upper, r.res.strategy)
	}
	if r.res.prov != ProvHeuristic || r.res.exact {
		t.Fatalf("prov = %q exact = %v, want an inexact heuristic upper bound", r.res.prov, r.res.exact)
	}
	for _, kind := range []decomp.Kind{decomp.HD, decomp.GHD} {
		if err := r.res.witness.Validate(kind); err != nil {
			t.Fatalf("witness fails %v validation: %v", kind, err)
		}
	}
	if w := r.res.witness.Width(); w.Cmp(lp.RI(3)) != 0 {
		t.Fatalf("witness width %s, want 3", w.RatString())
	}
	if r.res.lower.Cmp(lp.RI(2)) != 0 {
		t.Fatalf("lower = %s, want 2: a ghw-mode rejection must raise nothing", r.res.lower.RatString())
	}
	if got := tr.Summary().KTrajectory("detk"); len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("detk trajectory %v, want [2 3]", got)
	}

	// Incumbent upper bound already at the lower bound: nothing to do.
	ctx2, tr2 := telemetry.WithTrace(context.Background())
	r2 := &race{bh: bh, opt: opt, tr: tr2, cancel: func() {}}
	r2.res.lower, r2.res.upper = lp.RI(2), lp.RI(2)
	deepen(ctx2, detk, r2)
	if n := kinds(tr2.Summary())["deepen"]; n != 0 {
		t.Fatalf("%d deepen events with upper = lower, want 0", n)
	}
	if r2.res.witness != nil || r2.res.strategy != "" {
		t.Fatalf("lane published %q into a met race", r2.res.strategy)
	}
}

// levelHookCtx runs onLevel whenever a level's check fetches the
// context's done channel, which each deepening level does once, at its
// start.
type levelHookCtx struct {
	context.Context
	onLevel func()
}

func (c levelHookCtx) Done() <-chan struct{} {
	c.onLevel()
	return c.Context.Done()
}

// TestDeepenSkipsRefutedLevels drives every deepening row of the lane
// table, one subtest per strategy and measure, while another lane
// proves width ≥ 3 during the row's first level. The row must not re-run
// level 2, which that bound already refutes: no deepen event may sit
// below the lower bound the race held when its level started. On
// Grid(4,4) hw = ghw = fhw = 3.
func TestDeepenSkipsRefutedLevels(t *testing.T) {
	var names []string
	for _, l := range lanes {
		if l.open != nil && !slices.Contains(names, l.name) {
			names = append(names, l.name)
		}
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			for i := range lanes {
				if l := &lanes[i]; l.name == name {
					for _, m := range l.measures {
						t.Run(m.String(), func(t *testing.T) { testDeepenSkips(t, l, m) })
					}
				}
			}
		})
	}
}

func testDeepenSkips(t *testing.T, l *lane, m Measure) {
	bh := hypergraph.Grid(4, 4)
	ctx, tr := telemetry.WithTrace(context.Background())
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	r := &race{bh: bh, opt: Options{Measure: m}, tr: tr, cancel: cancel}
	var held []int // the race's lower bound at the start of each level
	hook := levelHookCtx{Context: ctx, onLevel: func() {
		held = append(held, r.snapshotLower())
		if len(held) == 1 {
			r.raiseLower(lp.RI(3), "other")
		}
	}}
	deepen(hook, l, r)

	got := tr.Summary().KTrajectory(l.name)
	if len(got) != len(held) {
		t.Fatalf("%s trajectory %v but %d levels started", l.name, got, len(held))
	}
	for i, k := range got {
		if k < held[i] {
			t.Fatalf("%s deepened to %d while the race held width ≥ %d (trajectory %v)", l.name, k, held[i], got)
		}
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("%s trajectory %v, want [1 3]", l.name, got)
	}
	// Any witness at level 3 meets the lower bound and closes the race.
	switch closes := l.yes != proofNone; {
	case closes && (!r.res.exact || r.res.strategy != l.name || r.res.upper.Cmp(lp.RI(3)) != 0):
		t.Fatalf("race = exact %v, upper %v by %q, want exact 3 by %s", r.res.exact, r.res.upper, r.res.strategy, l.name)
	case !closes && (r.res.witness != nil || r.res.lower.Cmp(lp.RI(3)) != 0):
		t.Fatalf("race = lower %s, witness by %q; want lower 3 and no witness", r.res.lower.RatString(), r.res.strategy)
	}
}

// TestLaneRoster pins which strategies each block's race starts, per
// measure, on a block inside the exact DP's vertex gate and one above
// it, with and without the sat-ord lanes. A bipartite rank-2 block under
// fhw runs the ghw roster.
func TestLaneRoster(t *testing.T) {
	chorded := func(rows, cols int) *hypergraph.Hypergraph {
		h := hypergraph.Grid(rows, cols)
		h.AddEdge("chord", "v0_0", "v1_1")
		return h
	}
	ghwLarge := []string{"approx-logn", "bip", "detk", "minfill", "sat-ord"}
	ghwSmall := append([]string{"exact-dp"}, ghwLarge...)
	fhwLarge := []string{"approx-logn", "minfill", "sat-ord"}
	fhwSmall := append([]string{"exact-dp"}, fhwLarge...)
	for _, tc := range []struct {
		name    string
		h       *hypergraph.Hypergraph
		measure Measure
		want    []string
	}{
		{"hw/clique5", hypergraph.Clique(5), HW, []string{"detk", "sat-ord-lb"}},
		{"hw/grid5x5", hypergraph.Grid(5, 5), HW, []string{"detk", "sat-ord-lb"}},
		{"ghw/clique5", hypergraph.Clique(5), GHW, ghwSmall},
		{"ghw/grid5x5", hypergraph.Grid(5, 5), GHW, ghwLarge},
		{"fhw/grid3x4+chord", chorded(3, 4), FHW, fhwSmall},
		{"fhw/grid3x7+chord", chorded(3, 7), FHW, fhwLarge},
		{"fhw-bipartite/grid4x4", hypergraph.Grid(4, 4), FHW, ghwSmall},
		{"fhw-bipartite/grid5x5", hypergraph.Grid(5, 5), FHW, ghwLarge},
	} {
		for _, satOrd := range []bool{true, false} {
			name, opt, want := tc.name, Options{Measure: tc.measure}, tc.want
			if !satOrd {
				name, opt.SATOrdLimit = name+"/no-sat-ord", -1
				want = slices.DeleteFunc(slices.Clone(want), func(s string) bool { return strings.HasPrefix(s, "sat-ord") })
			}
			t.Run(name, func(t *testing.T) {
				ctx, tr := telemetry.WithTrace(context.Background())
				if _, err := Solve(ctx, tc.h, opt); err != nil {
					t.Fatal(err)
				}
				got := map[int][]string{}
				for _, e := range tr.Summary().Events {
					if e.Kind == "strategy_start" {
						got[e.Block] = append(got[e.Block], e.Strategy)
					}
				}
				if len(got) != 1 || len(got[0]) == 0 {
					t.Fatalf("strategy starts by block %v, want one block", got)
				}
				slices.Sort(got[0])
				if want := slices.Sorted(slices.Values(want)); !slices.Equal(got[0], want) {
					t.Fatalf("started %v, want %v", got[0], want)
				}
			})
		}
	}
}
