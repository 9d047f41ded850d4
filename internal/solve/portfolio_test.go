package solve

import (
	"context"
	"errors"
	"math/big"
	"slices"
	"strings"
	"testing"
	"time"

	"hypertree/internal/core"
	"hypertree/internal/cover"
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

// TestDeepenHDGHWMode drives the probe row of the ghw race directly.
// Under ghw a rejected Check(HD,k) level proves nothing (ghw ≤ hw), so
// the probe must leave the lower bound alone and publish its accepted
// level as a heuristic upper bound, descend from it until a refutation,
// and attempt no level at or above an incumbent upper bound.
func TestDeepenHDGHWMode(t *testing.T) {
	bh := hypergraph.Grid(4, 4) // hw = ghw = 3: k=2 rejects, k=3 accepts
	opt := Options{Measure: GHW}
	probe := *laneFor(t, "probe", GHW)
	probe.budget = time.Minute // the proofs under test, not the timer

	ctx, tr := telemetry.WithTrace(context.Background())
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	r := &race{bh: bh, opt: opt, tr: tr, cancel: cancel}
	r.res.lower = lp.RI(2)
	deepen(ctx, &probe, r)

	if r.res.upper == nil || r.res.upper.Cmp(lp.RI(3)) != 0 || r.res.strategy != "probe" {
		t.Fatalf("upper = %v by %q, want 3 by probe", r.res.upper, r.res.strategy)
	}
	if r.res.exact {
		t.Fatal("race closed, want an inexact upper bound")
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
	if got := tr.Summary().KTrajectory("probe"); !slices.Equal(got, []int{3, 2}) {
		t.Fatalf("probe trajectory %v, want [3 2]", got)
	}

	// Incumbent upper bound already at the lower bound: nothing to do.
	ctx2, tr2 := telemetry.WithTrace(context.Background())
	r2 := &race{bh: bh, opt: opt, tr: tr2, cancel: func() {}}
	r2.res.lower, r2.res.upper = lp.RI(2), lp.RI(2)
	deepen(ctx2, &probe, r2)
	if n := kinds(tr2.Summary())["deepen"]; n != 0 {
		t.Fatalf("%d deepen events with upper = lower, want 0", n)
	}
	if r2.res.witness != nil || r2.res.strategy != "" {
		t.Fatalf("lane published %q into a met race", r2.res.strategy)
	}
}

// TestDeepenSkipsRefutedLevels drives every deepening row of the lane
// table, one subtest per strategy and measure, while another lane
// proves width ≥ 3 during the row's first level. The row must not re-run
// level 2, which that bound already refutes: no deepen event may sit
// below the lower bound the race held when its level started. An
// unbudgeted row starts at the lower bound, 1; a budgeted row (the
// probe) starts one above it and stays one above it after the skip.
// Under ghw and fhw the probe then descends to level 3, which the
// bound leaves open. On Grid(4,4) hw = ghw = fhw = 3.
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

func testDeepenSkips(t *testing.T, row *lane, m Measure) {
	bh := hypergraph.Grid(4, 4)
	ctx, tr := telemetry.WithTrace(context.Background())
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	r := &race{bh: bh, opt: Options{Measure: m}, tr: tr, cancel: cancel}
	// The row's own decider, wrapped to record the race's lower bound at
	// the start of each level and to raise it during the first.
	var held []int
	l := *row
	l.open = func(r *race) (levelCheck, func(), error) {
		check, flush, err := row.open(r)
		if err != nil {
			return nil, nil, err
		}
		return func(ctx context.Context, k int) (*decomp.Decomp, *big.Rat, error) {
			held = append(held, r.snapshotLower())
			if len(held) == 1 {
				r.raiseLower(lp.RI(3), "other")
			}
			return check(ctx, k)
		}, flush, nil
	}
	if l.budget > 0 {
		l.budget = time.Minute // the start rule under test, not the timer
	}
	deepen(ctx, &l, r)

	got := tr.Summary().KTrajectory(l.name)
	if len(got) != len(held) {
		t.Fatalf("%s trajectory %v but %d levels started", l.name, got, len(held))
	}
	for i, k := range got {
		if k < held[i] {
			t.Fatalf("%s deepened to %d while the race held width ≥ %d (trajectory %v)", l.name, k, held[i], got)
		}
	}
	want := []int{1, 3}
	switch {
	case l.budget > 0 && l.no == proofNone:
		want = []int{2, 4, 3}
	case l.budget > 0:
		want = []int{2, 4}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("%s trajectory %v, want %v", l.name, got, want)
	}
	// A witness at level 3 meets the lower bound and closes the race; a
	// budgeted row's witness at level 4 is an upper bound above it, and
	// a descending row's witness at level 3 closes the race.
	switch closes := l.yes != proofNone; {
	case l.budget > 0 && l.no == proofNone && (!r.res.exact || r.res.strategy != l.name || r.res.upper.Cmp(lp.RI(3)) != 0):
		t.Fatalf("race = exact %v, upper %v by %q, want exact 3 by %s", r.res.exact, r.res.upper, r.res.strategy, l.name)
	case l.budget > 0 && (r.res.strategy != l.name || r.res.upper.Cmp(lp.RI(4)) > 0 || r.res.lower.Cmp(lp.RI(3)) != 0):
		t.Fatalf("race = lower %s, upper %v by %q; want lower 3, upper ≤ 4 by %s", r.res.lower.RatString(), r.res.upper, r.res.strategy, l.name)
	case l.budget > 0:
	case closes && (!r.res.exact || r.res.strategy != l.name || r.res.upper.Cmp(lp.RI(3)) != 0):
		t.Fatalf("race = exact %v, upper %v by %q, want exact 3 by %s", r.res.exact, r.res.upper, r.res.strategy, l.name)
	case !closes && (r.res.witness != nil || r.res.lower.Cmp(lp.RI(3)) != 0):
		t.Fatalf("race = lower %s, witness by %q; want lower 3 and no witness", r.res.lower.RatString(), r.res.strategy)
	}
}

// TestDeepenBudgetSkipsTimedOutLevels drives the probe row with a
// decider that, at level 2 (one above the race's lower bound 1), either
// blocks until its context ends or refutes at once, and accepts
// Check(HD,k) at every later level. On Grid(4,4), hw = 3. A timed-out
// level proves nothing under any measure: the lower bound stays 1 and
// the next level, 3, yields the upper bound 3. The ghw probe then
// retries level 2 on the race context, which blocks until the race's
// own deadline. A refutation inside the budget raises the hw lower
// bound to 3, so the probe goes on at 4; under ghw it proves nothing,
// the probe goes on at 3, and the refutation leaves nothing to retry.
func TestDeepenBudgetSkipsTimedOutLevels(t *testing.T) {
	bh := hypergraph.Grid(4, 4)
	for _, tc := range []struct {
		m          Measure
		refute     bool
		lower      int64
		upper      int64
		trajectory []int
	}{
		{HW, false, 1, 3, []int{2, 3}},
		{GHW, false, 1, 3, []int{2, 3, 2}},
		{HW, true, 3, 4, []int{2, 4}},
		{GHW, true, 1, 3, []int{2, 3}},
	} {
		name := tc.m.String() + "/timeout"
		if tc.refute {
			name = tc.m.String() + "/refute"
		}
		t.Run(name, func(t *testing.T) {
			l := *laneFor(t, "probe", tc.m)
			l.budget = 20 * time.Millisecond
			l.open = func(r *race) (levelCheck, func(), error) {
				return func(ctx context.Context, k int) (*decomp.Decomp, *big.Rat, error) {
					switch {
					case k == 2 && tc.refute:
						return nil, nil, nil
					case k == 2:
						<-ctx.Done()
						return nil, nil, ctx.Err()
					}
					return withWidth(core.CheckHD(bh, k), nil)
				}, func() {}, nil
			}
			ctx, tr := telemetry.WithTrace(context.Background())
			ctx, cancel := context.WithTimeout(ctx, 500*time.Millisecond)
			defer cancel()
			r := &race{bh: bh, opt: Options{Measure: tc.m}, tr: tr, cancel: cancel}
			r.res.lower = lp.RI(1)
			deepen(ctx, &l, r)

			if got := tr.Summary().KTrajectory("probe"); !slices.Equal(got, tc.trajectory) {
				t.Fatalf("probe trajectory %v, want %v", got, tc.trajectory)
			}
			if r.res.lower.Cmp(lp.RI(tc.lower)) != 0 {
				t.Fatalf("lower = %s, want %d", r.res.lower.RatString(), tc.lower)
			}
			if r.res.upper == nil || r.res.upper.Cmp(lp.RI(tc.upper)) > 0 || r.res.strategy != "probe" {
				t.Fatalf("upper = %v by %q, want ≤ %d by probe", r.res.upper, r.res.strategy, tc.upper)
			}
			if err := r.res.witness.Validate(tc.m.Kind()); err != nil {
				t.Fatalf("witness fails %v validation: %v", tc.m.Kind(), err)
			}
		})
	}
}

// TestDeepenCountsLaneFailures drives deepen with fake deciders that
// fail. A real error, whether the lane's open, one of its levels or a
// descent level fails, ends the lane with one strategy_error event and
// one count in hg_solve_strategy_errors_total; a level cut short by the
// race's cancellation counts as canceled instead, and a budgeted level
// whose timer fires is a skip that counts as neither.
func TestDeepenCountsLaneFailures(t *testing.T) {
	bh := hypergraph.Grid(3, 3)
	errDecider := errors.New("BIP subedge closure exceeds 8 sets")
	for _, tc := range []struct {
		name           string
		m              Measure
		budget         time.Duration
		lower          int64
		openErr        bool
		answers        map[int]string // per level: accept, fail, cancel or timeout; refute otherwise
		errs, canceled int64
	}{
		{"open", GHW, 0, 1, true, nil, 1, 0},
		{"level", GHW, 0, 1, false, map[int]string{2: "fail"}, 1, 0},
		// The ascent starts at 3 and accepts; the descent fails at 2.
		{"descent", GHW, time.Minute, 2, false, map[int]string{3: "accept", 2: "fail"}, 1, 0},
		{"canceled", HW, 0, 1, false, map[int]string{2: "cancel"}, 0, 1},
		{"timeout", HW, 10 * time.Millisecond, 1, false, map[int]string{2: "timeout", 3: "accept"}, 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			name := "fake-" + tc.name
			l := lane{name: name, measures: []Measure{tc.m}, budget: tc.budget, yes: proofUpper, no: proofLowerNext}
			if tc.budget > 0 && tc.m != HW {
				l.no = proofNone
			}
			ctx, tr := telemetry.WithTrace(context.Background())
			ctx, cancel := context.WithCancel(ctx)
			defer cancel()
			l.open = func(r *race) (levelCheck, func(), error) {
				if tc.openErr {
					return nil, nil, errDecider
				}
				return func(lctx context.Context, k int) (*decomp.Decomp, *big.Rat, error) {
					switch tc.answers[k] {
					case "accept":
						return withWidth(core.CheckHD(bh, k), nil)
					case "fail":
						return nil, nil, errDecider
					case "cancel":
						cancel()
						return nil, nil, ctx.Err()
					case "timeout":
						<-lctx.Done()
						return nil, nil, lctx.Err()
					}
					return nil, nil, nil
				}, func() {}, nil
			}
			r := &race{bh: bh, opt: Options{Measure: tc.m}, tr: tr, cancel: cancel}
			r.res.lower = lp.RI(tc.lower)
			errs0, canceled0 := mStrategyErrors.Values()[name], mStrategyCanceled.Values()[name]
			deepen(ctx, &l, r)

			if got := mStrategyErrors.Values()[name] - errs0; got != tc.errs {
				t.Errorf("errors counter moved by %d, want %d", got, tc.errs)
			}
			if got := mStrategyCanceled.Values()[name] - canceled0; got != tc.canceled {
				t.Errorf("canceled counter moved by %d, want %d", got, tc.canceled)
			}
			if got := kinds(tr.Summary())["strategy_error"]; got != int(tc.errs) {
				t.Errorf("%d strategy_error events, want %d", got, tc.errs)
			}
		})
	}
}

// TestProbeDescent drives the ghw probe with a fake decider whose
// answer per level is fixed: "accept" and "refute" answer at once, the
// "slow" answers come only to a level without a deadline, so the
// ascent's timed levels skip them and the descent, which runs on the
// race context, gets them. Each acceptance at level k publishes width
// k. The descent retries the skipped levels top down from one below the
// first acceptance, stops above a level the ascent refuted, and stops
// at its own first refutation.
func TestProbeDescent(t *testing.T) {
	bh := hypergraph.Grid(3, 3)
	for _, tc := range []struct {
		name       string
		answers    map[int]string
		upper      int64
		trajectory []int
	}{
		// Level 2's refutation sets the floor at 3.
		{"retries-skipped", map[int]string{2: "refute", 3: "slow-accept", 4: "accept"}, 3, []int{2, 3, 4, 3}},
		// Level 3 refutes on the way down, so level 2 is never retried.
		{"stops-at-refutation", map[int]string{2: "slow-accept", 3: "slow-refute", 4: "accept"}, 4, []int{2, 3, 4, 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l := *laneFor(t, "probe", GHW)
			l.budget = 20 * time.Millisecond
			l.open = func(r *race) (levelCheck, func(), error) {
				return func(ctx context.Context, k int) (*decomp.Decomp, *big.Rat, error) {
					answer := tc.answers[k]
					if _, budgeted := ctx.Deadline(); budgeted && strings.HasPrefix(answer, "slow-") {
						<-ctx.Done()
						return nil, nil, ctx.Err()
					}
					if strings.HasSuffix(answer, "refute") {
						return nil, nil, nil
					}
					return trivialDecomp(bh), lp.RI(int64(k)), nil
				}, func() {}, nil
			}
			ctx, tr := telemetry.WithTrace(context.Background())
			ctx, cancel := context.WithCancel(ctx)
			defer cancel()
			r := &race{bh: bh, opt: Options{Measure: GHW}, tr: tr, cancel: cancel}
			r.res.lower = lp.RI(1)
			deepen(ctx, &l, r)

			if got := tr.Summary().KTrajectory("probe"); !slices.Equal(got, tc.trajectory) {
				t.Fatalf("probe trajectory %v, want %v", got, tc.trajectory)
			}
			if r.res.upper == nil || r.res.upper.Cmp(lp.RI(tc.upper)) != 0 || r.res.strategy != "probe" {
				t.Fatalf("upper = %v by %q, want %d by probe", r.res.upper, r.res.strategy, tc.upper)
			}
			if r.res.lower.Cmp(lp.RI(1)) != 0 {
				t.Fatalf("lower = %s, want 1: a ghw probe proves no lower bound", r.res.lower.RatString())
			}
		})
	}
}

// TestProbeFHWWitness runs the fhw probe's decider at level 3 on a
// chorded grid, a non-bipartite block that stays in the fhw race. The
// accepted HD, repriced by ρ*, must validate as an FHD whose width is
// the largest ρ* of its bags.
func TestProbeFHWWitness(t *testing.T) {
	bh := hypergraph.Grid(3, 7)
	bh.AddEdge("chord", "v0_0", "v1_1")
	r := &race{bh: bh, opt: Options{Measure: FHW}, cancel: func() {}}
	check, flush, err := laneFor(t, "probe", FHW).open(r)
	if err != nil {
		t.Fatal(err)
	}
	defer flush()
	d, w, err := check(context.Background(), 3)
	if err != nil || d == nil {
		t.Fatalf("level 3: witness %v, err %v", d, err)
	}
	if err := d.Validate(decomp.FHD); err != nil {
		t.Fatalf("probe witness fails FHD validation: %v", err)
	}
	maxRho := new(big.Rat)
	for _, n := range d.Nodes {
		if rho, _ := cover.FractionalEdgeCover(bh, n.Bag); rho.Cmp(maxRho) > 0 {
			maxRho = rho
		}
	}
	if w.Cmp(maxRho) != 0 || d.Width().Cmp(maxRho) != 0 {
		t.Fatalf("width %s (witness %s), want max ρ*(bag) = %s", w.RatString(), d.Width().RatString(), maxRho.RatString())
	}
}

// TestProbeGrid7x7 solves Grid(7,7), whose widths are 4, at a 1 s
// budget. The deciders cannot refute level 3 in time, min-fill stops
// above 4, and the probe accepts Check(HD,4) within its first budgets,
// so every measure's upper bound is at most 4.
func TestProbeGrid7x7(t *testing.T) {
	h := hypergraph.Grid(7, 7)
	for _, m := range []Measure{HW, GHW, FHW} {
		t.Run(m.String(), func(t *testing.T) {
			res, err := Solve(context.Background(), h, Options{Measure: m, Timeout: time.Second, Validate: true})
			if err != nil {
				t.Fatal(err)
			}
			if res.Upper == nil || res.Upper.Cmp(lp.RI(4)) > 0 {
				t.Fatalf("%v ∈ [%s, %v] by %q, want upper ≤ 4", m, res.Lower.RatString(), res.Upper, res.Strategy)
			}
		})
	}
}

// TestLaneRoster pins which strategies each block's race starts, per
// measure, on blocks of 12 to 25 vertices, with and without sat-ord.
// Under hw detk decides every block, so no other decider starts. A
// bipartite rank-2 block under fhw runs the ghw roster. Every block here
// stays open after the clique bound and the single-bag witness, so its
// race has work to do.
func TestLaneRoster(t *testing.T) {
	chorded := func(rows, cols int) *hypergraph.Hypergraph {
		h := hypergraph.Grid(rows, cols)
		h.AddEdge("chord", "v0_0", "v1_1")
		return h
	}
	hw := []string{"detk", "probe"}
	ghw := []string{"bip", "minfill", "probe", "sat-ord"}
	fhw := []string{"minfill", "probe", "sat-ord"}
	for _, tc := range []struct {
		name    string
		h       *hypergraph.Hypergraph
		measure Measure
		want    []string
	}{
		{"hw/grid4x4", hypergraph.Grid(4, 4), HW, hw},
		{"hw/grid5x5", hypergraph.Grid(5, 5), HW, hw},
		{"ghw/grid4x4", hypergraph.Grid(4, 4), GHW, ghw},
		{"ghw/grid5x5", hypergraph.Grid(5, 5), GHW, ghw},
		{"fhw/grid3x4+chord", chorded(3, 4), FHW, fhw},
		{"fhw/grid3x7+chord", chorded(3, 7), FHW, fhw},
		{"fhw-bipartite/grid4x4", hypergraph.Grid(4, 4), FHW, ghw},
		{"fhw-bipartite/grid5x5", hypergraph.Grid(5, 5), FHW, ghw},
	} {
		for _, satOrd := range []bool{true, false} {
			name, opt, want := tc.name, Options{Measure: tc.measure}, tc.want
			if !satOrd {
				name, opt.SATOrdLimit = name+"/no-sat-ord", -1
				want = slices.DeleteFunc(slices.Clone(want), func(s string) bool { return s == "sat-ord" })
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

// TestClosedBlockStartsNoLanes: on Clique(6) the clique bound and the
// single-bag witness both read 3 before the race begins, so the block
// is closed and no lane starts.
func TestClosedBlockStartsNoLanes(t *testing.T) {
	ctx, tr := telemetry.WithTrace(context.Background())
	res, err := Solve(ctx, hypergraph.Clique(6), Options{Measure: GHW})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exact || res.Upper.Cmp(lp.RI(3)) != 0 || res.Strategy != "trivial-ub" {
		t.Fatalf("ghw ∈ [%s, %v] by %q, want exact 3 by trivial-ub", res.Lower.RatString(), res.Upper, res.Strategy)
	}
	if n := kinds(tr.Summary())["strategy_start"]; n != 0 {
		t.Fatalf("%d strategy_start events on a block closed before its race, want 0", n)
	}
}
