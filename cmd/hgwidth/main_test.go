package main

// Regression tests for the response writer: no nil derefs on degraded
// results, no output reading as exact when the solve was not, and the
// provenance tag surfacing on inexact answers.

import (
	"strings"
	"testing"
	"time"

	"hypertree/internal/lp"
	"hypertree/internal/solve"
)

func render(r *solve.Result) string {
	var b strings.Builder
	printResult(&b, r.Measure, r)
	return b.String()
}

func TestPrintResultExact(t *testing.T) {
	out := render(&solve.Result{
		Measure: solve.GHW, Lower: lp.RI(2), Upper: lp.RI(2),
		Exact: true, Strategy: "sat-ord", Provenance: solve.ProvExact,
		Elapsed: 3 * time.Millisecond,
	})
	if !strings.Contains(out, "ghw = 2") {
		t.Fatalf("exact result rendered as %q", out)
	}
}

func TestPrintResultInterval(t *testing.T) {
	out := render(&solve.Result{
		Measure: solve.FHW, Lower: lp.RI(2), Upper: lp.RI(3),
		Partial: true, Strategy: "probe", Provenance: solve.ProvHeuristic,
	})
	if !strings.Contains(out, "fhw ∈ [2, 3]") {
		t.Fatalf("interval result rendered as %q", out)
	}
	if strings.Contains(out, "=") {
		t.Fatalf("inexact result reads as exact: %q", out)
	}
	if !strings.Contains(out, "heuristic") {
		t.Fatalf("provenance tag missing: %q", out)
	}
}

// TestPrintResultNilUpper: a result stripped of its upper bound (the
// pre-hardening degradation shape, still possible for defensive
// callers) renders a lower bound without panicking.
func TestPrintResultNilUpper(t *testing.T) {
	out := render(&solve.Result{Measure: solve.HW, Lower: lp.RI(2), Partial: true})
	if !strings.Contains(out, "hw  ≥ 2") {
		t.Fatalf("lower-bound-only result rendered as %q", out)
	}
}

// TestPrintResultExactFlagWithoutUpper: a corrupt Exact-but-no-Upper
// result must not deref nil; it degrades to the lower-bound form.
func TestPrintResultExactFlagWithoutUpper(t *testing.T) {
	out := render(&solve.Result{Measure: solve.GHW, Lower: lp.RI(1), Exact: true})
	if !strings.Contains(out, "≥") {
		t.Fatalf("corrupt exact result rendered as %q", out)
	}
}

func TestPrintResultNilLower(t *testing.T) {
	out := render(&solve.Result{Measure: solve.GHW, Upper: lp.RI(4), Provenance: solve.ProvHeuristic})
	if !strings.Contains(out, "[0, 4]") {
		t.Fatalf("nil-lower result rendered as %q", out)
	}
}
