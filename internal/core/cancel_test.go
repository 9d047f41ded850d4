package core

import (
	"context"
	"testing"
	"time"

	"hypertree/internal/hypergraph"
)

// TestCtxVariantsMatchDirect: with a background context the *Ctx entry
// points must behave exactly like their direct counterparts.
func TestCtxVariantsMatchDirect(t *testing.T) {
	ctx := context.Background()
	h := hypergraph.ExampleH0()

	for k := 1; k <= 3; k++ {
		want := CheckHD(h, k) != nil
		d, err := CheckHDCtx(ctx, h, k)
		if err != nil || (d != nil) != want {
			t.Fatalf("CheckHDCtx(%d) = (%v, %v), direct says %v", k, d != nil, err, want)
		}
	}
	wantG, _ := ExactGHW(h)
	g, _, err := ExactGHWCtx(ctx, h)
	if err != nil || g != wantG {
		t.Fatalf("ExactGHWCtx = (%d, %v), want %d", g, err, wantG)
	}
	wantF, _ := ExactFHW(h)
	f, _, err := ExactFHWCtx(ctx, h)
	if err != nil || f.Cmp(wantF) != 0 {
		t.Fatalf("ExactFHWCtx = (%s, %v), want %s", f.RatString(), err, wantF.RatString())
	}
	lb, d, err := HWCtx(ctx, h, 0)
	if err != nil || d == nil || lb != 3 {
		t.Fatalf("HWCtx = (%d, %v, %v), want hw 3", lb, d != nil, err)
	}
}

// TestCancellationUnwinds: an expired context aborts the searches
// promptly with ctx.Err() and no panic leaks.
func TestCancellationUnwinds(t *testing.T) {
	h := hypergraph.Grid(4, 4)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	<-ctx.Done()

	start := time.Now()
	if _, err := CheckHDCtx(ctx, h, 3); err == nil {
		t.Fatal("CheckHDCtx on dead context: want error")
	}
	if _, _, err := ExactGHWCtx(ctx, h); err == nil {
		t.Fatal("ExactGHWCtx on dead context: want error")
	}
	if _, _, err := ExactFHWCtx(ctx, h); err == nil {
		t.Fatal("ExactFHWCtx on dead context: want error")
	}
	if _, err := CheckGHDViaBIPCtx(ctx, h, 2, Options{}); err == nil {
		t.Fatal("CheckGHDViaBIPCtx on dead context: want error")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancelled searches took %v to unwind", elapsed)
	}
}

// TestCheckHDDeadlineMidSearch: a deadline that fires inside a running
// search unwinds into context.DeadlineExceeded, never with a witness.
func TestCheckHDDeadlineMidSearch(t *testing.T) {
	// The full Check(HD,2) rejection sweep on the 6×6 grid takes far
	// longer than 1ms, so the deadline always fires mid-search.
	h := hypergraph.Grid(6, 6)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	d, err := CheckHDCtx(ctx, h, 2)
	if err == nil && d == nil {
		t.Skip("search finished inside the deadline; nothing to assert")
	}
	if err != context.DeadlineExceeded {
		t.Fatalf("want DeadlineExceeded, got (%v, %v)", d != nil, err)
	}
	if d != nil {
		t.Fatal("canceled run returned a witness")
	}
}
