package core

import (
	"fmt"
	"testing"

	"hypertree/internal/decomp"
	"hypertree/internal/hypergraph"
	"hypertree/internal/lp"
	"hypertree/internal/telemetry"
)

// engineCount is the part of an engine run's counters the pruning must
// leave unchanged.
type engineCount struct{ subproblems, memoHits int64 }

func countOf(tr *telemetry.Trace) engineCount {
	c := tr.Summary().Counters
	return engineCount{c.EngineSubproblems, c.EngineMemoHits}
}

// TestConnectorPruningKeepsSearch pins the engine counters of
// Check(HD,k) and Check(GHD,k) on grids to the values the unpruned λ
// enumeration produced. The connector bound only drops guesses that
// fail W ⊆ bag, and those never reach the engine, so the sequence of
// accepted-for-recursion guesses — and with it every subproblem and
// memo hit — must stay exactly the same.
func TestConnectorPruningKeepsSearch(t *testing.T) {
	for _, tc := range []struct {
		rows, cols, k int
		accept        bool
		hd, ghd       engineCount
	}{
		{4, 4, 2, false, engineCount{294, 986}, engineCount{621, 6152}},
		{5, 5, 2, false, engineCount{807, 2337}, engineCount{1807, 16971}},
		{5, 6, 3, true, engineCount{126, 97}, engineCount{145, 162}},
		{5, 8, 3, true, engineCount{170, 97}, engineCount{199, 198}},
		{6, 6, 2, false, engineCount{1808, 4770}, engineCount{4141, 38076}},
	} {
		h := hypergraph.Grid(tc.rows, tc.cols)
		name := fmt.Sprintf("grid%dx%d/k%d", tc.rows, tc.cols, tc.k)
		t.Run(name, func(t *testing.T) {
			hs, gs := telemetry.NewTrace(), telemetry.NewTrace()
			hd := CheckHDOpt(h, tc.k, Options{Trace: hs})
			ghd, err := CheckGHDViaBIP(h, tc.k, Options{Trace: gs})
			if err != nil {
				t.Fatal(err)
			}
			if (hd != nil) != tc.accept || (ghd != nil) != tc.accept {
				t.Fatalf("CheckHD accepts %v, CheckGHDViaBIP accepts %v, want %v", hd != nil, ghd != nil, tc.accept)
			}
			if got := countOf(hs); got != tc.hd {
				t.Errorf("CheckHD stats %+v, want %+v", got, tc.hd)
			}
			if got := countOf(gs); got != tc.ghd {
				t.Errorf("CheckGHDViaBIP stats %+v, want %+v", got, tc.ghd)
			}
			k := lp.RI(int64(tc.k))
			if hd != nil {
				if err := hd.ValidateWidth(decomp.HD, k); err != nil {
					t.Errorf("HD witness invalid: %v", err)
				}
			}
			if ghd != nil {
				if err := ghd.ValidateWidth(decomp.GHD, k); err != nil {
					t.Errorf("GHD witness invalid: %v", err)
				}
			}
		})
	}
}

// FuzzCheckHDGHD decodes bytes into a hypergraph of at most 10 vertices
// and compares the pruned enumerations against the naive references:
// CheckHD against refCheckHD and CheckGHDViaBIP against the eager
// augment-then-CheckHD pipeline, for k = 1..3, validating every witness.
func FuzzCheckHDGHD(f *testing.F) {
	f.Add([]byte{6, 6, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 0})
	f.Add([]byte{9, 7, 0x13, 0x27, 0x3a, 0x41, 0x5c, 0x66, 0x70, 0x8b, 0x92, 0xa5, 0xb3, 0xc8})
	f.Add([]byte{10, 12, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0, 2, 4, 6, 8, 1, 3, 5, 7, 9, 0, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		nv := 1 + int(data[0]%10)
		ne := 1 + int(data[1]%12)
		data = data[2:]
		pos := 0
		next := func() int {
			b := data[pos%len(data)]
			pos++
			return int(b)
		}
		h := hypergraph.New()
		for v := 0; v < nv; v++ {
			h.Vertex(fmt.Sprintf("v%d", v))
		}
		for e := 0; e < ne; e++ {
			s := hypergraph.NewVertexSet(nv)
			for j := 1 + next()%4; j > 0; j-- {
				s.Add(next() % nv)
			}
			h.AddEdgeSet(fmt.Sprintf("e%d", e), s)
		}
		for k := 1; k <= 3; k++ {
			kr := lp.RI(int64(k))
			d := CheckHD(h, k)
			if want := refCheckHD(h, k); (d != nil) != want {
				t.Fatalf("CheckHD(%v, %d) = %v, reference says %v", h, k, d != nil, want)
			}
			if d != nil {
				if err := d.ValidateWidth(decomp.HD, kr); err != nil {
					t.Fatalf("CheckHD(%v, %d) witness invalid: %v", h, k, err)
				}
			}
			want, err := eagerCheckGHD(h, k, false)
			if err != nil {
				t.Fatalf("eager pipeline on %v at k=%d: %v", h, k, err)
			}
			g, err := CheckGHDViaBIP(h, k, Options{})
			if err != nil {
				t.Fatalf("CheckGHDViaBIP(%v, %d): %v", h, k, err)
			}
			if (g != nil) != (want != nil) {
				t.Fatalf("CheckGHDViaBIP(%v, %d) = %v, eager pipeline says %v", h, k, g != nil, want != nil)
			}
			if g != nil {
				if err := g.ValidateWidth(decomp.GHD, kr); err != nil {
					t.Fatalf("CheckGHDViaBIP(%v, %d) witness invalid: %v", h, k, err)
				}
			}
		}
	})
}
