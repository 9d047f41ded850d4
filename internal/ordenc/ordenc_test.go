package ordenc

import (
	"math/big"
	"strings"
	"testing"

	"hypertree/internal/core"
	"hypertree/internal/decomp"
	"hypertree/internal/hypergraph"
	"hypertree/internal/lp"
)

// ghwViaOrdering runs the deepening loop the solve strategy uses and
// returns the exact ghw with its witness.
func ghwViaOrdering(t *testing.T, h *hypergraph.Hypergraph, kCap int) (int, *decomp.Decomp, *GHWSearch) {
	t.Helper()
	s, err := NewGHWSearch(h, kCap)
	if err != nil {
		t.Fatalf("NewGHWSearch: %v", err)
	}
	for k := 1; k <= h.NumEdges(); k++ {
		d, err := s.Check(nil, k)
		if err != nil {
			t.Fatalf("Check(%d): %v", k, err)
		}
		if d != nil {
			return k, d, s
		}
	}
	t.Fatalf("no width up to %d edges", h.NumEdges())
	return 0, nil, nil
}

// fhwViaOrdering runs integer CheckLevel deepening then the RefineBelow
// sweep to the exact fractional width.
func fhwViaOrdering(t *testing.T, h *hypergraph.Hypergraph) (*big.Rat, *decomp.Decomp, *FHWSearch) {
	t.Helper()
	s, err := NewFHWSearch(h, nil)
	if err != nil {
		t.Fatalf("NewFHWSearch: %v", err)
	}
	var d *decomp.Decomp
	var w *big.Rat
	for k := 1; ; k++ {
		if k > h.NumEdges() {
			t.Fatal("no integer level accepted")
		}
		var err error
		d, w, err = s.CheckLevel(nil, lp.RI(int64(k)))
		if err != nil {
			t.Fatalf("CheckLevel(%d): %v", k, err)
		}
		if d != nil {
			break
		}
	}
	for {
		d2, w2, err := s.RefineBelow(nil, w)
		if err != nil {
			t.Fatalf("RefineBelow(%v): %v", w, err)
		}
		if d2 == nil {
			return w, d, s // no ordering strictly below w: exact
		}
		d, w = d2, w2
	}
}

func TestGHWMatchesExactOnGenerators(t *testing.T) {
	cases := []struct {
		name string
		h    *hypergraph.Hypergraph
	}{
		{"triangle", hypergraph.Clique(3)},
		{"clique4", hypergraph.Clique(4)},
		{"clique5", hypergraph.Clique(5)},
		{"cycle4", hypergraph.Cycle(4)},
		{"cycle6", hypergraph.Cycle(6)},
		{"path5", hypergraph.Path(5)},
		{"grid2x3", hypergraph.Grid(2, 3)},
		{"grid2x4", hypergraph.Grid(2, 4)},
		{"grid3x3", hypergraph.Grid(3, 3)},
		{"hypercycle", hypergraph.HyperCycle(5, 3, 1)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, _ := core.ExactGHW(tc.h)
			got, d, _ := ghwViaOrdering(t, tc.h, 2)
			if got != want {
				t.Fatalf("ghw = %d, ExactGHW = %d", got, want)
			}
			if err := d.ValidateWidth(decomp.GHD, lp.RI(int64(want))); err != nil {
				t.Fatalf("witness: %v", err)
			}
		})
	}
}

func TestFHWMatchesExactOnGenerators(t *testing.T) {
	cases := []struct {
		name string
		h    *hypergraph.Hypergraph
	}{
		{"triangle", hypergraph.Clique(3)},
		{"clique4", hypergraph.Clique(4)},
		{"cycle5", hypergraph.Cycle(5)},
		{"grid2x3", hypergraph.Grid(2, 3)},
		{"hypercycle", hypergraph.HyperCycle(4, 3, 1)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, _ := core.ExactFHW(tc.h)
			got, d, _ := fhwViaOrdering(t, tc.h)
			if got.Cmp(want) != 0 {
				t.Fatalf("fhw = %s, ExactFHW = %s", got.RatString(), want.RatString())
			}
			if err := d.ValidateWidth(decomp.FHD, want); err != nil {
				t.Fatalf("witness: %v", err)
			}
		})
	}
}

// TestIncrementalReuseAcrossLevels is the acceptance-criterion assertion:
// k-refinement on one search object reuses learned clauses.
func TestIncrementalReuseAcrossLevels(t *testing.T) {
	h := hypergraph.Grid(3, 3) // ghw 2: level 1 rejects, level 2 accepts
	s, err := NewGHWSearch(h, 3)
	if err != nil {
		t.Fatal(err)
	}
	if d, err := s.Check(nil, 1); err != nil || d != nil {
		t.Fatalf("grid3x3 at k=1: d=%v err=%v, want reject", d, err)
	}
	if s.Stats().Learned == 0 {
		t.Fatal("rejection at k=1 learned no clauses")
	}
	d, err := s.Check(nil, 2)
	if err != nil || d == nil {
		t.Fatalf("grid3x3 at k=2: d=%v err=%v, want accept", d, err)
	}
	st := s.Stats()
	if st.ReuseSolves == 0 {
		t.Error("ReuseSolves = 0: second level did not reuse the solver state")
	}
	if st.ReusedLearned == 0 {
		t.Error("ReusedLearned = 0: learned clauses were discarded between levels")
	}
	if st.Rebuilds != 0 {
		t.Errorf("Rebuilds = %d within kCap, want 0", st.Rebuilds)
	}
}

func TestKCapRebuild(t *testing.T) {
	h := hypergraph.Clique(6) // ghw 3
	s, err := NewGHWSearch(h, 1)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 2; k++ {
		if d, err := s.Check(nil, k); err != nil || d != nil {
			t.Fatalf("clique6 at k=%d: d=%v err=%v, want reject", k, d, err)
		}
	}
	d, err := s.Check(nil, 3)
	if err != nil || d == nil {
		t.Fatalf("clique6 at k=3: d=%v err=%v, want accept", d, err)
	}
	if s.Stats().Rebuilds == 0 {
		t.Error("expected at least one rebuild past kCap=1")
	}
}

// TestCancellationPropagates: a search whose done has already fired
// returns ErrCanceled without building its Θ(n³) clauses, so a race
// that closed while the search was being opened does not wait for the
// encoding, and the search still answers once done is open.
func TestCancellationPropagates(t *testing.T) {
	h := hypergraph.Grid(3, 3)
	s, err := NewGHWSearch(h, 2)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	close(done)
	if _, err := s.Check(done, 1); err != ErrCanceled {
		t.Fatalf("Check under closed done: err=%v, want ErrCanceled", err)
	}
	if s.enc.s != nil {
		t.Fatal("ghw search built its encoding under a closed done")
	}
	// Still usable afterwards.
	d, err := s.Check(nil, 2)
	if err != nil || d == nil {
		t.Fatalf("post-cancel Check(2): d=%v err=%v", d, err)
	}

	f, err := NewFHWSearch(h, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.CheckLevel(done, lp.RI(1)); err != ErrCanceled {
		t.Fatalf("fhw CheckLevel under closed done: err=%v, want ErrCanceled", err)
	}
	if _, _, err := f.RefineBelow(done, lp.RI(2)); err != ErrCanceled {
		t.Fatalf("fhw RefineBelow under closed done: err=%v, want ErrCanceled", err)
	}
	if f.enc.s != nil {
		t.Fatal("fhw search built its encoding under a closed done")
	}
	if d, _, err := f.CheckLevel(nil, lp.RI(2)); err != nil || d == nil {
		t.Fatalf("post-cancel fhw CheckLevel(2): d=%v err=%v", d, err)
	}
}

func TestFHWBlockingStats(t *testing.T) {
	// The 5-cycle has fhw 2 on binary edges but its orderings produce
	// 3-vertex bags with ρ* 2 > 3/2, so refining below 2 must install
	// blocking clauses before concluding exactness.
	h := hypergraph.Cycle(5)
	w, _, s := fhwViaOrdering(t, h)
	if w.Cmp(lp.RI(2)) != 0 {
		t.Fatalf("fhw(C5) = %s, want 2", w.RatString())
	}
	st := s.Stats()
	if st.PricedBags == 0 {
		t.Error("no bags priced")
	}
	if st.Blocked == 0 {
		t.Error("refinement concluded without any blocking clause")
	}
}

func TestSingleVertex(t *testing.T) {
	h := hypergraph.New()
	h.AddEdge("e", "v")
	k, d, _ := ghwViaOrdering(t, h, 1)
	if k != 1 {
		t.Fatalf("ghw = %d, want 1", k)
	}
	if err := d.ValidateWidth(decomp.GHD, lp.RI(1)); err != nil {
		t.Fatal(err)
	}
	w, _, _ := fhwViaOrdering(t, h)
	if w.Cmp(lp.RI(1)) != 0 {
		t.Fatalf("fhw = %s, want 1", w.RatString())
	}
}

// TestDisconnectedFillGraph exercises the singleton-bag parent fallback:
// two vertex-disjoint edges never share a bag, so the last node of the
// earlier-eliminated component has no later bag member and attaches to
// the node at the next position, which belongs to the other component.
func TestDisconnectedFillGraph(t *testing.T) {
	h := hypergraph.New()
	h.AddEdge("e1", "a", "b")
	h.AddEdge("e2", "c", "d")
	k, d, _ := ghwViaOrdering(t, h, 2)
	if k != 1 {
		t.Fatalf("ghw = %d, want 1", k)
	}
	if err := d.Validate(decomp.GHD); err != nil {
		t.Fatal(err)
	}
	w, fd, _ := fhwViaOrdering(t, h)
	if w.Cmp(lp.RI(1)) != 0 {
		t.Fatalf("fhw = %s, want 1", w.RatString())
	}
	if err := fd.ValidateWidth(decomp.FHD, w); err != nil {
		t.Fatal(err)
	}
}

func TestWriteDIMACSShape(t *testing.T) {
	h := hypergraph.Clique(4)
	s, err := NewGHWSearch(h, 2)
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := s.WriteDIMACS(&buf, 2); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "p cnf ") {
		t.Fatalf("missing problem line:\n%.200s", out)
	}
	if !strings.Contains(out, "c ordenc ghw<=2") {
		t.Fatalf("missing header comment:\n%.200s", out)
	}

	f, err := NewFHWSearch(h, nil)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := f.WriteDIMACS(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "fhw ordering core") {
		t.Fatal("missing fhw header comment")
	}
}

func TestEncoderRejectsDegenerate(t *testing.T) {
	if _, err := NewGHWSearch(hypergraph.New(), 1); err == nil {
		t.Error("empty hypergraph accepted")
	}
	h := hypergraph.New()
	h.Vertex("lonely")
	h.AddEdge("e", "a", "b")
	if _, err := NewGHWSearch(h, 1); err == nil {
		t.Error("isolated vertex accepted")
	}
}
