package csp

import (
	"context"
	"math/rand"
	"testing"

	"hypertree/internal/core"
	"hypertree/internal/decomp"
	"hypertree/internal/lp"
	"hypertree/internal/solve"
)

func TestParseCQ(t *testing.T) {
	q, err := ParseCQ("ans(X,Y) :- r(X,Z), s(Z,Y), r(Y,W).")
	if err != nil {
		t.Fatal(err)
	}
	if q.Name != "ans" || len(q.Atoms) != 3 {
		t.Fatalf("name=%q atoms=%d", q.Name, len(q.Atoms))
	}
	if q.H.NumVertices() != 4 || q.H.NumEdges() != 3 {
		t.Fatalf("hypergraph %d vertices %d edges", q.H.NumVertices(), q.H.NumEdges())
	}
	// Second r-atom gets a distinct edge name.
	if _, ok := q.H.EdgeIDByName("r#2"); !ok {
		t.Fatal("duplicate relation not renamed")
	}
	// Headless form.
	q2, err := ParseCQ("r(X,Y), s(Y,Z)")
	if err != nil {
		t.Fatal(err)
	}
	if len(q2.Atoms) != 2 {
		t.Fatal("headless parse failed")
	}
	// Repeated variable within an atom collapses.
	q3 := MustParseCQ("r(X,X,Y)")
	if q3.H.Edge(0).Count() != 2 {
		t.Fatal("r(X,X,Y) must have hyperedge {X,Y}")
	}
	for _, bad := range []string{"", "r(", "(X)", "r()", "r(X,,Y)"} {
		if _, err := ParseCQ(bad); err == nil {
			t.Errorf("ParseCQ(%q) should fail", bad)
		}
	}
}

func TestShapes(t *testing.T) {
	// Chain joins are acyclic (hw 1); cycles have ghw 2; stars acyclic.
	chain := ChainCQ(5, 3, 1)
	if !chain.H.IsAcyclic() {
		t.Error("chain join must be acyclic")
	}
	if hw, _ := core.HW(chain.H, 2); hw != 1 {
		t.Errorf("hw(chain) = %d, want 1", hw)
	}
	star := StarCQ(4, 3)
	if !star.H.IsAcyclic() {
		t.Error("star join must be acyclic")
	}
	cyc := CycleCQ(6)
	if cyc.H.IsAcyclic() {
		t.Error("cyclic join must be cyclic")
	}
	if hw, _ := core.HW(cyc.H, 3); hw != 2 {
		t.Errorf("hw(cycle6) = %d, want 2", hw)
	}
	snow := SnowflakeCQ(3, 2)
	if !snow.H.IsAcyclic() {
		t.Error("snowflake must be acyclic")
	}
}

func TestDecomposeCorpusQueries(t *testing.T) {
	// Every generated query decomposes with the BIP-based GHD check and
	// the decomposition validates.
	rng := rand.New(rand.NewSource(5))
	qs := []*Query{
		ChainCQ(4, 3, 1), StarCQ(3, 2), CycleCQ(5), SnowflakeCQ(2, 1),
		RandomCQ(rng, 4, 8, 3), RandomCSP(rng, 5, 6, 3),
	}
	for _, q := range qs {
		w, d, err := core.GHWViaBIP(q.H, 4, core.Options{})
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		if w < 1 || d == nil {
			t.Fatalf("%s: no decomposition", q.Name)
		}
		if err := d.Validate(decomp.GHD); err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
	}
}

func TestSyntheticCorpusStats(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	corpus := SyntheticCorpus(rng, 4)
	s := Collect(corpus)
	if s.Total != 24 {
		t.Fatalf("corpus size %d, want 24", s.Total)
	}
	if s.Acyclic == 0 {
		t.Error("corpus should contain acyclic queries")
	}
	if s.Acyclic == s.Total {
		t.Error("corpus should contain cyclic queries")
	}
	// The HyperBench-style observation the paper leans on: most
	// instances have small intersection width.
	if s.IWidthLE2*2 < s.Total {
		t.Errorf("only %d/%d instances have iwidth ≤ 2", s.IWidthLE2, s.Total)
	}
	if s.MaxRank < 3 {
		t.Error("corpus should contain arity ≥ 3")
	}
}

func TestParseCQHead(t *testing.T) {
	q := MustParseCQ("ans(X, Z) :- r(X,Y), s(Y,Z)")
	if len(q.Head) != 2 || q.Head[0] != "X" || q.Head[1] != "Z" {
		t.Fatalf("head = %v", q.Head)
	}
	if len(MustParseCQ("r(X,Y)").Head) != 0 {
		t.Fatal("headless query must have empty head")
	}
	if len(MustParseCQ("ans() :- r(X,Y)").Head) != 0 {
		t.Fatal("boolean query must have empty head")
	}
}

// TestSolveCorpusMatchesDirect solves the synthetic corpus through the
// solve subsystem and cross-checks every instance small enough for the
// exact DP against it; all witnesses must validate.
func TestSolveCorpusMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	corpus := SyntheticCorpus(rng, 2)
	checked := 0
	for _, q := range corpus.Queries {
		r, err := solve.Solve(context.Background(), q.H, solve.Options{Measure: solve.GHW, Validate: true})
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		if !r.Exact || r.Witness == nil {
			t.Fatalf("%s: not exact (bounds [%s, %v])", q.Name, r.Lower.RatString(), r.Upper)
		}
		if err := r.Witness.Validate(decomp.GHD); err != nil {
			t.Fatalf("%s: witness invalid: %v", q.Name, err)
		}
		if q.H.NumVertices() <= 16 {
			want, _ := core.ExactGHW(q.H)
			if r.Upper.Cmp(lp.RI(int64(want))) != 0 {
				t.Errorf("%s: solve says %s, exact DP says %d", q.Name, r.Upper.RatString(), want)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no instance was cross-checked against the exact DP")
	}
}
