package solve_test

import (
	"context"
	"testing"

	"hypertree/internal/corpus"
	"hypertree/internal/hypergraph"
	"hypertree/internal/solve"
)

// redeclared copies h after declaring the given vertex names, so the
// copy's vertex indices follow names rather than first occurrence in
// an edge.
func redeclared(h *hypergraph.Hypergraph, names ...string) *hypergraph.Hypergraph {
	r := hypergraph.New()
	for _, n := range names {
		r.Vertex(n)
	}
	for e := 0; e < h.NumEdges(); e++ {
		var vs []string
		h.Edge(e).ForEach(func(v int) bool {
			vs = append(vs, h.VertexName(v))
			return true
		})
		r.AddEdge(h.EdgeName(e), vs...)
	}
	return r
}

// TestRenamedTwinsHitCache: hypergraphs that differ only in vertex
// names and in the order their vertices were declared share one cache
// key, whichever format they were decoded from. The first twin of each
// row populates the cache; every other twin must hit it and get a
// witness translated onto its own hypergraph.
func TestRenamedTwinsHitCache(t *testing.T) {
	pace := func(text string) *hypergraph.Hypergraph {
		h, f, err := corpus.DecodeString(text)
		if err != nil || f != corpus.FormatPACE {
			t.Fatalf("decode %q: format %v, %v", text, f, err)
		}
		return h
	}
	for _, tc := range []struct {
		name  string
		twins []*hypergraph.Hypergraph
	}{
		{"path", []*hypergraph.Hypergraph{
			hypergraph.MustParse("e1(a,b), e2(b,c)"),
			redeclared(hypergraph.MustParse("e1(x,y), e2(y,z)"), "z", "y", "x"),
			// The middle vertex is declared first.
			pace("p htd 3 2\n1 2 1\n2 2 3\n"),
		}},
		{"cq", []*hypergraph.Hypergraph{
			hypergraph.MustParse("r(x,y,z), s(z,w), t(w,x), u(y,v)"),
			redeclared(hypergraph.MustParse("r(x,y,z), s(z,w), t(w,x), u(y,v)"), "v", "w", "z", "y", "x"),
			redeclared(hypergraph.MustParse("p(A,B,C), q(C,D), r(D,A), s(B,E)"), "B", "A", "C", "E", "D"),
			// x=3 y=1 z=2 w=5 v=4, each edge listed out of order.
			pace("p htd 5 4\n1 3 1 2\n2 2 5\n3 5 3\n4 1 4\n"),
		}},
		{"H0", []*hypergraph.Hypergraph{
			hypergraph.ExampleH0(),
			redeclared(hypergraph.ExampleH0(), h0Reversed()...),
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := solve.NewSolver(solve.NewCache(0, 0), 1)
			for i, h := range tc.twins {
				r, err := s.Solve(context.Background(), h, solve.Options{Measure: solve.GHW, Validate: true})
				if err != nil {
					t.Fatal(err)
				}
				if !r.Exact {
					t.Fatalf("twin %d not solved exactly: %+v", i, r)
				}
				if i > 0 && !r.FromCache {
					t.Fatalf("twin %d missed the cache", i)
				}
				if r.Witness == nil || r.Witness.H != h {
					t.Fatalf("twin %d: witness not on its own hypergraph", i)
				}
				if err := r.Witness.Validate(solve.GHW.Kind()); err != nil {
					t.Fatalf("twin %d: witness invalid: %v", i, err)
				}
			}
		})
	}
}

// h0Reversed lists ExampleH0's vertex names in reverse index order.
func h0Reversed() []string {
	h := hypergraph.ExampleH0()
	names := make([]string, h.NumVertices())
	for v := range names {
		names[len(names)-1-v] = h.VertexName(v)
	}
	return names
}
