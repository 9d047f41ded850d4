package decomp

import (
	"fmt"
	"testing"

	"hypertree/internal/cover"
	"hypertree/internal/hypergraph"
)

// TestMinFillOrderChordal: on a chordal graph min-fill always finds a
// simplicial vertex, so it adds no fill and the largest elimination bag
// is a maximum clique.
func TestMinFillOrderChordal(t *testing.T) {
	star := hypergraph.New()
	for i := 1; i <= 5; i++ {
		star.AddEdge(fmt.Sprintf("e%d", i), "c", fmt.Sprintf("l%d", i))
	}
	fan := hypergraph.New() // hub joined to every vertex of a path
	for i := 1; i <= 5; i++ {
		fan.AddEdge(fmt.Sprintf("s%d", i), "hub", fmt.Sprintf("p%d", i))
		if i > 1 {
			fan.AddEdge(fmt.Sprintf("t%d", i), fmt.Sprintf("p%d", i-1), fmt.Sprintf("p%d", i))
		}
	}
	cases := []struct {
		name   string
		h      *hypergraph.Hypergraph
		clique int
	}{
		{"path", hypergraph.Path(7), 2},
		{"star", star, 2},
		{"clique", hypergraph.Clique(6), 6},
		{"fan", fan, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			adj := tc.h.AdjacencyMatrix()
			edges := 0
			for _, s := range adj {
				edges += s.Count()
			}
			order := MinFillOrder(adj, nil)
			if len(order) != tc.h.NumVertices() {
				t.Fatalf("order has %d vertices, want %d", len(order), tc.h.NumVertices())
			}
			fillEdges, largest := 0, 0
			for _, b := range EliminationBags(adj, order) {
				fillEdges += b.Count() - 1
				largest = max(largest, b.Count())
			}
			// Without fill every primal edge is counted once, by the
			// bag of its earlier-eliminated endpoint.
			if fillEdges != edges/2 {
				t.Fatalf("bags hold %d edges, the primal graph %d: fill was added", fillEdges, edges/2)
			}
			if largest != tc.clique {
				t.Fatalf("largest bag = %d, want clique number %d", largest, tc.clique)
			}
		})
	}
}

// TestMinFillOrderCanceled: a fired done channel yields no order.
func TestMinFillOrderCanceled(t *testing.T) {
	done := make(chan struct{})
	close(done)
	if order := MinFillOrder(hypergraph.Clique(4).AdjacencyMatrix(), done); order != nil {
		t.Fatalf("order = %v after cancellation, want nil", order)
	}
}

// FuzzEliminationTree: for any hypergraph and any elimination ordering —
// min-fill's or an arbitrary permutation — the assembled tree with
// integral bag covers is a valid GHD whose parents all lie at later
// positions.
func FuzzEliminationTree(f *testing.F) {
	f.Add([]byte{4, 0, 1, 1, 2, 2, 3, 3, 0})
	f.Add([]byte{6, 0, 1, 2, 7, 3, 4, 5, 0, 9, 9})
	f.Add([]byte{12, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 0, 5, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := 1 + int(data[0])%12
		h := hypergraph.New()
		names := make([]string, n)
		for v := range names {
			names[v] = fmt.Sprintf("v%d", v)
			h.Vertex(names[v])
		}
		// Each further pair of bytes is an edge: a start vertex and a
		// membership mask over the next vertices.
		rest := data[1:]
		for i := 0; i+1 < len(rest) && h.NumEdges() < 16; i += 2 {
			vs := []string{names[int(rest[i])%n]}
			for j := 0; j < 8; j++ {
				if rest[i+1]&(1<<j) != 0 {
					vs = append(vs, names[(int(rest[i])+j+1)%n])
				}
			}
			h.AddEdge(fmt.Sprintf("e%d", h.NumEdges()), vs...)
		}
		for v := 0; v < n; v++ {
			if len(h.EdgesWithVertex(v)) == 0 {
				h.AddEdge(fmt.Sprintf("iso%d", v), names[v])
			}
		}
		perm := make([]int, n)
		for i := range perm {
			perm[i] = i
		}
		for i := n - 1; i > 0; i-- {
			j := int(data[i%len(data)]) % (i + 1)
			perm[i], perm[j] = perm[j], perm[i]
		}
		adj := h.AdjacencyMatrix()
		for _, order := range [][]int{perm, MinFillOrder(adj, nil)} {
			bags := EliminationBags(adj, order)
			parents := EliminationParents(order, bags)
			covers := make([]cover.Fractional, n)
			for i, b := range bags {
				if covers[i] = cover.IntegralCover(h, b, n); covers[i] == nil {
					t.Fatalf("order %v: bag %d uncoverable", order, i)
				}
			}
			for i, p := range parents {
				if (i == n-1) != (p < 0) || (p >= 0 && p <= i) {
					t.Fatalf("order %v: parent of position %d is %d", order, i, p)
				}
			}
			if err := FromElimination(h, bags, parents, covers).Validate(GHD); err != nil {
				t.Fatalf("order %v: %v", order, err)
			}
		}
	})
}
