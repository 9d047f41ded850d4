package hypergraph

import (
	"fmt"
	"testing"
)

// TestTwoColouring: grids, even cycles, paths and graphs with singleton
// edges colour, and their colourings pass the checker; odd cycles and
// rank-3 hypergraphs do not colour.
func TestTwoColouring(t *testing.T) {
	for _, tc := range []struct {
		name string
		h    *Hypergraph
		want bool
	}{
		{"grid4x5", Grid(4, 5), true},
		{"cycle6", Cycle(6), true},
		{"path5", Path(5), true},
		{"singletons", MustParse("e1(a,b), e2(b), e3(b,c), e4(d)"), true},
		{"empty", New(), true},
		{"cycle7", Cycle(7), false},
		{"triangle", Clique(3), false},
		{"hypercycle", HyperCycle(4, 3, 1), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			colour, ok := tc.h.TwoColouring()
			if ok != tc.want {
				t.Fatalf("TwoColouring ok = %v, want %v", ok, tc.want)
			}
			if !ok {
				return
			}
			if err := CheckTwoColouring(tc.h, colour); err != nil {
				t.Fatalf("own colouring rejected: %v", err)
			}
		})
	}
}

// TestCheckTwoColouringRejects: the checker refuses a tampered
// colouring, any colouring of an odd cycle, a rank-3 edge and a
// colouring of the wrong length.
func TestCheckTwoColouringRejects(t *testing.T) {
	g := Grid(3, 3)
	colour, ok := g.TwoColouring()
	if !ok {
		t.Fatal("grid3x3 did not colour")
	}
	colour[4] = !colour[4]
	if CheckTwoColouring(g, colour) == nil {
		t.Error("tampered grid colouring accepted")
	}
	c7 := Cycle(7)
	alt := make([]bool, 7)
	for v := range alt {
		alt[v] = v%2 == 1
	}
	if CheckTwoColouring(c7, alt) == nil {
		t.Error("odd cycle colouring accepted")
	}
	if CheckTwoColouring(MustParse("e1(a,b,c)"), []bool{false, true, false}) == nil {
		t.Error("rank-3 edge accepted")
	}
	if CheckTwoColouring(Cycle(4), []bool{false, true}) == nil {
		t.Error("short colouring accepted")
	}
}

// FuzzTwoColouring compares TwoColouring and CheckTwoColouring against
// brute force over every colouring of byte-derived hypergraphs with at
// most 12 vertices and edges of one to three vertices.
func FuzzTwoColouring(f *testing.F) {
	f.Add([]byte{4, 4, 0, 1, 1, 2, 2, 3, 3, 0, 5})
	f.Add([]byte{3, 3, 0, 1, 1, 2, 2, 0, 1})
	f.Add([]byte{6, 2, 0, 1, 2, 3, 4, 5, 0x42})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		nv := 1 + int(data[0]%12)
		ne := int(data[1] % 16)
		data = data[2:]
		pos := 0
		next := func() int {
			b := data[pos%len(data)]
			pos++
			return int(b)
		}
		h := New()
		for v := 0; v < nv; v++ {
			h.Vertex(fmt.Sprintf("v%d", v))
		}
		masks := make([]uint16, ne)
		for e := range masks {
			size := 1 + next()%3
			if next()%4 != 0 {
				size = min(size, 2)
			}
			s := NewVertexSet(nv)
			for j := 0; j < size; j++ {
				v := next() % nv
				s.Add(v)
				masks[e] |= 1 << v
			}
			h.AddEdgeSet(fmt.Sprintf("e%d", e), s)
		}
		// proper reports whether colouring mask c (bit v set = colour
		// true) is a certificate: rank ≤ 2 and every 2-edge bichromatic.
		proper := func(c uint16) bool {
			for _, m := range masks {
				switch popcount(m) {
				case 0, 1:
				case 2:
					if popcount(m&c) != 1 {
						return false
					}
				default:
					return false
				}
			}
			return true
		}
		exists := false
		for c := uint16(0); c < 1<<nv; c++ {
			if proper(c) {
				exists = true
				break
			}
		}
		colour, ok := h.TwoColouring()
		if ok != exists {
			t.Fatalf("TwoColouring ok = %v, brute force says %v", ok, exists)
		}
		if ok {
			if err := CheckTwoColouring(h, colour); err != nil {
				t.Fatalf("own colouring rejected: %v", err)
			}
		}
		probe := uint16(next()) | uint16(next())<<8
		probe &= 1<<nv - 1
		given := make([]bool, nv)
		for v := range given {
			given[v] = probe&(1<<v) != 0
		}
		if got := CheckTwoColouring(h, given) == nil; got != proper(probe) {
			t.Fatalf("CheckTwoColouring(%b) accepted = %v, brute force says %v", probe, got, proper(probe))
		}
	})
}

func popcount(m uint16) int {
	n := 0
	for ; m != 0; m &= m - 1 {
		n++
	}
	return n
}
