package cover

import (
	"math/big"
	"testing"

	"hypertree/internal/hypergraph"
	"hypertree/internal/lp"
)

// fuzzSet reads a 12-bit vertex set from two bytes.
func fuzzSet(lo, hi byte) hypergraph.VertexSet {
	mask := (uint64(lo) | uint64(hi)<<8) & 0xfff
	return hypergraph.VertexSet{mask}
}

// FuzzCoverLP drives coverLP, the package's one cover-LP solver, on
// byte-derived rows and a target over at most 12 vertices and 10 rows:
// the first two bytes are the target, each following pair a row. Rows
// may reach outside the target, which is the TargetLP shape. Under both
// settings of the float-path seam, the result must be nil exactly when
// some target vertex lies in no row. Otherwise the optimum must equal
// the primal-form reference, and the row weights must be non-negative,
// sum to it and cover every target vertex.
func FuzzCoverLP(f *testing.F) {
	f.Add([]byte{0x07, 0x00, 0x03, 0x00, 0x06, 0x00, 0x05, 0x00}) // triangle: 3/2
	f.Add([]byte{0x0f, 0x00, 0x13, 0x00, 0x2c, 0x00, 0xc1, 0x00}) // rows reach outside
	f.Add([]byte{0x0f, 0x00, 0x03, 0x00})                         // uncoverable
	f.Add([]byte{0x00, 0x00, 0xff, 0x0f})                         // empty target
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		target := fuzzSet(data[0], data[1])
		var rows []hypergraph.VertexSet
		union := hypergraph.NewVertexSet(12)
		for i := 2; i+1 < len(data) && len(rows) < 10; i += 2 {
			r := fuzzSet(data[i], data[i+1])
			rows = append(rows, r)
			union = union.UnionInPlace(r)
		}
		want := primalCover(rows, target.Vertices())
		if (want == nil) != !target.IsSubsetOf(union) {
			t.Fatalf("reference solvability disagrees with coverage: %v", want)
		}
		// One solver serves both paths, so the second solve runs on
		// buffers the first one sized.
		var c coverLP
		for _, float := range []bool{true, false} {
			old := floatFirst
			floatFirst = float
			got := c.solve(rows, target)
			floatFirst = old
			if (got == nil) != (want == nil) {
				t.Fatalf("float=%v: got %v, reference %v", float, got, want)
			}
			if got == nil {
				continue
			}
			if got.Cmp(want) != 0 {
				t.Fatalf("float=%v: optimum %s, reference %s", float, got.RatString(), want.RatString())
			}
			sum := new(big.Rat)
			for i := range rows {
				if c.weights[i].Sign() < 0 {
					t.Fatalf("float=%v: row %d has negative weight %s", float, i, c.weights[i].RatString())
				}
				sum.Add(sum, &c.weights[i])
			}
			if sum.Cmp(got) != 0 {
				t.Fatalf("float=%v: weights sum to %s, optimum %s", float, sum.RatString(), got.RatString())
			}
			one := lp.RI(1)
			target.ForEach(func(v int) bool {
				acc := new(big.Rat)
				for i, r := range rows {
					if r.Has(v) {
						acc.Add(acc, &c.weights[i])
					}
				}
				if acc.Cmp(one) < 0 {
					t.Fatalf("float=%v: vertex %d covered only %s", float, v, acc.RatString())
				}
				return true
			})
		}
	})
}
