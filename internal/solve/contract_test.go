// contract_test.go — the solve-level differential soundness suite
// (external package: it loads instances through internal/corpus, which
// imports internal/solve). For every corpus instance with a known exact
// ghw it asserts Lower ≤ exact ≤ Upper under a generous budget, and
// that under a ~1ms budget every record still carries a full interval
// with provenance — zero interval-less results.
package solve_test

import (
	"bufio"
	"context"
	"math/big"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hypertree/internal/corpus"
	"hypertree/internal/lp"
	"hypertree/internal/solve"
)

const contractCorpusDir = "../../testdata/corpus"

func contractGolden(t *testing.T) map[string]int {
	t.Helper()
	f, err := os.Open(filepath.Join(contractCorpusDir, "GOLDEN.tsv"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string]int{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Split(line, "\t")
		if len(fields) < 2 {
			t.Fatalf("bad golden line %q", line)
		}
		w, ok := new(big.Rat).SetString(fields[1])
		if !ok || !w.IsInt() {
			t.Fatalf("bad golden width %q", fields[1])
		}
		out[fields[0]] = int(w.Num().Int64())
	}
	return out
}

// TestSolveIntervalBracketsGolden: the certified interval brackets the
// known exact ghw on every golden corpus instance, and ghw ≥ fhw holds
// against the fhw interval's lower end.
func TestSolveIntervalBracketsGolden(t *testing.T) {
	golden := contractGolden(t)
	ins, err := corpus.LoadDir(contractCorpusDir)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, in := range ins {
		exact, ok := golden[in.Name]
		if !ok {
			continue
		}
		h, _, err := in.Read()
		if err != nil {
			t.Fatalf("%s: %v", in.Name, err)
		}
		want := lp.RI(int64(exact))
		r, err := solve.Solve(ctx, h, solve.Options{Measure: solve.GHW, Validate: true, Timeout: 30 * time.Second})
		if err != nil {
			t.Fatalf("%s: %v", in.Name, err)
		}
		if r.Upper == nil || r.Lower == nil {
			t.Fatalf("%s: interval-less result", in.Name)
		}
		if r.Lower.Cmp(want) > 0 || r.Upper.Cmp(want) < 0 {
			t.Fatalf("%s: interval [%s, %s] does not bracket exact ghw %d",
				in.Name, r.Lower.RatString(), r.Upper.RatString(), exact)
		}
		rf, err := solve.Solve(ctx, h, solve.Options{Measure: solve.FHW, Validate: true, Timeout: 30 * time.Second})
		if err != nil {
			t.Fatalf("%s: fhw: %v", in.Name, err)
		}
		if rf.Upper == nil || rf.Lower == nil {
			t.Fatalf("%s: fhw interval-less result", in.Name)
		}
		if rf.Lower.Cmp(want) > 0 {
			t.Fatalf("%s: fhw lower bound %s exceeds ghw %d", in.Name, rf.Lower.RatString(), exact)
		}
	}
}

// TestSolveIntervalUnderPressure: with a ~1ms budget per instance the
// response contract still holds corpus-wide — every result has a
// non-nil bracket, a witness, and a provenance; none reads as exact
// without being so.
func TestSolveIntervalUnderPressure(t *testing.T) {
	ins, err := corpus.LoadDir(contractCorpusDir)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, in := range ins {
		h, _, err := in.Read()
		if err != nil {
			t.Fatalf("%s: %v", in.Name, err)
		}
		r, err := solve.Solve(ctx, h, solve.Options{Measure: solve.FHW, Timeout: time.Millisecond})
		if err != nil {
			t.Fatalf("%s: %v", in.Name, err)
		}
		if r.Upper == nil || r.Lower == nil || r.Witness == nil {
			t.Fatalf("%s: interval-less record under pressure: %+v", in.Name, r)
		}
		if r.Provenance == "" {
			t.Fatalf("%s: missing provenance", in.Name)
		}
		if !r.Exact && r.Provenance == solve.ProvExact {
			t.Fatalf("%s: inexact record claims exact provenance", in.Name)
		}
		if r.Lower.Cmp(r.Upper) > 0 {
			t.Fatalf("%s: inverted interval [%s, %s]", in.Name, r.Lower.RatString(), r.Upper.RatString())
		}
	}
}

// TestGHWDetkLaneDifferential is the soundness differential for the
// detk upper-bound lane of the ghw race. With the exact DP and sat-ord
// gated off, bip, detk, minfill and approx race on every golden corpus
// instance; a detk witness may close the race only against a lower
// bound proven by another lane, so every result must be exact and equal
// to the golden ghw, serially and with intra-solve workers.
func TestGHWDetkLaneDifferential(t *testing.T) {
	golden := contractGolden(t)
	ins, err := corpus.LoadDir(contractCorpusDir)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, in := range ins {
		exact, ok := golden[in.Name]
		if !ok {
			continue
		}
		h, _, err := in.Read()
		if err != nil {
			t.Fatalf("%s: %v", in.Name, err)
		}
		want := lp.RI(int64(exact))
		for _, par := range []int{1, 2} {
			r, err := solve.Solve(ctx, h, solve.Options{
				Measure: solve.GHW, ExactVertexLimit: 1, SATOrdLimit: -1,
				Validate: true, Parallelism: par, Timeout: 30 * time.Second,
			})
			if err != nil {
				t.Fatalf("%s parallelism %d: %v", in.Name, par, err)
			}
			if !r.Exact || r.Upper.Cmp(want) != 0 || r.Lower.Cmp(want) != 0 {
				t.Fatalf("%s parallelism %d: [%v, %v] exact=%v by %s, want exact ghw %d",
					in.Name, par, r.Lower, r.Upper, r.Exact, r.Strategy, exact)
			}
		}
	}
}
