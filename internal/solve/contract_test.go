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
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hypertree/internal/core"
	"hypertree/internal/corpus"
	"hypertree/internal/cover"
	"hypertree/internal/hypergraph"
	"hypertree/internal/lp"
	"hypertree/internal/solve"
	"hypertree/internal/telemetry"
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
// det-k-decomp (Check(HD,k)) upper bounds of the ghw race, which the
// probe supplies. With sat-ord gated off, bip, minfill and probe race on
// every golden corpus instance; a probe witness may close the race only
// against a lower bound proven by another lane, so every result must be
// exact and equal to the golden ghw.
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
		r, err := solve.Solve(ctx, h, solve.Options{
			Measure: solve.GHW, SATOrdLimit: -1,
			Validate: true, Timeout: 30 * time.Second,
		})
		if err != nil {
			t.Fatalf("%s: %v", in.Name, err)
		}
		if !r.Exact || r.Upper.Cmp(want) != 0 || r.Lower.Cmp(want) != 0 {
			t.Fatalf("%s: [%v, %v] exact=%v by %s, want exact ghw %d",
				in.Name, r.Lower, r.Upper, r.Exact, r.Strategy, exact)
		}
	}
}

// TestFloatCertificateCoversInRepoLPs guards the premise that the cover
// LPs need no warm-started rational engine: on the in-repo fhw traffic
// every counted cover LP is answered float-first under the exact
// certificate, and the cold rational fallback never runs. The traffic
// is a traced fhw Solve of every golden corpus instance, where the
// LP-pricing lanes do the work, plus the CheckFHD inputs of hgbench's
// E08. The corpus leg must solve cover LPs on its own: its bipartite
// instances run the integral ghw race, so the non-bipartite ones carry
// it. If this fails, the fallback is on a measured path and its cost
// needs measuring.
func TestFloatCertificateCoversInRepoLPs(t *testing.T) {
	golden := contractGolden(t)
	ins, err := corpus.LoadDir(contractCorpusDir)
	if err != nil {
		t.Fatal(err)
	}
	var c telemetry.Counters
	for _, in := range ins {
		if _, ok := golden[in.Name]; !ok {
			continue
		}
		h, _, err := in.Read()
		if err != nil {
			t.Fatalf("%s: %v", in.Name, err)
		}
		ctx, tr := telemetry.WithTrace(context.Background())
		r, err := solve.Solve(ctx, h, solve.Options{Measure: solve.FHW, Timeout: 30 * time.Second})
		if err != nil || !r.Exact {
			t.Fatalf("%s: %v, exact=%v", in.Name, err, r.Exact)
		}
		s := tr.Summary().Counters
		c.LPSolves += s.LPSolves
		c.LPFloat += s.LPFloat
		c.LPCold += s.LPCold
	}
	if c.LPSolves == 0 {
		t.Fatal("the corpus leg solved no cover LPs")
	}
	corpusSolves := c.LPSolves
	// hgbench E08 at its default seed: CheckFHD at and just below the
	// exact fhw of random bounded-degree hypergraphs.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 4; i++ {
		h := hypergraph.RandomBoundedDegree(rng, 7, 5, 3, 2)
		fhw, _ := core.ExactFHW(h)
		if fhw == nil {
			continue
		}
		basis := cover.NewBasisCache(0)
		for _, k := range []*big.Rat{fhw, new(big.Rat).Sub(fhw, lp.R(1, 100))} {
			if _, err := core.CheckFHD(h, k, core.FHDOptions{Basis: basis}); err != nil {
				t.Fatal(err)
			}
		}
		ls := basis.LPStats()
		c.LPSolves += int64(ls.Solves)
		c.LPFloat += int64(ls.FloatSolves)
		c.LPCold += int64(ls.ColdStarts)
	}
	if c.LPSolves == 0 || c.LPCold != 0 || c.LPFloat != c.LPSolves {
		t.Fatalf("cover LPs: solves=%d float=%d cold=%d, want every solve float-first",
			c.LPSolves, c.LPFloat, c.LPCold)
	}
	t.Logf("cover LPs: %d solves (corpus %d, E08 %d), all float-first",
		c.LPSolves, corpusSolves, c.LPSolves-corpusSolves)
}
