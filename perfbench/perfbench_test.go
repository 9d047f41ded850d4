package main

import (
	"bufio"
	"encoding/json"
	"math"
	"math/big"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"hypertree/internal/corpus"
	"hypertree/internal/hypergraph"
	"hypertree/internal/solve"
)

func TestQuantile(t *testing.T) {
	near := func(got, want float64) bool { return math.Abs(got-want) < 1e-9 }
	for _, c := range []struct{ a, b, x, want float64 }{
		{1, 1, 0.3, 0.3}, {2, 2, 0.5, 0.5}, {2, 1, 0.5, 0.25}, {1, 3, 0.5, 0.875},
	} {
		if got := betaInc(c.a, c.b, c.x); !near(got, c.want) {
			t.Errorf("betaInc(%v, %v, %v) = %v, want %v", c.a, c.b, c.x, got, c.want)
		}
	}
	xs := []float64{5, 1, 4, 2, 3}
	if got := quantile(xs, 0.5); !near(got, 3) {
		t.Errorf("median of a symmetric sample = %v, want 3", got)
	}
	if quantile(xs, 0) != 1 || quantile(xs, 1) != 5 {
		t.Errorf("quantile 0 and 1 must be the minimum and maximum")
	}
	if lo, hi := quantile(xs, 0.25), quantile(xs, 0.75); !(lo < 3 && hi > 3 && near(lo+hi, 6)) {
		t.Errorf("quartiles %v, %v of a symmetric sample", lo, hi)
	}
	if got := geomean([]float64{1, 10, 100}); !near(got, 10) {
		t.Errorf("geomean(1, 10, 100) = %v, want 10", got)
	}
}

func TestFingerprintFollowsSeed(t *testing.T) {
	spec := mixSpecs["mix-integral"]
	mixHash := func(seed int64) string {
		_, fp, err := genMix(spec, mixShapes, seed, 2)
		if err != nil {
			t.Fatal(err)
		}
		return fp.sum()
	}
	serveHash := func(seed int64) string {
		_, fp, err := genServe(seed, 50, serveBudget, false)
		if err != nil {
			t.Fatal(err)
		}
		return fp.sum()
	}
	for name, hash := range map[string]func(int64) string{"mix": mixHash, "serve": serveHash} {
		if a, b := hash(7), hash(7); a != b {
			t.Errorf("%s: same seed, different fingerprints %s and %s", name, a, b)
		}
		if a, b := hash(7), hash(8); a == b {
			t.Errorf("%s: seeds 7 and 8 share fingerprint %s", name, a)
		}
	}
}

// TestPresentationKeepsShape: a seeded presentation is isomorphic to the
// shape, so the reference widths hold for every seed.
func TestPresentationKeepsShape(t *testing.T) {
	insts := buildInstances(mixShapes, fixedRand(3))
	for i, s := range mixShapes {
		h := s.build()
		if got, want := profile(insts[i].h), profile(h); got != want {
			t.Errorf("%s: presentation profile %s, shape %s", s.name, got, want)
		}
	}
}

// profile summarises a hypergraph up to isomorphism: vertex and edge
// counts, sorted edge sizes and sorted vertex degrees.
func profile(h *hypergraph.Hypergraph) string {
	var sizes, degs []int
	for e := 0; e < h.NumEdges(); e++ {
		sizes = append(sizes, h.Edge(e).Count())
	}
	for v := 0; v < h.NumVertices(); v++ {
		degs = append(degs, len(h.EdgesWithVertex(v)))
	}
	sort.Ints(sizes)
	sort.Ints(degs)
	var b strings.Builder
	json.NewEncoder(&b).Encode([]any{h.NumVertices(), h.NumEdges(), sizes, degs})
	return b.String()
}

func TestReferenceTable(t *testing.T) {
	ref, err := loadRef("reference.tsv")
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.consistent(); err != nil {
		t.Error(err)
	}
	for _, s := range mixShapes {
		if _, ok := ref[s.name]; !ok {
			t.Errorf("no reference for %s", s.name)
		}
	}
	// Cross-check against the corpus golden widths (measured under the
	// corpus runner's default measure, ghw) where the instances overlap.
	golden := readGoldenWidths(t, filepath.Join("..", "testdata", "corpus", "GOLDEN.tsv"))
	overlap := map[string]string{"grid3x3": "grid_3x3.hg", "cycle7": "cycle_7.hg"}
	byName := map[string]shape{}
	for _, s := range mixShapes {
		byName[s.name] = s
	}
	for name, file := range overlap {
		data, err := os.ReadFile(filepath.Join("..", "testdata", "corpus", file))
		if err != nil {
			t.Fatal(err)
		}
		h, _, err := corpus.DecodeBytes(data)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := profile(h), profile(byName[name].build()); got != want {
			t.Errorf("%s and %s do not overlap: %s vs %s", name, file, got, want)
		}
		want, ok := new(big.Rat).SetString(golden[strings.TrimSuffix(file, ".hg")])
		if !ok {
			t.Fatalf("no golden width for %s", file)
		}
		if iv := ref[name][solve.GHW]; !iv.exact() || iv.lo.Cmp(want) != 0 {
			t.Errorf("%s: reference ghw [%s, %s], golden %s", name, iv.lo.RatString(), iv.hi.RatString(), want.RatString())
		}
	}
}

func readGoldenWidths(t *testing.T, path string) map[string]string {
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if fs := strings.Split(sc.Text(), "\t"); len(fs) > 1 && !strings.HasPrefix(fs[0], "#") {
			out[fs[0]] = fs[1]
		}
	}
	return out
}

// benchSpec is the part of BENCHMARK.json the smoke test checks.
type benchSpec struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSmoke runs one short pass of every workload at the 1 ms budget,
// untraced and traced, and checks that every registered metric is
// emitted with its unit and that every answer passes the gate.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs hgserve")
	}
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	ref, err := loadRef("reference.tsv")
	if err != nil {
		t.Fatal(err)
	}
	bin := buildServer(t)
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			cfg := runConfig{workload: w.Name, seed: 1, seconds: time.Second, trace: traced, smoke: true, hgserve: bin, ref: ref}
			res, _, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v (present %v), want unit %s", w.Name, traced, m.Name, got, ok, m.Unit)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics emitted, %d registered", w.Name, traced, len(res.Metrics), len(want))
			}
		}
	}
}

// TestGateFiresOnWrongReference: a deliberately wrong reference width
// turns exact answers into gate failures.
func TestGateFiresOnWrongReference(t *testing.T) {
	ref, err := loadRef("reference.tsv")
	if err != nil {
		t.Fatal(err)
	}
	ivs := ref["grid3x4"]
	wrong := big.NewRat(100, 1) // above any width a 12-vertex instance can have
	ivs[solve.HW] = interval{wrong, wrong}
	ref["grid3x4"] = ivs
	cfg := runConfig{workload: "mix-integral", seed: 1, seconds: time.Second, smoke: true, ref: ref}
	res, _, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Errorf("gate accepted every answer against a wrong grid3x4 hw reference: %+v", res)
	}
}

func buildServer(t *testing.T) string {
	bin := filepath.Join(t.TempDir(), "hgserve")
	cmd := exec.Command("go", "build", "-o", bin, "hypertree/cmd/hgserve")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build hgserve: %v\n%s", err, out)
	}
	return bin
}
