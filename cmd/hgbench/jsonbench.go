package main

// jsonbench.go — machine-readable benchmark records. `hgbench -json
// FILE` bypasses the experiment suite and instead runs the
// Check(·,k)-dominated engine benchmarks through testing.Benchmark,
// writing one JSON document with the environment stamped in, so CI and
// PR text can cite committed BENCH_*.json records instead of pasted
// terminal output. The benchmark set mirrors the engine-incrementality
// rows of bench_test.go: decision checks over the grid family for the
// three measures, plus an FHD deepening loop. The GHWDeepen pairs race the
// sat-ord incremental CDCL sweep against the engine's Check(GHD,k)
// deepening on the same mid-size grids.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"testing"
	"time"

	"hypertree/internal/approx"
	"hypertree/internal/core"
	"hypertree/internal/hypergraph"
	"hypertree/internal/lp"
	"hypertree/internal/ordenc"
)

// benchRecord is one benchmark result row.
type benchRecord struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	Iterations  int     `json:"iterations"`
}

// benchSchema versions the BENCH_*.json document layout. Version 1 is
// the original (implicit, field absent); version 2 adds the schema
// field itself and the GOMAXPROCS/NumCPU host metadata. Readers treat
// an absent field as 1, so committed version-1 records stay readable.
const benchSchema = 2

// benchDocument is the schema of a BENCH_*.json file.
type benchDocument struct {
	Schema     int           `json:"schema,omitempty"`
	GitRev     string        `json:"git_rev"`
	Date       string        `json:"date"`
	GoVersion  string        `json:"go_version"`
	GOOS       string        `json:"goos"`
	GOARCH     string        `json:"goarch"`
	GOMAXPROCS int           `json:"gomaxprocs,omitempty"`
	NumCPU     int           `json:"num_cpu,omitempty"`
	Records    []benchRecord `json:"records"`
}

// jsonBenchSet returns the named engine benchmarks measured by -json.
func jsonBenchSet() []struct {
	name string
	fn   func(b *testing.B)
} {
	return []struct {
		name string
		fn   func(b *testing.B)
	}{
		{"CheckHD/grid2x4", func(b *testing.B) {
			g := hypergraph.Grid(2, 4)
			for i := 0; i < b.N; i++ {
				if core.CheckHD(g, 3) == nil {
					b.Fatal("grid 2x4 has hw ≤ 3")
				}
			}
		}},
		{"CheckGHDViaBIP/grid2x4", func(b *testing.B) {
			g := hypergraph.Grid(2, 4)
			for i := 0; i < b.N; i++ {
				d, err := core.CheckGHDViaBIP(g, 2, core.Options{})
				if err != nil || d == nil {
					b.Fatal("grid 2x4 has ghw 2")
				}
			}
		}},
		{"CheckGHDViaBIP/grid2x6", func(b *testing.B) {
			g := hypergraph.Grid(2, 6)
			for i := 0; i < b.N; i++ {
				d, err := core.CheckGHDViaBIP(g, 2, core.Options{})
				if err != nil || d == nil {
					b.Fatal("grid 2x6 has ghw 2")
				}
			}
		}},
		{"CheckFHD/grid2x3", func(b *testing.B) {
			g := hypergraph.Grid(2, 3)
			k := lp.RI(2)
			for i := 0; i < b.N; i++ {
				d, err := core.CheckFHD(g, k, core.FHDOptions{})
				if err != nil || d == nil {
					b.Fatal("grid 2x3 has fhw ≤ 2")
				}
			}
		}},
		{"FHDDeepen", benchFHDDeepen},
		{"GHWDeepen/grid4x6/sat-ord", func(b *testing.B) { benchSATOrdDeepen(b, 4, 6) }},
		{"GHWDeepen/grid4x6/engine", func(b *testing.B) { benchEngineDeepen(b, 4, 6) }},
		{"GHWDeepen/grid4x7/sat-ord", func(b *testing.B) { benchSATOrdDeepen(b, 4, 7) }},
		{"GHWDeepen/grid4x7/engine", func(b *testing.B) { benchEngineDeepen(b, 4, 7) }},
		{"ApproxLadder/grid4x5/logn", func(b *testing.B) { benchApproxLadder(b, false) }},
		{"ApproxLadder/grid4x5/logn+improve", func(b *testing.B) { benchApproxLadder(b, true) }},
		{"ApproxLadder/grid4x5/minfill+improve", benchApproxImproveMinFill},
	}
}

// gridGHW is the generalized hypertree width of the 4×n grids the
// deepening legs sweep; both benches assert it.
const gridGHW = 3

// benchSATOrdDeepen — PR 9: the full sat-ord ghw deepening sweep on a
// mid-size grid (reject below gridGHW, accept at it), one incremental
// CDCL solver carrying learned clauses across the levels. Paired with
// benchEngineDeepen on the same instance, the committed records show
// the ordering strategy winning the 24–28 vertex grids outright.
func benchSATOrdDeepen(b *testing.B, rows, cols int) {
	g := hypergraph.Grid(rows, cols)
	for i := 0; i < b.N; i++ {
		s, err := ordenc.NewGHWSearch(g, gridGHW)
		if err != nil {
			b.Fatal(err)
		}
		for k := 1; ; k++ {
			d, err := s.Check(nil, k)
			if err != nil {
				b.Fatal(err)
			}
			if d != nil {
				if k != gridGHW {
					b.Fatalf("accepted at %d, want %d", k, gridGHW)
				}
				break
			}
		}
	}
}

// benchEngineDeepen is the engine-side twin: the same deepening sweep
// through Check(GHD,k) via BIP subedges.
func benchEngineDeepen(b *testing.B, rows, cols int) {
	g := hypergraph.Grid(rows, cols)
	for i := 0; i < b.N; i++ {
		for k := 1; ; k++ {
			d, err := core.CheckGHDViaBIP(g, k, core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			if d != nil {
				if k != gridGHW {
					b.Fatalf("accepted at %d, want %d", k, gridGHW)
				}
				break
			}
		}
	}
}

// benchFHDDeepen drives the iterative-deepening FHD loop on a grid —
// reject at k=1, accept at k=2.
func benchFHDDeepen(b *testing.B) {
	g := hypergraph.Grid(2, 3)
	for i := 0; i < b.N; i++ {
		var accepted bool
		for k := 1; k <= 2; k++ {
			d, err := core.CheckFHD(g, lp.RI(int64(k)), core.FHDOptions{})
			if err != nil {
				b.Fatal(err)
			}
			if d != nil {
				accepted = k == 2
				break
			}
		}
		if !accepted {
			b.Fatal("grid 2x3 must reject at 1 and accept at 2")
		}
	}
}

// benchApproxLadder — PR 10: the anytime approximation ladder on a
// mid-size grid. The logn leg is the recursive balanced-separator
// construction alone; logn+improve chains the local-improvement passes
// the portfolio runs on every incumbent.
func benchApproxLadder(b *testing.B, improve bool) {
	g := hypergraph.Grid(4, 5)
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		d, _, err := approx.LogN(ctx, g, approx.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if improve {
			if _, _, err := approx.Improve(ctx, g, d, approx.ImproveOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// benchApproxImproveMinFill measures the improvement passes over the
// min-fill incumbent — the portfolio's minfill → local-improve chain.
func benchApproxImproveMinFill(b *testing.B) {
	g := hypergraph.Grid(4, 5)
	_, d := core.MinFillFHD(g)
	if d == nil {
		b.Fatal("min-fill failed")
	}
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		if _, _, err := approx.Improve(ctx, g, d, approx.ImproveOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// gitRev returns the short HEAD revision, or "unknown" outside a
// checkout.
func gitRev() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// runJSONBench measures the engine benchmark set and writes the record
// document to path.
func runJSONBench(path string) error {
	doc := benchDocument{
		Schema:     benchSchema,
		GitRev:     gitRev(),
		Date:       time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
	for _, bm := range jsonBenchSet() {
		fmt.Fprintf(os.Stderr, "bench %-24s ", bm.name)
		r := testing.Benchmark(bm.fn)
		doc.Records = append(doc.Records, benchRecord{
			Name:        bm.name,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			Iterations:  r.N,
		})
		fmt.Fprintf(os.Stderr, "%12.0f ns/op %10d B/op %8d allocs/op\n",
			float64(r.T.Nanoseconds())/float64(r.N), r.AllocedBytesPerOp(), r.AllocsPerOp())
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
