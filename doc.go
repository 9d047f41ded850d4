// Package hypertree is a Go reproduction of "General and Fractional
// Hypertree Decompositions: Hard and Easy Cases" (Fischl, Gottlob,
// Pichler; PODS 2018): hypergraph decomposition algorithms — Check(HD,k),
// Check(GHD,k) under bounded (multi-)intersections, Check(FHD,k) under
// bounded degree, fhw approximation schemes — together with the
// NP-hardness reduction of Theorem 3.2 and a decomposition-guided
// conjunctive-query evaluator.
//
// The implementation lives under internal/; see README.md for the map.
// The benchmarks in bench_test.go regenerate every table- and
// figure-shaped artifact of the paper (experiments E1–E14).
//
// The tractable Check(·,k) procedures all run on one cover-oracle
// engine (internal/core/engine.go): a memoized top-down (component,
// state) search that owns subproblem interning, cancellation, component
// splitting and witness reconstruction, parameterized by an oracle that
// chooses bag covers. The HD oracle guesses integral λ of ≤ k edges
// (special condition by construction); the GHD oracle runs the
// Theorem 4.11/4.15 subedge reduction with the pool generated lazily
// per subproblem scope — original edges are tried first and subedges
// are carved only from edges meeting the current scope, interned in a
// shared pool — instead of materializing the closure up front; the FHD
// oracle picks bounded supports over the same kind of lazily generated
// per-scope atom pool (f⁺ restricted to the scope, with the h_{d,k}
// closure as a capped fallback), with the exact cover LPs memoized on
// the interned support set; and Algorithm 3's frac-decomp oracle
// guesses integral-plus-fractional parts with trimmed witness bags.
// Every cover LP is built in one place, internal/cover's unexported
// coverLP, and solved float-first (lp.FloatProblem): a float64 simplex
// proposes an optimum and its duals, rounded to rationals, and an exact
// duality certificate in integer arithmetic accepts them. When it fails
// the same LP is solved cold by internal/lp's two-phase rational
// simplex (lp.Problem.Solve). cover.Incremental (a stack of atoms) and
// cover.TargetLP (the edges meeting a target) only choose the rows for
// the two access patterns the oracles produce, reusing their buffers
// across solves; cover.FractionalEdgeCover runs it once. The
// hypergraph core underneath is incidence-indexed: per-vertex edge
// bitsets back edges(C), [C]-components and single-edge cover
// detection; memo keys are interned integers; the exact-width DP and
// the rational LP keep big.Rat arithmetic out of their inner loops.
// PERFORMANCE.md documents the design and the measured speedups.
//
// On top of the algorithms, internal/solve is the serving layer: a
// preprocessing pipeline (empty/duplicate/subsumed edge removal, one
// DFS over the incidence graph splitting on the biconnected components
// of the primal graph), a concurrent
// portfolio that races clique lower bounds, iterative deepening on
// Check(HD,k)/Check(GHD,k) from the clique bound, the SAT ordering
// encoding (whose fhw variant prices bags with cover LPs) and min-fill
// upper bounds under context budgets with a shared incumbent, witness
// stitching (decomp.Combine) and a
// fingerprint-keyed result cache bounded by entries and by retained
// bytes. cmd/hgserve exposes it as an HTTP/JSON service (/width,
// /decompose, /healthz, and a streaming NDJSON /batch endpoint) with a
// worker pool and per-request budgets; cmd/hgwidth and the E12 corpus
// experiment drive it from the command line.
//
// internal/corpus opens the stack to HyperBench-shaped workloads (see
// CORPUS.md): the detkdecomp edge-list, PACE-2019 htd and JSON formats
// behind one auto-detecting fuzz-covered Decode/Encode API, and a
// sharded corpus runner with per-instance budgets, resumable JSONL
// results keyed by canonical fingerprints, and structural
// classification by the paper's tractable classes (acyclic, BIP, BMIP,
// BDP). cmd/hgcorpus runs, resumes and verifies whole corpora against
// golden width files; the checked-in testdata/corpus is the
// 30-instance reference.
package hypertree
