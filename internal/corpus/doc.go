// Package corpus is the workload layer over internal/solve: multi-format
// hypergraph I/O and a resumable, sharded corpus runner in the style of
// the HyperBench study that grounds the paper empirically (Fischl,
// Gottlob, Longo, Pichler 2018).
//
// # Formats
//
// Three on-disk formats are supported behind one auto-detecting API:
//
//   - FormatEdgeList — the HyperBench/detkdecomp text format the library
//     has always spoken: "e1(a,b,c), e2(c,d)." with %, # or // comments.
//   - FormatPACE — the PACE-2019-style htd format: "c" comment lines, a
//     "p htd <vertices> <edges>" header, then one line per hyperedge
//     "<edge-id> <v1> <v2> ...", all 1-based integers.
//   - FormatJSON — a structured form, {"edges": [{"name": "e1",
//     "vertices": ["a","b"]}, ...]} (a bare edge array also decodes).
//
// Decode sniffs the format from the content; DecodeAs and Encode pin it.
// Fuzz targets (FuzzDecode*) exercise all three decoders.
//
// # Runner
//
// A corpus is a set of instances discovered by walking a directory
// (LoadDir) or reading an index file (LoadIndex). Run shards the
// instances over parallel workers, solves each through a solve.Solver
// under a per-instance budget, and appends one JSON line per finished
// instance to a results log. The log is the resume point: a rerun with
// Resume set skips every instance whose canonical fingerprint already
// has an exact result in the log, so a killed run loses at most the
// instances that were in flight. Each record also classifies its
// instance by the paper's tractable classes — acyclicity, iwidth
// (BIP, Definition 4.1), 3-multi-intersection width (BMIP, Definition
// 4.2) and degree (BDP, Definition 4.13) — so a finished run doubles as
// a HyperBench-style structural study (see Report and CompareGolden).
// Computed records additionally carry the solve's telemetry — the
// winning strategy's k-trajectory and the engine/LP/cache counter
// snapshot (OBSERVABILITY.md) — as optional fields old logs lack and
// resume ignores.
//
// RunLoaded runs instances already decoded in memory through the same
// sharded loop, with the same completion and Progress bookkeeping, but
// records only what its callers read: each instance's size, time and
// bounds, from an untraced solve behind the caller's Gate. It computes
// no fingerprint or classification and writes no log.
//
// cmd/hgcorpus drives Run from the command line; cmd/hgserve's
// streaming /batch endpoint and hgbench's E12 use RunLoaded.
package corpus
