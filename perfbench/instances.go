package main

// instances.go — the benchmark's instance set and its seeded
// presentation. The shapes follow HyperBench's classes (CQ chains,
// stars, cycles and snowflakes; random CQs and dense CSPs; grids,
// hypercycles, cliques, BIP and bounded-degree random hypergraphs) and
// are built with the repository's own generators. The random shapes use
// fixed family seeds, so every shape has one width, recorded in
// reference.tsv. The workload seed changes only the presentation: vertex
// and edge names, edge order, vertex order inside edges, and the order
// of operations. Widths are invariant under all of these, so one
// reference table serves every seed, while the search order inside the
// solver — and with it the work done — does change from seed to seed.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"

	"hypertree/internal/csp"
	"hypertree/internal/hypergraph"
)

// shape is one named, deterministic hypergraph of the instance set.
type shape struct {
	name  string
	build func() *hypergraph.Hypergraph
}

func fixedRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func grid(r, c int) shape {
	return shape{fmt.Sprintf("grid%dx%d", r, c), func() *hypergraph.Hypergraph { return hypergraph.Grid(r, c) }}
}

// mixShapes is the instance set of both solve mixes. Most shapes have
// more than 20 vertices, the exact DP's gate, so deepening, SAT and
// heuristic strategies decide them.
var mixShapes = []shape{
	grid(3, 4), grid(3, 5), grid(4, 4), grid(4, 5), grid(4, 6), grid(4, 7), grid(5, 5), grid(5, 6),
	{"hcycle12_3_1", func() *hypergraph.Hypergraph { return hypergraph.HyperCycle(12, 3, 1) }},
	{"hcycle10_4_2", func() *hypergraph.Hypergraph { return hypergraph.HyperCycle(10, 4, 2) }},
	{"clique6", func() *hypergraph.Hypergraph { return hypergraph.Clique(6) }},
	{"clique8", func() *hypergraph.Hypergraph { return hypergraph.Clique(8) }},
	{"bip24_a", func() *hypergraph.Hypergraph { return hypergraph.RandomBIP(fixedRand(101), 24, 16, 4, 1) }},
	{"bip22_b", func() *hypergraph.Hypergraph { return hypergraph.RandomBIP(fixedRand(102), 22, 14, 4, 2) }},
	{"bdeg24_a", func() *hypergraph.Hypergraph { return hypergraph.RandomBoundedDegree(fixedRand(201), 24, 14, 4, 3) }},
	{"bdeg24_b", func() *hypergraph.Hypergraph { return hypergraph.RandomBoundedDegree(fixedRand(202), 24, 14, 4, 3) }},
	{"chain_cq", func() *hypergraph.Hypergraph { return csp.ChainCQ(12, 3, 1).H }},
	{"star_cq", func() *hypergraph.Hypergraph { return csp.StarCQ(8, 3).H }},
	{"cycle_cq", func() *hypergraph.Hypergraph { return csp.CycleCQ(24).H }},
	{"snowflake_cq", func() *hypergraph.Hypergraph { return csp.SnowflakeCQ(3, 2).H }},
	{"rand_cq_a", func() *hypergraph.Hypergraph { return csp.RandomCQ(fixedRand(301), 14, 22, 4).H }},
	{"rand_cq_b", func() *hypergraph.Hypergraph { return csp.RandomCQ(fixedRand(302), 14, 22, 4).H }},
	{"rand_csp_a", func() *hypergraph.Hypergraph { return csp.RandomCSP(fixedRand(401), 16, 20, 4).H }},
	{"rand_csp_b", func() *hypergraph.Hypergraph { return csp.RandomCSP(fixedRand(402), 16, 20, 4).H }},
	grid(6, 6), grid(5, 8),
	{"csp24", func() *hypergraph.Hypergraph { return csp.RandomCSP(fixedRand(404), 24, 24, 5).H }},
	grid(3, 3),
	{"cycle7", func() *hypergraph.Hypergraph { return hypergraph.Cycle(7) }},
}

// instance is one shape in one seeded presentation: the text a caller
// would send, and the hypergraph decoded from it.
type instance struct {
	shape string
	text  string // edge-list encoding, the canonical input of the op
	h     *hypergraph.Hypergraph
}

// present gives h fresh vertex and edge names under rng. With reorder
// it also permutes the edge order and the vertex order inside each
// edge, which changes the solver's search order and the cache key;
// without, the solver sees the same structure under new names. The
// result is isomorphic to h either way.
func present(h *hypergraph.Hypergraph, rng *rand.Rand, prefix string, reorder bool) *hypergraph.Hypergraph {
	vnames := make([]string, h.NumVertices())
	for i, p := range rng.Perm(len(vnames)) {
		vnames[i] = fmt.Sprintf("%s%d", prefix, p)
	}
	order := make([]int, h.NumEdges())
	for i := range order {
		order[i] = i
	}
	if reorder {
		order = rng.Perm(h.NumEdges())
	}
	out := hypergraph.New()
	for i, e := range order {
		vs := h.Edge(e).Vertices()
		if reorder {
			rng.Shuffle(len(vs), func(a, b int) { vs[a], vs[b] = vs[b], vs[a] })
		}
		names := make([]string, len(vs))
		for j, v := range vs {
			names[j] = vnames[v]
		}
		out.AddEdge(fmt.Sprintf("r%d", i), names...)
	}
	return out
}

// edgeListText is the edge-list encoding "r0(a,b), r1(b,c)." in edge
// order; it is also the canonical encoding the fingerprint hashes.
func edgeListText(h *hypergraph.Hypergraph) string {
	var b strings.Builder
	for e := 0; e < h.NumEdges(); e++ {
		if e > 0 {
			b.WriteString(", ")
		}
		b.WriteString(h.EdgeName(e))
		b.WriteByte('(')
		b.WriteString(strings.Join(h.VertexNames(h.Edge(e)), ","))
		b.WriteByte(')')
	}
	b.WriteByte('.')
	return b.String()
}

// buildInstances renames every shape once under rng, keeping its
// structure order.
func buildInstances(shapes []shape, rng *rand.Rand) []instance {
	out := make([]instance, len(shapes))
	for i, s := range shapes {
		h := present(s.build(), rng, "x", false)
		out[i] = instance{shape: s.name, text: edgeListText(h), h: h}
	}
	return out
}

// fingerprint hashes the canonical encodings of the inputs and the
// schedule lines, so two result sets provably measured the same inputs.
type fingerprint struct{ lines []string }

func (f *fingerprint) add(format string, args ...any) {
	f.lines = append(f.lines, fmt.Sprintf(format, args...))
}

func (f *fingerprint) sum() string {
	h := sha256.New()
	for _, l := range f.lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
