package main

// serve.go — the serve-zipf workload: an open loop at a fixed seeded
// rate against the real hgserve binary on loopback. Requests mix
// Zipf-popular instances (cached after warm-up), renamed twins of them
// (cache hits through witness translation), fresh presentations the
// cache has never seen (misses at the 100 ms budget) and 1 ms requests
// on large instances (time to the first certified interval). Arrivals
// are evenly spaced; see run for how latency is timed.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"hypertree/internal/corpus"
	"hypertree/internal/csp"
	"hypertree/internal/decomp"
	"hypertree/internal/hypergraph"
	"hypertree/internal/solve"
	"hypertree/internal/telemetry"
)

const (
	// serveRate is the offered load. On a 2-CPU host hgserve saturates
	// near 370 requests/s on this mix, but p99 stays within the 100 ms
	// budget only up to somewhere between 60 and 120 requests/s; 40 is
	// about half the highest rate that holds that limit.
	serveRate    = 40.0 // requests per second
	serveConns   = 2
	serveBudget  = 100 * time.Millisecond
	warmBudget   = 2 * time.Second
	serveSetups  = 7 // server starts per run; setup_s is their median
	smokeServeOp = 40
)

// classBlock returns the next 50 request classes in a seeded order: the
// stream is 58% popular, 10% twins, 12% misses and 20% 1 ms probes in
// every block, not just on average. The probe share gives the time to
// the first interval 240 samples per 30 s run.
func classBlock(rng *rand.Rand) []string {
	var b []string
	for _, c := range []struct {
		class string
		n     int
	}{{"popular", 29}, {"twin", 5}, {"miss", 6}, {"probe", 10}} {
		for i := 0; i < c.n; i++ {
			b = append(b, c.class)
		}
	}
	rng.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
	return b
}

// popularShapes solve exactly within the warm-up budget under every
// measure, so after warm-up the cache holds them.
var popularShapes = []string{"grid3x4", "hcycle12_3_1", "clique6", "clique8", "chain_cq",
	"star_cq", "cycle_cq", "snowflake_cq", "rand_cq_b", "grid3x3", "cycle7"}

// missShapes are the small shapes sent as fresh presentations. The first
// four take longer than the 100 ms budget under fhw, so about one
// request in a hundred is cut by its deadline and the tail is the
// budget, not an accident of which solves ran long.
var missShapes = append([]string{"grid4x4", "grid3x5", "bdeg24_a", "rand_cq_a"}, popularShapes...)

// probeShapes are large enough that a 1 ms budget never proves them
// exact, so the cache never holds them.
var probeShapes = []string{"grid4x7", "grid5x5", "grid5x6", "grid6x6", "grid5x8", "csp24", "bip24_a", "rand_csp_a"}

// request is one scheduled HTTP request.
type request struct {
	due     time.Duration // offset from the start of the window
	class   string        // popular, twin, miss, probe
	shape   string
	measure solve.Measure
	path    string // /width or /decompose
	format  string // edgelist, pace, json, cq
	text    string // the hypergraph or query text sent
	budget  time.Duration
	body    []byte
}

// response is what came back for one request.
type response struct {
	status   int
	rtt      time.Duration // send to full response
	lat      time.Duration // due time to full response
	late     time.Duration // due time to send
	body     widthResponse
	transErr string
}

// widthResponse mirrors hgserve's /width and /decompose answer.
type widthResponse struct {
	Lower         string             `json:"lower"`
	Upper         string             `json:"upper"`
	Exact         bool               `json:"exact"`
	Partial       bool               `json:"partial"`
	Cached        bool               `json:"cached"`
	Strategy      string             `json:"strategy"`
	ElapsedMS     int64              `json:"elapsed_ms"`
	Kind          string             `json:"kind"`
	Decomposition string             `json:"decomposition"`
	Trace         *telemetry.Summary `json:"trace"`
}

// healthz mirrors the parts of /healthz the benchmark reads.
type healthz struct {
	Status   string `json:"status"`
	Rejected int64  `json:"rejected"`
	Cache    *struct {
		Hits   uint64 `json:"hits"`
		Misses uint64 `json:"misses"`
	} `json:"cache"`
}

// encode renders h in one of the request formats.
func encode(h *hypergraph.Hypergraph, format string) (string, error) {
	switch format {
	case "edgelist", "cq":
		return edgeListText(h), nil
	case "pace":
		var b strings.Builder
		err := corpus.Encode(&b, h, corpus.FormatPACE)
		return b.String(), err
	case "json":
		var b strings.Builder
		err := corpus.Encode(&b, h, corpus.FormatJSON)
		return b.String(), err
	}
	return "", fmt.Errorf("unknown format %q", format)
}

// decodeRequest rebuilds the hypergraph the server decodes from r.
func decodeRequest(r *request) (*hypergraph.Hypergraph, error) {
	if r.format == "cq" {
		q, err := csp.ParseCQ(r.text)
		if err != nil {
			return nil, err
		}
		return q.H, nil
	}
	h, _, err := corpus.DecodeString(r.text)
	return h, err
}

func (r *request) encodeBody(traced bool) error {
	body := map[string]any{"measure": r.measure.String(), "timeout_ms": r.budget.Milliseconds()}
	if r.format == "cq" {
		body["query"] = r.text
	} else {
		body["hypergraph"] = r.text
	}
	b, err := json.Marshal(body)
	r.body = b
	if traced {
		r.path += "?trace=1"
	}
	return err
}

// rename gives h fresh vertex and edge names, keeping edge order and
// the order vertices first appear in: a twin with the same cache key.
func rename(h *hypergraph.Hypergraph, tag string) *hypergraph.Hypergraph {
	out := hypergraph.New()
	for e := 0; e < h.NumEdges(); e++ {
		var names []string
		h.Edge(e).ForEach(func(v int) bool {
			names = append(names, fmt.Sprintf("%s_%d", tag, v))
			return true
		})
		out.AddEdge(fmt.Sprintf("%s_r%d", tag, e), names...)
	}
	return out
}

// serveSchedule is the generated input of one serve-zipf run.
type serveSchedule struct {
	warm []*request // popular items, each sent once during set-up
	reqs []*request
}

var formats = []string{"edgelist", "pace", "json", "cq"}

// genServe generates the warm-up set and the request schedule for n
// requests offered at serveRate.
func genServe(seed int64, n int, budget time.Duration, traced bool) (*serveSchedule, *fingerprint, error) {
	rng := rand.New(rand.NewSource(seed))
	fp := &fingerprint{}
	byName := map[string]shape{}
	for _, s := range mixShapes {
		byName[s.name] = s
	}
	wb := warmBudget
	if budget < serveBudget {
		wb = budget // smoke mode: everything at the 1 ms budget
	}
	// Popular items: one presentation and one format per (shape, measure).
	type item struct {
		shape   string
		measure solve.Measure
		h       *hypergraph.Hypergraph
		format  string
	}
	var items []item
	for _, name := range popularShapes {
		h := present(byName[name].build(), rng, "p", true)
		for _, m := range measures {
			items = append(items, item{name, m, h, formats[rng.Intn(len(formats))]})
		}
	}
	rng.Shuffle(len(items), func(a, b int) { items[a], items[b] = items[b], items[a] })
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(items)-1))

	s := &serveSchedule{}
	newReq := func(class, shapeName string, m solve.Measure, h *hypergraph.Hypergraph, format string, b time.Duration) (*request, error) {
		text, err := encode(h, format)
		if err != nil {
			return nil, err
		}
		path := "/width"
		if rng.Float64() < 0.3 {
			path = "/decompose"
		}
		r := &request{class: class, shape: shapeName, measure: m, path: path, format: format, text: text, budget: b}
		return r, r.encodeBody(traced)
	}
	for _, it := range items {
		r, err := newReq("warm", it.shape, it.measure, it.h, it.format, wb)
		if err != nil {
			return nil, nil, err
		}
		s.warm = append(s.warm, r)
		fp.add("warm %s %s %s %s %s", r.shape, r.measure, r.path, r.format, r.text)
	}
	// Misses and probes cycle through every (shape, measure) pair in a
	// seeded order, so each run holds the same slow requests.
	type pair struct {
		shape   string
		measure solve.Measure
	}
	pairs := func(shapes []string) []pair {
		var out []pair
		for _, s := range shapes {
			for _, m := range measures {
				out = append(out, pair{s, m})
			}
		}
		rng.Shuffle(len(out), func(a, b int) { out[a], out[b] = out[b], out[a] })
		return out
	}
	missPairs, probePairs := pairs(missShapes), pairs(probeShapes)
	var block []string
	// Evenly spaced arrivals: a fixed rate whose queueing comes from the
	// requests themselves, not from arrival bursts.
	gap := time.Duration(float64(time.Second) / serveRate)
	for i, nMiss, nProbe := 0, 0, 0; i < n; i++ {
		due := time.Duration(i+1) * gap
		if len(block) == 0 {
			block = classBlock(rng)
		}
		class := block[0]
		block = block[1:]
		var r *request
		var err error
		switch class {
		case "popular":
			it := items[zipf.Uint64()]
			r, err = newReq(class, it.shape, it.measure, it.h, it.format, budget)
		case "twin":
			it := items[zipf.Uint64()]
			f := it.format
			if f == "pace" { // PACE names vertices by number: no renaming possible
				f = "edgelist"
			}
			r, err = newReq(class, it.shape, it.measure, rename(it.h, fmt.Sprintf("t%d", i)), f, budget)
		case "miss":
			// A fresh edge order gives a small instance a cache key no
			// earlier request had.
			p := missPairs[nMiss%len(missPairs)]
			nMiss++
			h := present(byName[p.shape].build(), rng, fmt.Sprintf("m%d_", i), true)
			r, err = newReq(class, p.shape, p.measure, h, formats[rng.Intn(len(formats))], budget)
		default:
			p := probePairs[nProbe%len(probePairs)]
			nProbe++
			h := present(byName[p.shape].build(), rng, fmt.Sprintf("f%d_", i), true)
			r, err = newReq(class, p.shape, p.measure, h, formats[rng.Intn(len(formats))], probeBudget)
		}
		if err != nil {
			return nil, nil, err
		}
		r.due = due
		s.reqs = append(s.reqs, r)
		fp.add("req %d %d %s %s %s %s %s %d %s", i, due.Microseconds(), r.class, r.shape, r.measure, r.path, r.format, r.budget.Milliseconds(), r.text)
	}
	return s, fp, nil
}

// hgserve is one running server process.
type hgserve struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	exited chan error
	stderr bytes.Buffer
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer launches the binary and waits for a healthy /healthz.
func startServer(bin string) (*hgserve, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	s := &hgserve{
		base:   "http://" + addr,
		exited: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns, DisableCompression: true,
		}},
	}
	s.cmd = exec.Command(bin, "-addr", addr, "-workers", "2", "-queue", "64",
		"-timeout", serveBudget.String(), "-cache", "100000")
	s.cmd.Stderr = &s.stderr
	// The server dies with the benchmark even if the benchmark is killed.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start hgserve: %w", err)
	}
	go func() { s.exited <- s.cmd.Wait() }()
	deadline := time.Now().Add(20 * time.Second)
	for {
		if _, err := s.health(); err == nil {
			return s, nil
		}
		select {
		case err := <-s.exited:
			s.exited <- err
			return nil, fmt.Errorf("hgserve exited during start: %v: %s", err, s.stderr.String())
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, errors.New("hgserve not healthy after 20s")
		}
	}
}

func (s *hgserve) health() (*healthz, error) {
	resp, err := s.client.Get(s.base + "/healthz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var h healthz
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK || h.Status != "ok" {
		return nil, fmt.Errorf("healthz: status %d", resp.StatusCode)
	}
	return &h, nil
}

// stop sends SIGTERM, waits for the drain, and kills after 10 s.
func (s *hgserve) stop() {
	s.client.CloseIdleConnections()
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // an already-exited process is fine
	select {
	case <-s.exited:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
}

// send performs one request and decodes the answer.
func (s *hgserve) send(r *request) response {
	t0 := time.Now()
	resp, err := s.client.Post(s.base+r.path, "application/json", bytes.NewReader(r.body))
	if err != nil {
		return response{transErr: err.Error(), rtt: time.Since(t0)}
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	out := response{status: resp.StatusCode, rtt: time.Since(t0)}
	if err != nil {
		out.transErr = err.Error()
		return out
	}
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(data, &out.body); err != nil {
			out.transErr = "bad response: " + err.Error()
		}
	}
	return out
}

// warm sends the warm-up set over serveConns closed-loop connections.
func (s *hgserve) warm(reqs []*request) error {
	var wg sync.WaitGroup
	var next atomic.Int64
	errs := make([]string, serveConns)
	for c := 0; c < serveConns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(reqs); i = int(next.Add(1) - 1) {
				if resp := s.send(reqs[i]); resp.status != http.StatusOK && errs[c] == "" {
					errs[c] = fmt.Sprintf("warm-up %s: status %d %s", reqs[i].shape, resp.status, resp.transErr)
				}
			}
		}(c)
	}
	wg.Wait()
	for _, e := range errs {
		if e != "" {
			return errors.New(e)
		}
	}
	return nil
}

// run plays the schedule open-loop over serveConns connections: each
// sender takes the next request, waits for its due time, and sends. A
// request that found its sender still busy past its due time is timed
// from the due time, so the wait a slow request imposes on later ones
// counts. A request whose sender was idle and slept is timed from the
// send: the sleep's wake-up slop belongs to the generator, not to the
// server, and is reported as loadgen.late_p99_ms.
func (s *hgserve) run(ctx context.Context, reqs []*request) ([]response, time.Duration) {
	out := make([]response, len(reqs))
	var wg sync.WaitGroup
	var next atomic.Int64
	start := time.Now()
	for c := 0; c < serveConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(reqs); i = int(next.Add(1) - 1) {
				slept := false
				if wait := reqs[i].due - time.Since(start); wait > 0 {
					slept = true
					select {
					case <-time.After(wait):
					case <-ctx.Done():
						return
					}
				}
				sent := time.Since(start)
				resp := s.send(reqs[i])
				resp.late = sent - reqs[i].due
				from := reqs[i].due
				if slept {
					from = sent
				}
				resp.lat = time.Since(start) - from
				out[i] = resp
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start)
}

// serveOutcome turns a response into a gate outcome, parsing any witness
// against the hypergraph the server decoded.
func serveOutcome(r *request, resp *response) outcome {
	o := outcome{shape: r.shape, measure: r.measure}
	switch {
	case resp.transErr != "":
		o.err = resp.transErr
		return o
	case resp.status != http.StatusOK:
		o.err = fmt.Sprintf("status %d", resp.status)
		return o
	}
	b := &resp.body
	var err error
	if o.lower, err = parseRat(b.Lower); err != nil {
		o.err = "lower: " + err.Error()
		return o
	}
	if o.upper, err = parseRat(b.Upper); err != nil {
		o.err = "upper: " + err.Error()
		return o
	}
	o.exact = b.Exact
	if strings.HasPrefix(r.path, "/decompose") {
		h, err := decodeRequest(r)
		if err != nil {
			o.err = "decode request: " + err.Error()
			return o
		}
		if b.Kind != r.measure.Kind().String() {
			o.err = fmt.Sprintf("witness kind %q, want %q", b.Kind, r.measure.Kind())
			return o
		}
		if o.witness, err = decomp.ParseText(h, b.Decomposition); err != nil {
			o.err = "witness: " + err.Error()
		}
	}
	return o
}

// serveRun is one measured serve-zipf run.
type serveRun struct {
	sched    *serveSchedule
	resps    []response
	window   time.Duration
	outcomes []outcome
}

// serveEndToEnd computes the end-to-end metrics of a serve run.
func serveEndToEnd(r *result, run *serveRun) {
	var lat, gaps []float64
	ok, exact := 0, 0
	for i, resp := range run.resps {
		lat = append(lat, ms(resp.lat))
		o := &run.outcomes[i]
		if o.err != "" {
			gaps = append(gaps, 1)
			continue
		}
		ok++
		gaps = append(gaps, gapOf(o.lower, o.upper))
		if o.exact {
			exact++
		}
	}
	n := float64(len(run.resps))
	r.set("throughput_ops_s", "1/s", ratio(float64(ok), run.window.Seconds()))
	r.set("latency_geomean_ms", "ms", geomean(lat))
	r.set("latency_p90_ms", "ms", quantile(lat, 0.9))
	r.set("latency_p99_ms", "ms", quantile(lat, 0.99))
	r.set("exact_rate", "ratio", ratio(float64(exact), n))
	r.set("gap_mean", "ratio", mean(gaps))
}
