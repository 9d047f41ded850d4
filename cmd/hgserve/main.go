// Command hgserve serves hypergraph width queries over HTTP/JSON through
// the internal/solve portfolio: preprocessing pipeline, strategy race
// under per-request budgets, fingerprint result cache.
//
// Usage:
//
//	hgserve [-addr :8080] [-workers N] [-queue N] [-cache N]
//	        [-cache-bytes B] [-timeout 5s] [-max-timeout 30s]
//
// Endpoints:
//
//	POST /width      {"hypergraph": "e1(a,b), e2(b,c)", "measure": "ghw",
//	                  "timeout_ms": 500}
//	                 → width bounds, exactness, strategy, cache status.
//	                 The hypergraph may be in any corpus-supported
//	                 format (edge-list, PACE htd, JSON — auto-detected);
//	                 a conjunctive query can be posted instead via
//	                 {"query": "r(X,Y), s(Y,Z)"}.
//	POST /decompose  same request; additionally returns the validated
//	                 witness decomposition (text format, or GML with
//	                 {"format": "gml"}).
//	POST /batch      {"instances": [{"name": "q1", "hypergraph": ...},
//	                  ...], "measure": "ghw", "timeout_ms": 500}
//	                 → an NDJSON stream: one "result" (or "error") line
//	                 per instance as it finishes, a "progress" line
//	                 after each, and a final "done" line.
//	GET  /healthz    liveness plus serving/cache/batch statistics; the
//	                 process-wide solve counters are on /metrics only.
//	GET  /metrics    Prometheus text exposition of every registered
//	                 counter and histogram plus the server's gauges
//	                 (see OBSERVABILITY.md).
//
// /width and /decompose accept a ?trace=1 query flag that embeds the
// request's solve trace (strategy timeline, deepening steps, engine and
// cache counters) in the response. -access-log writes one structured
// JSON line per solved request to stderr, with the trace summary; -pprof
// mounts net/http/pprof under /debug/pprof/.
//
// /width, /decompose and /batch share one request front: admission
// control, the 8 MiB body cap (413 past it, 400 on malformed JSON),
// measure parsing and the budget clamp (-timeout by default, never past
// -max-timeout). At most -workers solves run concurrently (GOMAXPROCS
// by default); up to -queue further requests wait for a slot, and
// anything beyond that is shed with 503. A batch occupies one
// admission slot; the corpus runner shards its instances, and each one
// takes a worker slot through the same acquire as /width and is solved
// the way /width solves it, through the same solver and cache.
// SIGINT/SIGTERM drain in-flight requests before exit.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"

	"hypertree/internal/solve"
	"hypertree/internal/telemetry"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "solve worker pool size (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 64, "additional requests allowed to wait for a worker")
	cacheSize := flag.Int("cache", solve.DefaultCacheSize, "result cache entries (negative disables)")
	cacheBytes := flag.Int64("cache-bytes", solve.DefaultCacheBytes, "approximate result cache byte budget (0 = default)")
	timeout := flag.Duration("timeout", 5*time.Second, "default per-request budget")
	maxTimeout := flag.Duration("max-timeout", 30*time.Second, "hard cap on client-chosen budgets")
	pprof := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	accessLog := flag.Bool("access-log", false, "write one structured JSON line per solved request to stderr")
	flag.Parse()

	s := newServer(*workers, *queue, *cacheSize, *cacheBytes, *timeout, *maxTimeout)
	s.accessLog = *accessLog
	s.pprof = *pprof
	srv := &http.Server{Addr: *addr, Handler: s.routes()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "hgserve: listening on %s (workers=%d cache=%d)\n",
		*addr, s.workers, *cacheSize)

	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "hgserve:", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	fmt.Fprintln(os.Stderr, "hgserve: draining")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		fmt.Fprintln(os.Stderr, "hgserve: shutdown:", err)
		os.Exit(1)
	}
}

// server bundles the solver, the admission-control semaphore and the
// serving statistics.
type server struct {
	solver     *solve.Solver
	sem        chan struct{} // one slot per concurrently running solve
	workers    int
	queue      int // admitted requests allowed to wait for a slot
	timeout    time.Duration
	maxTimeout time.Duration
	started    time.Time
	accessLog  bool
	pprof      bool

	admitted atomic.Int64 // running + waiting
	served   atomic.Int64
	rejected atomic.Int64
	inflight atomic.Int64

	batchInflight atomic.Int64 // /batch requests currently streaming
	batchQueued   atomic.Int64 // batch instances admitted but not yet answered
}

func newServer(workers, queue, cacheSize int, cacheBytes int64, timeout, maxTimeout time.Duration) *server {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if queue < 0 {
		queue = 0
	}
	return &server{
		solver:     solve.NewSolver(solve.NewCache(cacheSize, cacheBytes), workers),
		sem:        make(chan struct{}, workers),
		workers:    workers,
		queue:      queue,
		timeout:    timeout,
		maxTimeout: maxTimeout,
		started:    time.Now(),
	}
}

func (s *server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /width", s.admit(s.handleSolve(false)))
	mux.HandleFunc("POST /decompose", s.admit(s.handleSolve(true)))
	mux.HandleFunc("POST /batch", s.admit(s.handleBatch))
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	if s.pprof {
		registerPprof(mux)
	}
	return mux
}

// widthRequest is the JSON body of /width and /decompose.
type widthRequest struct {
	// Hypergraph in any corpus-supported format, auto-detected:
	// edge-list "e1(a,b), e2(b,c)", PACE htd, or JSON.
	Hypergraph string `json:"hypergraph,omitempty"`
	// Query is an alternative input: a conjunctive query
	// "ans(X) :- r(X,Y), s(Y,Z)." or bare body "r(X,Y), s(Y,Z)".
	Query string `json:"query,omitempty"`
	// Measure is "hw", "ghw" (default) or "fhw".
	Measure string `json:"measure,omitempty"`
	// TimeoutMS overrides the server's default budget (capped).
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// Format selects the witness serialization on /decompose:
	// "text" (default) or "gml".
	Format string `json:"format,omitempty"`
}

// widthResponse is the JSON answer.
type widthResponse struct {
	Measure  string `json:"measure"`
	Vertices int    `json:"vertices"`
	Edges    int    `json:"edges"`
	Lower    string `json:"lower"`
	Upper    string `json:"upper,omitempty"`
	Exact    bool   `json:"exact"`
	Partial  bool   `json:"partial,omitempty"`
	Cached   bool   `json:"cached,omitempty"`
	// Strategy names the lane that published the widest block's bound
	// first. When several lanes reach the same bound it can differ
	// between fresh solves of one instance.
	Strategy string `json:"strategy,omitempty"`
	// Provenance classifies the guarantee behind Upper: "exact" or
	// "heuristic".
	Provenance string `json:"provenance,omitempty"`
	Blocks     int    `json:"blocks"`
	ElapsedMS  int64  `json:"elapsed_ms"`

	Kind          string `json:"kind,omitempty"`
	Decomposition string `json:"decomposition,omitempty"`

	// Trace is the per-request solve trace, present under ?trace=1.
	Trace *telemetry.Summary `json:"trace,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// maxBodyBytes caps request bodies: a hypergraph or CQ text a width
// query could plausibly need fits comfortably; anything larger is a
// client error or abuse.
const maxBodyBytes = 8 << 20

// admit wraps the handler of a solving endpoint in admission control:
// at most `workers` solves run and up to `queue` more requests wait for
// a slot; the rest get 503. It runs first, so shed requests never pay
// decode or parse cost, and an admitted request holds its place until
// the handler returns.
func (s *server) admit(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.admitted.Add(1) > int64(s.workers+s.queue) {
			s.admitted.Add(-1)
			s.rejected.Add(1)
			writeJSON(w, http.StatusServiceUnavailable, errorResponse{"server saturated"})
			return
		}
		defer s.admitted.Add(-1)
		h(w, r)
	}
}

// decode reads the JSON body of a solving endpoint into req, capped at
// maxBodyBytes (413 past it, 400 when malformed), then parses the
// measure and clamps the budget from the request fields that measure
// and timeoutMS point to: the server's -timeout by default, never past
// -max-timeout. On failure it writes the error response and returns
// ok=false.
func (s *server) decode(w http.ResponseWriter, r *http.Request, req any, measure *string, timeoutMS *int) (m solve.Measure, budget time.Duration, ok bool) {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if err := json.NewDecoder(r.Body).Decode(req); err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		writeJSON(w, status, errorResponse{"bad JSON: " + err.Error()})
		return 0, 0, false
	}
	m, err := solve.ParseMeasure(*measure)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{err.Error()})
		return 0, 0, false
	}
	budget = s.timeout
	if *timeoutMS > 0 {
		budget = time.Duration(*timeoutMS) * time.Millisecond
	}
	if budget <= 0 || budget > s.maxTimeout {
		budget = s.maxTimeout
	}
	return m, budget, true
}

// acquire takes a worker slot for one solve, waiting while every slot
// is busy, and returns the func that frees it. It fails with the
// context's error when ctx ends first. /width and /decompose call it
// directly; /batch passes it to the corpus runner as its gate.
func (s *server) acquire(ctx context.Context) (release func(), err error) {
	select {
	case s.sem <- struct{}{}:
		s.inflight.Add(1)
		return func() { s.inflight.Add(-1); <-s.sem }, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (s *server) handleSolve(withWitness bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req widthRequest
		measure, budget, ok := s.decode(w, r, &req, &req.Measure, &req.TimeoutMS)
		if !ok {
			return
		}
		h, _, err := parseInstance(batchInstance{Hypergraph: req.Hypergraph, Query: req.Query})
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorResponse{err.Error()})
			return
		}
		release, err := s.acquire(r.Context())
		if err != nil {
			return // client gave up while queued
		}
		defer release()

		// Trace when the client asked (?trace=1 embeds the summary in the
		// response) or when the access log wants per-request summaries.
		ctx := r.Context()
		wantTrace := r.URL.Query().Get("trace") == "1"
		var tr *telemetry.Trace
		if wantTrace || s.accessLog {
			ctx, tr = telemetry.WithTrace(ctx)
		}

		res, err := s.solver.Solve(ctx, h, solve.Options{
			Measure:  measure,
			Timeout:  budget,
			Validate: withWitness,
		})
		if err != nil {
			if errors.Is(err, context.Canceled) {
				return // client went away
			}
			writeJSON(w, http.StatusInternalServerError, errorResponse{err.Error()})
			return
		}
		s.served.Add(1)

		resp := widthResponse{
			Measure:    measure.String(),
			Vertices:   h.NumVertices(),
			Edges:      h.NumEdges(),
			Exact:      res.Exact,
			Partial:    res.Partial,
			Cached:     res.FromCache,
			Strategy:   res.Strategy,
			Provenance: string(res.Provenance),
			Blocks:     res.Pre.Blocks,
			ElapsedMS:  res.Elapsed.Milliseconds(),
		}
		if res.Lower != nil {
			resp.Lower = res.Lower.RatString()
		}
		if res.Upper != nil {
			resp.Upper = res.Upper.RatString()
		}
		// Exactness must never be reported without the width it claims.
		if res.Upper == nil {
			resp.Exact = false
		}
		if tr != nil {
			sum := tr.Summary()
			if wantTrace {
				resp.Trace = sum
			}
			if s.accessLog {
				s.logAccess(r, measure.String(), res, sum)
			}
		}
		if withWitness {
			if res.Witness == nil {
				// Unreachable under the hardened interval contract (every
				// solve carries at least the trivial witness); kept for
				// defense in depth, with nil-safe bound rendering.
				upper := resp.Upper
				if upper == "" {
					upper = "∞"
				}
				writeJSON(w, http.StatusGatewayTimeout, errorResponse{
					fmt.Sprintf("no witness within budget (bounds [%s, %s])",
						resp.Lower, upper)})
				return
			}
			resp.Kind = measure.Kind().String()
			if req.Format == "gml" {
				resp.Decomposition = res.Witness.WriteGML()
			} else {
				resp.Decomposition = res.Witness.MarshalText()
			}
		}
		writeJSON(w, http.StatusOK, resp)
	}
}

type healthzResponse struct {
	Status        string            `json:"status"`
	UptimeS       int64             `json:"uptime_s"`
	Workers       int               `json:"workers"`
	Inflight      int64             `json:"inflight"`
	Served        int64             `json:"served"`
	Rejected      int64             `json:"rejected"`
	BatchInflight int64             `json:"batch_inflight"`
	BatchQueued   int64             `json:"batch_queued"`
	Cache         *solve.CacheStats `json:"cache,omitempty"`
}

func (s *server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	resp := healthzResponse{
		Status:        "ok",
		UptimeS:       int64(time.Since(s.started).Seconds()),
		Workers:       s.workers,
		Inflight:      s.inflight.Load(),
		Served:        s.served.Load(),
		Rejected:      s.rejected.Load(),
		BatchInflight: s.batchInflight.Load(),
		BatchQueued:   s.batchQueued.Load(),
	}
	if c := s.solver.Cache(); c != nil {
		st := c.Stats()
		resp.Cache = &st
	}
	writeJSON(w, http.StatusOK, resp)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers are gone; nothing useful left to do.
		_ = err
	}
}
