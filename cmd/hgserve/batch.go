package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"hypertree/internal/corpus"
	"hypertree/internal/csp"
	"hypertree/internal/hypergraph"
	"hypertree/internal/solve"
)

// The /batch endpoint accepts many instances in one request and streams
// one NDJSON line per instance as it finishes, interleaved with
// progress lines — corpus-scale traffic without corpus-sized response
// latency. Execution reuses the corpus runner's sharding; each
// instance's solve still passes through the server's worker-pool
// semaphore, so batches and single /width requests compete for the same
// CPU under the same admission control.

// maxBatchInstances caps one request; a corpus larger than this is
// split by the client (hgcorpus exists for the really big ones).
const maxBatchInstances = 4096

// batchRequest is the JSON body of POST /batch.
type batchRequest struct {
	// Instances to solve. Each carries a hypergraph in any supported
	// corpus format (auto-detected) or a conjunctive query.
	Instances []batchInstance `json:"instances"`
	// Measure is "hw", "ghw" (default) or "fhw", applied to all.
	Measure string `json:"measure,omitempty"`
	// TimeoutMS bounds each instance's solve (clamped to the server's
	// -max-timeout; defaults to the server's -timeout).
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

type batchInstance struct {
	// Name labels the instance in result lines (defaults to its index).
	Name string `json:"name,omitempty"`
	// Hypergraph in any corpus-supported format.
	Hypergraph string `json:"hypergraph,omitempty"`
	// Query is the conjunctive-query alternative input.
	Query string `json:"query,omitempty"`
}

// batchResultLine is one streamed per-instance answer. The solve
// payload is a nil pointer on "error" lines, so clients never see a
// zero-valued width masquerading as an answer.
type batchResultLine struct {
	Type  string `json:"type"` // "result" or "error"
	Name  string `json:"name"`
	Error string `json:"error,omitempty"`
	*widthResponse
}

// batchProgressLine reports completion counts after every instance.
type batchProgressLine struct {
	Type   string `json:"type"` // "progress"
	Done   int    `json:"done"`
	Total  int    `json:"total"`
	Errors int    `json:"errors"`
}

// batchDoneLine terminates the stream.
type batchDoneLine struct {
	Type      string `json:"type"` // "done"
	Total     int    `json:"total"`
	Errors    int    `json:"errors"`
	ElapsedMS int64  `json:"elapsed_ms"`
}

func (s *server) handleBatch(w http.ResponseWriter, r *http.Request) {
	// A batch occupies one admission slot; its instances then borrow
	// worker slots one by one, so a big batch cannot starve /width.
	if s.admitted.Add(1) > int64(s.workers+s.queue) {
		s.admitted.Add(-1)
		s.rejected.Add(1)
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{"server saturated"})
		return
	}
	defer s.admitted.Add(-1)

	var req batchRequest
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		writeJSON(w, status, errorResponse{"bad JSON: " + err.Error()})
		return
	}
	if len(req.Instances) == 0 {
		writeJSON(w, http.StatusBadRequest, errorResponse{`missing "instances"`})
		return
	}
	if len(req.Instances) > maxBatchInstances {
		writeJSON(w, http.StatusBadRequest, errorResponse{
			fmt.Sprintf("batch of %d exceeds the %d-instance limit", len(req.Instances), maxBatchInstances)})
		return
	}
	measure, err := solve.ParseMeasure(req.Measure)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{err.Error()})
		return
	}
	budget := s.timeout
	if req.TimeoutMS > 0 {
		budget = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	if budget <= 0 || budget > s.maxTimeout {
		budget = s.maxTimeout
	}

	items := make([]corpus.Loaded, len(req.Instances))
	for i, in := range req.Instances {
		name := in.Name
		if name == "" {
			name = fmt.Sprintf("instance-%d", i)
		}
		h, f, err := parseBatchInstance(in)
		items[i] = corpus.Loaded{Name: name, Format: f, H: h, Err: err}
	}

	s.batchInflight.Add(1)
	s.batchQueued.Add(int64(len(items)))
	defer s.batchInflight.Add(-1)

	start := time.Now()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	writeLine := func(v any) {
		if err := enc.Encode(v); err != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}

	errCount := 0
	emitted := 0
	// emit runs serialized under the runner's completion lock.
	emit := func(res corpus.InstanceResult) {
		// Every instance leaves the queue when its line is emitted.
		s.batchQueued.Add(-1)
		emitted++
		line := batchResultLine{Type: "result", Name: res.Name}
		if res.Err != "" {
			line.Type = "error"
			line.Error = res.Err
			errCount++
		} else {
			s.served.Add(1)
			line.widthResponse = &widthResponse{
				Measure:    res.Measure,
				Vertices:   res.Vertices,
				Edges:      res.Edges,
				Lower:      res.Lower,
				Upper:      res.Upper,
				Exact:      res.Exact && res.Upper != "",
				Partial:    res.Partial,
				Cached:     res.Cached,
				Strategy:   res.Strategy,
				Provenance: res.Provenance,
				Blocks:     res.Blocks,
				ElapsedMS:  res.ElapsedMS,
			}
		}
		writeLine(line)
		writeLine(batchProgressLine{Type: "progress", Done: emitted, Total: len(items), Errors: errCount})
	}

	opt := corpus.RunOptions{
		Measure: measure,
		Timeout: budget,
		Shards:  s.workers,
		Gate: func(ctx context.Context) (func(), error) {
			select {
			case s.sem <- struct{}{}:
				s.inflight.Add(1)
				return func() { s.inflight.Add(-1); <-s.sem }, nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		},
	}
	corpus.RunLoaded(r.Context(), s.solver, items, opt, emit)

	// Instances never started (client gone, context canceled) were not
	// emitted but still leave the queue.
	s.batchQueued.Add(int64(emitted - len(items)))
	writeLine(batchDoneLine{Type: "done", Total: len(items), Errors: errCount, ElapsedMS: time.Since(start).Milliseconds()})
}

// parseBatchInstance builds one instance's hypergraph from whichever
// input field is set, auto-detecting the hypergraph format.
func parseBatchInstance(in batchInstance) (*hypergraph.Hypergraph, corpus.Format, error) {
	switch {
	case in.Hypergraph != "" && in.Query != "":
		return nil, corpus.FormatUnknown, fmt.Errorf(`give "hypergraph" or "query", not both`)
	case in.Hypergraph != "":
		return corpus.DecodeString(in.Hypergraph)
	case in.Query != "":
		q, err := csp.ParseCQ(in.Query)
		if err != nil {
			return nil, corpus.FormatUnknown, err
		}
		return q.H, corpus.FormatUnknown, nil
	}
	return nil, corpus.FormatUnknown, fmt.Errorf(`missing "hypergraph" or "query"`)
}
