package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"testing"
)

// TestBatchMatchesWidth: /batch solves each instance the way /width
// does, so a result line carries the same answer as the /width
// response for that instance, whatever the input format. The strategy
// that closes a race can vary from run to run, so /batch runs second on
// the same server and must find /width's cache entry, which only a
// solve with the same measure and result-shaping options reaches;
// elapsed_ms and cached are left out.
func TestBatchMatchesWidth(t *testing.T) {
	instances := []batchInstance{
		{Name: "edge-list", Hypergraph: "e1(a,b,c), e2(c,d,e), e3(e,f,a), e4(f,g)"},
		{Name: "pace", Hypergraph: "p htd 4 4\n1 1 2\n2 2 3\n3 3 4\n4 4 1\n"},
		{Name: "cq", Query: "ans(X) :- r(X,Y), s(Y,Z), t(Z,X), u(Z,W)."},
	}
	same := func(w *widthResponse) widthResponse {
		c := *w
		c.ElapsedMS, c.Cached = 0, false
		return c
	}
	for _, measure := range []string{"hw", "ghw", "fhw"} {
		ts := testServer(t)
		want := map[string]widthResponse{}
		for _, in := range instances {
			resp, wr := post(t, ts, "/width", widthRequest{Hypergraph: in.Hypergraph, Query: in.Query, Measure: measure})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s %s: /width status %d", measure, in.Name, resp.StatusCode)
			}
			want[in.Name] = same(&wr)
		}

		b, _ := json.Marshal(batchRequest{Measure: measure, Instances: instances})
		resp, err := http.Post(ts.URL+"/batch", "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		got := 0
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			var l struct {
				Type, Name, Error string
				widthResponse
			}
			if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
				t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
			}
			switch l.Type {
			case "result":
				got++
				if !l.Cached {
					t.Errorf("%s %s: /batch missed the /width cache entry", measure, l.Name)
				}
				if g := same(&l.widthResponse); g != want[l.Name] {
					t.Errorf("%s %s: /batch %+v, /width %+v", measure, l.Name, g, want[l.Name])
				}
			case "error":
				t.Errorf("%s %s: %s", measure, l.Name, l.Error)
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		if got != len(instances) {
			t.Fatalf("%s: %d result lines, want %d", measure, got, len(instances))
		}
	}
}
