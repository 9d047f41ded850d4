package corpus

import (
	"bytes"
	"strings"
	"testing"

	"hypertree/internal/hypergraph"
)

// triangle is the running example: ghw 2, three 2-edges.
const triangleEdgeList = "e1(a,b), e2(b,c), e3(c,a)"

const trianglePACE = `c a triangle
p htd 3 3
1 1 2
2 2 3
3 3 1
`

const triangleJSON = `{
  "name": "triangle",
  "edges": [
    {"name": "e1", "vertices": ["a", "b"]},
    {"name": "e2", "vertices": ["b", "c"]},
    {"name": "e3", "vertices": ["c", "a"]}
  ]
}`

func TestDetect(t *testing.T) {
	cases := []struct {
		in   string
		want Format
	}{
		{triangleEdgeList, FormatEdgeList},
		{trianglePACE, FormatPACE},
		{triangleJSON, FormatJSON},
		{"% comment\ne1(a,b)", FormatEdgeList},
		{"# comment\ne1(a,b)", FormatEdgeList},
		{"\n\n  p htd 1 1\n1 1", FormatPACE},
		{"c\np htd 1 1\n1 1", FormatPACE},
		{`[{"vertices":["a","b"]}]`, FormatJSON},
		// An edge named "c" or "p" is still edge-list: no space follows.
		{"c(a,b), p(b,d)", FormatEdgeList},
		{"", FormatUnknown},
		{"   \n\t\n", FormatUnknown},
	}
	for _, c := range cases {
		if got := Detect([]byte(c.in)); got != c.want {
			t.Errorf("Detect(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestDecodeEquivalence pins that the same hypergraph decodes from all
// three encodings: identical canonical fingerprints.
func TestDecodeEquivalence(t *testing.T) {
	var fps []string
	for _, in := range []string{triangleEdgeList, trianglePACE, triangleJSON} {
		h, _, err := DecodeString(in)
		if err != nil {
			t.Fatalf("DecodeString(%q): %v", in, err)
		}
		if h.NumVertices() != 3 || h.NumEdges() != 3 {
			t.Fatalf("decoded %d vertices, %d edges", h.NumVertices(), h.NumEdges())
		}
		fps = append(fps, Fingerprint(h))
	}
	if fps[0] != fps[1] || fps[1] != fps[2] {
		t.Fatalf("fingerprints differ across formats: %v", fps)
	}
}

// TestEncodeRoundTrip pins Encode∘Decode identity up to renaming for
// every format.
func TestEncodeRoundTrip(t *testing.T) {
	h := hypergraph.MustParse("r1(x,y,z), r2(z,w), r3(w,x), r4(y,w)")
	for _, f := range []Format{FormatEdgeList, FormatPACE, FormatJSON} {
		var buf bytes.Buffer
		if err := Encode(&buf, h, f); err != nil {
			t.Fatalf("%v: Encode: %v", f, err)
		}
		got, detected, err := DecodeBytes(buf.Bytes())
		if err != nil {
			t.Fatalf("%v: decode back: %v\n%s", f, err, buf.String())
		}
		if detected != f {
			t.Errorf("%v: round-trip detected as %v", f, detected)
		}
		if got.NumVertices() != h.NumVertices() || got.NumEdges() != h.NumEdges() {
			t.Errorf("%v: round-trip %d/%d vertices, %d/%d edges",
				f, got.NumVertices(), h.NumVertices(), got.NumEdges(), h.NumEdges())
		}
		if Fingerprint(got) != Fingerprint(h) {
			t.Errorf("%v: round-trip changed the canonical fingerprint", f)
		}
	}
}

func TestDecodePACEErrors(t *testing.T) {
	cases := map[string]string{
		"no header":        "1 1 2\n",
		"short header":     "p htd 3\n",
		"bad counts":       "p htd x y\n1 1 2\n",
		"negative counts":  "p htd -1 -1\n",
		"huge counts":      "p htd 999999999999 2\n",
		"edge id zero":     "p htd 2 1\n0 1 2\n",
		"edge id high":     "p htd 2 1\n2 1 2\n",
		"duplicate id":     "p htd 2 2\n1 1 2\n1 1 2\n",
		"vertex zero":      "p htd 2 1\n1 0 2\n",
		"vertex high":      "p htd 2 1\n1 1 3\n",
		"vertex not int":   "p htd 2 1\n1 a b\n",
		"empty edge":       "p htd 2 1\n1\n",
		"missing edges":    "p htd 3 2\n1 1 2\n",
		"no edges at all":  "p htd 0 0\n",
		"header only once": "p htd 1 1\np htd 1 1\n",
	}
	for name, in := range cases {
		if _, err := DecodeAs([]byte(in), FormatPACE); err == nil {
			t.Errorf("%s: decoded %q without error", name, in)
		}
	}
}

func TestDecodeJSONErrors(t *testing.T) {
	cases := map[string]string{
		"not json":     "{",
		"no edges":     `{"edges": []}`,
		"null edges":   `{}`,
		"empty edge":   `{"edges": [{"name": "e1", "vertices": []}]}`,
		"empty vertex": `{"edges": [{"vertices": ["a", ""]}]}`,
		"bad array":    `[{"vertices": []}]`,
	}
	for name, in := range cases {
		if _, err := DecodeAs([]byte(in), FormatJSON); err == nil {
			t.Errorf("%s: decoded %q without error", name, in)
		}
	}
}

func TestDecodeJSONBareArray(t *testing.T) {
	h, err := DecodeAs([]byte(`[{"vertices":["a","b"]},{"vertices":["b","c"]}]`), FormatJSON)
	if err != nil {
		t.Fatal(err)
	}
	if h.NumEdges() != 2 || h.NumVertices() != 3 {
		t.Fatalf("got %d edges, %d vertices", h.NumEdges(), h.NumVertices())
	}
	// Unnamed edges get synthesized names.
	if h.EdgeName(0) == "" || h.EdgeName(0) == h.EdgeName(1) {
		t.Fatalf("bad synthesized names %q, %q", h.EdgeName(0), h.EdgeName(1))
	}
}

func TestFormatForPath(t *testing.T) {
	for path, want := range map[string]Format{
		"a/b/grid.hg": FormatEdgeList, "x.HTD": FormatPACE, "y.json": FormatJSON,
		"z.tsv": FormatUnknown, "results.jsonl": FormatUnknown,
	} {
		if got := FormatForPath(path); got != want {
			t.Errorf("FormatForPath(%q) = %v, want %v", path, got, want)
		}
	}
}

// TestDecodeReader exercises the io.Reader entry point.
func TestDecodeReader(t *testing.T) {
	h, f, err := Decode(strings.NewReader(trianglePACE))
	if err != nil || f != FormatPACE || h.NumEdges() != 3 {
		t.Fatalf("Decode: %v %v %v", h, f, err)
	}
}
