package corpus

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"strconv"
	"strings"

	"hypertree/internal/hypergraph"
)

// Format identifies one of the supported hypergraph serializations.
type Format int

const (
	// FormatUnknown means the format could not be determined.
	FormatUnknown Format = iota
	// FormatEdgeList is the HyperBench/detkdecomp edge-list text format:
	// "e1(a,b,c), e2(c,d)." — the library's native format.
	FormatEdgeList
	// FormatPACE is the PACE-2019-style htd format: a "p htd n m" header
	// followed by one "<edge-id> <v1> <v2> ..." line per hyperedge.
	FormatPACE
	// FormatJSON is the structured JSON format:
	// {"edges": [{"name": "e1", "vertices": ["a","b"]}, ...]}.
	FormatJSON
)

func (f Format) String() string {
	switch f {
	case FormatEdgeList:
		return "edgelist"
	case FormatPACE:
		return "pace"
	case FormatJSON:
		return "json"
	}
	return "unknown"
}

// FormatForPath guesses the format from a file extension. Unknown
// extensions return FormatUnknown; callers then sniff the content.
func FormatForPath(path string) Format {
	switch strings.ToLower(filepath.Ext(path)) {
	case ".hg", ".dtl", ".edge", ".txt":
		return FormatEdgeList
	case ".htd", ".pace", ".gr":
		return FormatPACE
	case ".json":
		return FormatJSON
	}
	return FormatUnknown
}

// Detect sniffs the serialization format from the content: JSON starts
// with '{' or '['; PACE input starts with "c"-comment lines or the
// "p htd" header; everything else is the edge-list format (whose own
// comment lines start with %, # or //). The decision only needs the
// first non-blank line, so detection is allocation-free regardless of
// input size.
func Detect(data []byte) Format {
	for len(data) > 0 {
		line := data
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			line, data = data[:i], data[i+1:]
		} else {
			data = nil
		}
		t := bytes.TrimSpace(line)
		if len(t) == 0 {
			continue
		}
		if t[0] == '{' || t[0] == '[' {
			return FormatJSON
		}
		if t[0] == '%' || t[0] == '#' || bytes.HasPrefix(t, []byte("//")) {
			// Comment style unique to the edge-list format.
			return FormatEdgeList
		}
		if (t[0] == 'c' || t[0] == 'p') && (len(t) == 1 || t[1] == ' ' || t[1] == '\t') {
			return FormatPACE
		}
		return FormatEdgeList
	}
	return FormatUnknown
}

// Decode reads a hypergraph from r, auto-detecting the format. It
// returns the hypergraph along with the format that matched.
func Decode(r io.Reader) (*hypergraph.Hypergraph, Format, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, FormatUnknown, err
	}
	return DecodeBytes(data)
}

// DecodeBytes decodes data, auto-detecting the format.
func DecodeBytes(data []byte) (*hypergraph.Hypergraph, Format, error) {
	f := Detect(data)
	if f == FormatUnknown {
		return nil, FormatUnknown, fmt.Errorf("corpus: empty input")
	}
	h, err := DecodeAs(data, f)
	if err != nil {
		return nil, f, err
	}
	return h, f, nil
}

// DecodeString decodes s, auto-detecting the format.
func DecodeString(s string) (*hypergraph.Hypergraph, Format, error) {
	return DecodeBytes([]byte(s))
}

// DecodeAs decodes data in the given format.
func DecodeAs(data []byte, f Format) (*hypergraph.Hypergraph, error) {
	switch f {
	case FormatEdgeList:
		return hypergraph.Parse(string(data))
	case FormatPACE:
		return decodePACE(data)
	case FormatJSON:
		return decodeJSON(data)
	}
	return nil, fmt.Errorf("corpus: cannot decode format %v", f)
}

// Encode writes h to w in the given format.
func Encode(w io.Writer, h *hypergraph.Hypergraph, f Format) error {
	switch f {
	case FormatEdgeList:
		_, err := io.WriteString(w, h.String()+"\n")
		return err
	case FormatPACE:
		return encodePACE(w, h)
	case FormatJSON:
		return encodeJSON(w, h)
	}
	return fmt.Errorf("corpus: cannot encode format %v", f)
}

// maxPACEDecl caps the vertex/edge counts a PACE header may declare,
// guarding decoders against allocation blowups on hostile input.
const maxPACEDecl = 1 << 26

// decodePACE parses the PACE-2019-style htd format:
//
//	c an optional comment
//	p htd 3 2
//	1 1 2
//	2 2 3
//
// Vertices are 1..n and become v1..vn; edge line i names edge e<id>.
// Every edge id in 1..m must occur exactly once.
func decodePACE(data []byte) (*hypergraph.Hypergraph, error) {
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64*1024), 8<<20)
	h := hypergraph.New()
	n, m := 0, 0
	sawHeader := false
	seen := map[int]bool{}
	vname := func(v int) string { return "v" + strconv.Itoa(v) }
	for lineNo := 1; sc.Scan(); lineNo++ {
		t := strings.TrimSpace(sc.Text())
		if t == "" || t == "c" || strings.HasPrefix(t, "c ") || strings.HasPrefix(t, "c\t") {
			continue
		}
		fields := strings.Fields(t)
		if !sawHeader {
			if len(fields) != 4 || fields[0] != "p" || fields[1] != "htd" {
				return nil, fmt.Errorf("pace: line %d: expected header \"p htd <n> <m>\", got %q", lineNo, t)
			}
			var err1, err2 error
			n, err1 = strconv.Atoi(fields[2])
			m, err2 = strconv.Atoi(fields[3])
			if err1 != nil || err2 != nil || n < 0 || m < 0 {
				return nil, fmt.Errorf("pace: line %d: bad header counts in %q", lineNo, t)
			}
			if n > maxPACEDecl || m > maxPACEDecl {
				return nil, fmt.Errorf("pace: line %d: declared size %d×%d too large", lineNo, n, m)
			}
			sawHeader = true
			continue
		}
		id, err := strconv.Atoi(fields[0])
		if err != nil || id < 1 || id > m {
			return nil, fmt.Errorf("pace: line %d: bad edge id %q (want 1..%d)", lineNo, fields[0], m)
		}
		if seen[id] {
			return nil, fmt.Errorf("pace: line %d: duplicate edge id %d", lineNo, id)
		}
		seen[id] = true
		if len(fields) < 2 {
			return nil, fmt.Errorf("pace: line %d: edge %d has no vertices", lineNo, id)
		}
		vs := make([]string, 0, len(fields)-1)
		for _, f := range fields[1:] {
			v, err := strconv.Atoi(f)
			if err != nil || v < 1 || v > n {
				return nil, fmt.Errorf("pace: line %d: bad vertex %q (want 1..%d)", lineNo, f, n)
			}
			vs = append(vs, vname(v))
		}
		h.AddEdge("e"+strconv.Itoa(id), vs...)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("pace: %w", err)
	}
	if !sawHeader {
		return nil, fmt.Errorf("pace: missing \"p htd\" header")
	}
	if len(seen) != m {
		return nil, fmt.Errorf("pace: header declares %d edges, got %d", m, len(seen))
	}
	if h.NumEdges() == 0 {
		return nil, fmt.Errorf("pace: no edges")
	}
	return h, nil
}

// encodePACE writes the PACE htd form. Vertex and edge names are
// positional in this format, so the original names are not preserved.
func encodePACE(w io.Writer, h *hypergraph.Hypergraph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "p htd %d %d\n", h.NumVertices(), h.NumEdges())
	for e := 0; e < h.NumEdges(); e++ {
		bw.WriteString(strconv.Itoa(e + 1))
		var ferr error
		h.Edge(e).ForEach(func(v int) bool {
			if _, err := fmt.Fprintf(bw, " %d", v+1); err != nil {
				ferr = err
				return false
			}
			return true
		})
		if ferr != nil {
			return ferr
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// jsonHypergraph is the top-level JSON form. A bare array of edges is
// accepted on input as well.
type jsonHypergraph struct {
	Name  string     `json:"name,omitempty"`
	Edges []jsonEdge `json:"edges"`
}

type jsonEdge struct {
	Name     string   `json:"name,omitempty"`
	Vertices []string `json:"vertices"`
}

func decodeJSON(data []byte) (*hypergraph.Hypergraph, error) {
	var jh jsonHypergraph
	trimmed := bytes.TrimLeft(data, " \t\n\r")
	if len(trimmed) > 0 && trimmed[0] == '[' {
		if err := json.Unmarshal(data, &jh.Edges); err != nil {
			return nil, fmt.Errorf("json: %w", err)
		}
	} else if err := json.Unmarshal(data, &jh); err != nil {
		return nil, fmt.Errorf("json: %w", err)
	}
	if len(jh.Edges) == 0 {
		return nil, fmt.Errorf("json: no edges")
	}
	h := hypergraph.New()
	for i, e := range jh.Edges {
		if len(e.Vertices) == 0 {
			return nil, fmt.Errorf("json: edge %d (%q) has no vertices", i, e.Name)
		}
		for _, v := range e.Vertices {
			if v == "" {
				return nil, fmt.Errorf("json: edge %d (%q) has an empty vertex name", i, e.Name)
			}
		}
		h.AddEdge(e.Name, e.Vertices...)
	}
	return h, nil
}

func encodeJSON(w io.Writer, h *hypergraph.Hypergraph) error {
	jh := jsonHypergraph{Edges: make([]jsonEdge, h.NumEdges())}
	for e := 0; e < h.NumEdges(); e++ {
		je := jsonEdge{Name: h.EdgeName(e)}
		h.Edge(e).ForEach(func(v int) bool {
			je.Vertices = append(je.Vertices, h.VertexName(v))
			return true
		})
		jh.Edges[e] = je
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(jh)
}
