package corpus

import (
	"bufio"
	"fmt"
	"io"
	"math/big"
	"os"
	"sort"
	"strconv"
	"strings"

	"hypertree/internal/solve"
)

// Report aggregates the results of one corpus run.
type Report struct {
	Measure solve.Measure
	Results []InstanceResult
}

// Summary are the aggregate corpus statistics, in the style of the
// HyperBench study the paper cites: how much of the corpus each
// tractable class covers, and the width profile of the solved part.
type Summary struct {
	Total   int
	Solved  int // exact results
	Partial int // budget ran out with bounds only
	Errors  int
	Resumed int
	Acyclic int
	BIP     int // iwidth ≤ 2
	BMIP    int // 3-miwidth ≤ 1
	BDP     int // degree ≤ 3
	// Widths histograms exact widths by their rational string.
	Widths map[string]int
	// StrategyWins counts exact results by the portfolio strategy that
	// produced them (empty strategies — cached or pre-telemetry log
	// lines — are not counted). When lanes tie, the one that published
	// first wins, so the counts can move between fresh runs.
	StrategyWins map[string]int
	// Provenance counts error-free results by upper-bound guarantee
	// class ("exact" or "heuristic"; older logs may also carry
	// "approx-certified", counted as read); records from
	// pre-interval-contract logs land under "".
	Provenance map[string]int
	// IntervalLess counts error-free records with no upper bound — the
	// hardened interval contract guarantees zero on fresh runs; old logs
	// may still carry some.
	IntervalLess int
	// KTrajMedian is the median iterative-deepening trajectory length
	// over results that recorded one; 0 when none did.
	KTrajMedian int
}

// Summarize computes the aggregate statistics of the report.
func (rp *Report) Summarize() Summary {
	s := Summary{Widths: map[string]int{}, StrategyWins: map[string]int{}, Provenance: map[string]int{}}
	var trajLens []int
	for _, r := range rp.Results {
		s.Total++
		if r.Resumed {
			s.Resumed++
		}
		if r.Err != "" {
			s.Errors++
			continue
		}
		if r.Classes.Acyclic {
			s.Acyclic++
		}
		if r.Classes.BIP {
			s.BIP++
		}
		if r.Classes.BMIP {
			s.BMIP++
		}
		if r.Classes.BDP {
			s.BDP++
		}
		s.Provenance[r.Provenance]++
		if r.Upper == "" {
			s.IntervalLess++
		}
		if r.Exact {
			s.Solved++
			s.Widths[r.Upper]++
			if r.Strategy != "" {
				s.StrategyWins[r.Strategy]++
			}
		} else if r.Partial {
			s.Partial++
		}
		if len(r.KTrajectory) > 0 {
			trajLens = append(trajLens, len(r.KTrajectory))
		}
	}
	if len(trajLens) > 0 {
		sort.Ints(trajLens)
		s.KTrajMedian = trajLens[len(trajLens)/2]
	}
	return s
}

// ratApprox converts a RatString ("5/2" or "3") to a float for
// comparisons; malformed strings sort first.
func ratApprox(s string) float64 {
	r, ok := new(big.Rat).SetString(s)
	if !ok {
		return -1
	}
	f, _ := r.Float64()
	return f
}

// Table renders the per-instance classification/width table followed by
// the summary, the runner's human-readable report.
func (rp *Report) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %5s %5s  %-7s %3s %4s %4s  %-9s %-8s\n",
		"instance", "verts", "edges", "classes", "iw", "miw3", "deg", rp.Measure.String(), "status")
	for _, r := range rp.Results {
		if r.Err != "" {
			fmt.Fprintf(&b, "%-28s %5s %5s  %-7s %3s %4s %4s  %-9s error: %s\n",
				r.Name, "-", "-", "-", "-", "-", "-", "-", r.Err)
			continue
		}
		var cls []byte
		if r.Classes.Acyclic {
			cls = append(cls, 'A')
		}
		if r.Classes.BIP {
			cls = append(cls, 'I')
		}
		if r.Classes.BMIP {
			cls = append(cls, 'M')
		}
		if r.Classes.BDP {
			cls = append(cls, 'D')
		}
		if len(cls) == 0 {
			cls = []byte{'-'}
		}
		width := r.Upper
		status := "exact"
		switch {
		case !r.Exact && r.Upper != "":
			width = "[" + r.Lower + "," + r.Upper + "]"
			status = "bounds"
		case !r.Exact:
			width = "≥" + r.Lower
			status = "lower"
		}
		if r.Resumed {
			status += "*"
		}
		fmt.Fprintf(&b, "%-28s %5d %5d  %-7s %3d %4d %4d  %-9s %-8s\n",
			r.Name, r.Vertices, r.Edges, cls,
			r.Classes.IWidth, r.Classes.MIWidth3, r.Classes.Degree, width, status)
	}
	s := rp.Summarize()
	pct := func(n int) string {
		if s.Total == 0 {
			return "0%"
		}
		return fmt.Sprintf("%.0f%%", 100*float64(n)/float64(s.Total))
	}
	fmt.Fprintf(&b, "\n%d instances: %d exact, %d partial, %d errors (%d resumed)\n",
		s.Total, s.Solved, s.Partial, s.Errors, s.Resumed)
	fmt.Fprintf(&b, "classes: acyclic %s, BIP %s (iwidth ≤ 2), BMIP %s (3-miwidth ≤ 1), BDP %s (degree ≤ 3)\n",
		pct(s.Acyclic), pct(s.BIP), pct(s.BMIP), pct(s.BDP))
	if len(s.Widths) > 0 {
		keys := make([]string, 0, len(s.Widths))
		for k := range s.Widths {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return ratApprox(keys[i]) < ratApprox(keys[j]) })
		var parts []string
		for _, k := range keys {
			parts = append(parts, fmt.Sprintf("%s=%s×%d", rp.Measure, k, s.Widths[k]))
		}
		fmt.Fprintf(&b, "width profile: %s\n", strings.Join(parts, " "))
	}
	if len(s.StrategyWins) > 0 {
		keys := make([]string, 0, len(s.StrategyWins))
		for k := range s.StrategyWins {
			keys = append(keys, k)
		}
		// Most wins first; ties alphabetically for stable output.
		sort.Slice(keys, func(i, j int) bool {
			if s.StrategyWins[keys[i]] != s.StrategyWins[keys[j]] {
				return s.StrategyWins[keys[i]] > s.StrategyWins[keys[j]]
			}
			return keys[i] < keys[j]
		})
		var parts []string
		for _, k := range keys {
			parts = append(parts, fmt.Sprintf("%s×%d", k, s.StrategyWins[k]))
		}
		fmt.Fprintf(&b, "strategy wins: %s\n", strings.Join(parts, " "))
	}
	if len(s.Provenance) > 0 {
		var parts []string
		for k, n := range s.Provenance {
			if k == "" {
				k = "unknown"
			}
			parts = append(parts, fmt.Sprintf("%s×%d", k, n))
		}
		sort.Strings(parts)
		fmt.Fprintf(&b, "provenance: %s\n", strings.Join(parts, " "))
	}
	if s.IntervalLess > 0 {
		fmt.Fprintf(&b, "WARNING: %d records carry no upper bound (pre-interval-contract log?)\n", s.IntervalLess)
	}
	if s.KTrajMedian > 0 {
		fmt.Fprintf(&b, "median k-trajectory length: %d\n", s.KTrajMedian)
	}
	return b.String()
}

// DedupeResults collapses a results log that contains several records
// for the same instance and measure — a resumed run retries partial
// and errored instances, appending a fresh record each time — keeping
// one per instance: an exact error-free record if any attempt produced
// one, otherwise the latest attempt. First-appearance order is kept.
func DedupeResults(results []InstanceResult) []InstanceResult {
	idx := map[string]int{}
	var out []InstanceResult
	for _, r := range results {
		key := r.Name + "|" + r.Measure
		i, ok := idx[key]
		if !ok {
			idx[key] = len(out)
			out = append(out, r)
			continue
		}
		// Keep a solved record over anything; otherwise the retry
		// (later record) supersedes the earlier attempt.
		if out[i].Err == "" && out[i].Exact && !(r.Err == "" && r.Exact) {
			continue
		}
		out[i] = r
	}
	return out
}

// goldenHeader is the first line of a golden file; the columns the
// corpus tests and the CI smoke job pin.
const goldenHeader = "# name\twidth\tacyclic\tiwidth\tmiwidth3\tdegree"

// WriteGolden writes the golden classification/width file for a run:
// one tab-separated line per instance. Only exact, error-free results
// may be recorded; anything else is an error, since a golden file must
// be reproducible.
func WriteGolden(w io.Writer, rp *Report) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, goldenHeader)
	for _, r := range rp.Results {
		if r.Err != "" {
			return fmt.Errorf("corpus: cannot write golden: %s failed: %s", r.Name, r.Err)
		}
		if !r.Exact {
			return fmt.Errorf("corpus: cannot write golden: %s is not exact (bounds [%s, %s])", r.Name, r.Lower, r.Upper)
		}
		fmt.Fprintf(bw, "%s\t%s\t%v\t%d\t%d\t%d\n",
			r.Name, r.Upper, r.Classes.Acyclic, r.Classes.IWidth, r.Classes.MIWidth3, r.Classes.Degree)
	}
	return bw.Flush()
}

// goldenRow is one parsed golden line.
type goldenRow struct {
	width    string
	acyclic  bool
	iwidth   int
	miwidth3 int
	degree   int
}

// readGolden parses a golden file into name → expected row.
func readGolden(path string) (map[string]goldenRow, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rows := map[string]goldenRow{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		t := strings.TrimSpace(sc.Text())
		if t == "" || strings.HasPrefix(t, "#") {
			continue
		}
		fields := strings.Split(t, "\t")
		if len(fields) != 6 {
			return nil, fmt.Errorf("corpus: golden %s: bad line %q", path, t)
		}
		ac, err := strconv.ParseBool(fields[2])
		if err != nil {
			return nil, fmt.Errorf("corpus: golden %s: bad acyclic in %q", path, t)
		}
		iw, err1 := strconv.Atoi(fields[3])
		mi, err2 := strconv.Atoi(fields[4])
		dg, err3 := strconv.Atoi(fields[5])
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("corpus: golden %s: bad counts in %q", path, t)
		}
		rows[fields[0]] = goldenRow{width: fields[1], acyclic: ac, iwidth: iw, miwidth3: mi, degree: dg}
	}
	return rows, sc.Err()
}

// CompareGolden checks the report against a golden file written by
// WriteGolden: every golden instance must be present with the expected
// exact width and classification, and vice versa. It returns an error
// listing every mismatch.
func CompareGolden(rp *Report, goldenPath string) error {
	want, err := readGolden(goldenPath)
	if err != nil {
		return err
	}
	var bad []string
	seen := map[string]bool{}
	for _, r := range rp.Results {
		seen[r.Name] = true
		g, ok := want[r.Name]
		if !ok {
			bad = append(bad, fmt.Sprintf("%s: not in golden file", r.Name))
			continue
		}
		switch {
		case r.Err != "":
			bad = append(bad, fmt.Sprintf("%s: error: %s", r.Name, r.Err))
		case !r.Exact:
			bad = append(bad, fmt.Sprintf("%s: not exact (bounds [%s, %s]), want width %s", r.Name, r.Lower, r.Upper, g.width))
		case r.Upper != g.width:
			bad = append(bad, fmt.Sprintf("%s: width %s, want %s", r.Name, r.Upper, g.width))
		}
		if r.Err == "" {
			c := r.Classes
			if c.Acyclic != g.acyclic || c.IWidth != g.iwidth || c.MIWidth3 != g.miwidth3 || c.Degree != g.degree {
				bad = append(bad, fmt.Sprintf("%s: classes (acyclic=%v iw=%d miw3=%d deg=%d), want (acyclic=%v iw=%d miw3=%d deg=%d)",
					r.Name, c.Acyclic, c.IWidth, c.MIWidth3, c.Degree, g.acyclic, g.iwidth, g.miwidth3, g.degree))
			}
		}
	}
	for name := range want {
		if !seen[name] {
			bad = append(bad, fmt.Sprintf("%s: in golden file but not in run", name))
		}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		return fmt.Errorf("corpus: %d golden mismatches:\n  %s", len(bad), strings.Join(bad, "\n  "))
	}
	return nil
}
