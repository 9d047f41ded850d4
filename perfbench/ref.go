package main

// ref.go — the reference-width table and the correctness gate every op
// passes through. reference.tsv holds, per shape and measure, the best
// interval [lo, hi] long solves proved (lo == hi when the width is
// known exactly). -make-ref regenerates it.

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math/big"
	"os"
	"strings"
	"time"

	"hypertree/internal/decomp"
	"hypertree/internal/hypergraph"
	"hypertree/internal/solve"
)

var measures = []solve.Measure{solve.HW, solve.GHW, solve.FHW}

// interval is a reference width interval.
type interval struct{ lo, hi *big.Rat }

func (iv interval) exact() bool { return iv.lo.Cmp(iv.hi) == 0 }

// refTable maps shape → measure → reference interval.
type refTable map[string][3]interval

func parseRat(s string) (*big.Rat, error) {
	r, ok := new(big.Rat).SetString(s)
	if !ok {
		return nil, fmt.Errorf("bad rational %q", s)
	}
	return r, nil
}

// readRef parses the table: "# comment" lines, then one line per shape
// "name hw_lo hw_hi ghw_lo ghw_hi fhw_lo fhw_hi", tab-separated.
func readRef(r io.Reader) (refTable, error) {
	t := refTable{}
	sc := bufio.NewScanner(r)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		f := strings.Fields(text)
		if len(f) != 7 {
			return nil, fmt.Errorf("reference line %d: want 7 fields, got %d", line, len(f))
		}
		var ivs [3]interval
		for m := range ivs {
			lo, err := parseRat(f[1+2*m])
			if err != nil {
				return nil, fmt.Errorf("reference line %d: %w", line, err)
			}
			hi, err := parseRat(f[2+2*m])
			if err != nil {
				return nil, fmt.Errorf("reference line %d: %w", line, err)
			}
			if lo.Cmp(hi) > 0 {
				return nil, fmt.Errorf("reference line %d: empty interval [%s, %s]", line, f[1+2*m], f[2+2*m])
			}
			ivs[m] = interval{lo, hi}
		}
		t[f[0]] = ivs
	}
	return t, sc.Err()
}

func loadRef(path string) (refTable, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return readRef(f)
}

// outcome is what one op answered, as seen by the caller.
type outcome struct {
	shape   string
	measure solve.Measure
	lower   *big.Rat
	upper   *big.Rat
	exact   bool
	witness *decomp.Decomp // nil when the op returns no witness (/width)
	err     string         // transport, status or solve error
}

// gate returns "" when o is a correct answer, else the reason it fails:
// an error; a missing or inverted interval; a witness that does not
// validate as the measure's kind or whose width is not Upper; an
// interval that excludes the reference; an exact answer that differs
// from the reference.
func (t refTable) gate(o *outcome) string {
	if o.err != "" {
		return o.err
	}
	if o.lower == nil || o.upper == nil {
		return "missing bound"
	}
	if o.lower.Cmp(o.upper) > 0 {
		return fmt.Sprintf("inverted interval [%s, %s]", o.lower.RatString(), o.upper.RatString())
	}
	if o.witness != nil {
		if err := o.witness.Validate(o.measure.Kind()); err != nil {
			return fmt.Sprintf("witness invalid: %v", err)
		}
		if w := o.witness.Width(); w.Cmp(o.upper) != 0 {
			return fmt.Sprintf("witness width %s != upper %s", w.RatString(), o.upper.RatString())
		}
	}
	ivs, ok := t[o.shape]
	if !ok {
		return fmt.Sprintf("no reference for %s", o.shape)
	}
	ref := ivs[o.measure]
	if o.lower.Cmp(ref.hi) > 0 || o.upper.Cmp(ref.lo) < 0 {
		return fmt.Sprintf("%s interval [%s, %s] excludes reference [%s, %s]", o.measure,
			o.lower.RatString(), o.upper.RatString(), ref.lo.RatString(), ref.hi.RatString())
	}
	if o.exact {
		if o.lower.Cmp(o.upper) != 0 {
			return "exact answer with a gap"
		}
		if ref.exact() && o.upper.Cmp(ref.lo) != 0 {
			return fmt.Sprintf("exact %s %s != reference %s", o.measure, o.upper.RatString(), ref.lo.RatString())
		}
	}
	return ""
}

// consistent checks the table against fhw ≤ ghw ≤ hw ≤ 3·ghw+1
// (Adler–Gottlob–Grohe): each measure's interval must leave room for
// the others.
func (t refTable) consistent() error {
	three, one := big.NewRat(3, 1), big.NewRat(1, 1)
	for name, iv := range t {
		hw, ghw, fhw := iv[solve.HW], iv[solve.GHW], iv[solve.FHW]
		if fhw.lo.Cmp(ghw.hi) > 0 || ghw.lo.Cmp(hw.hi) > 0 {
			return fmt.Errorf("%s: violates fhw ≤ ghw ≤ hw", name)
		}
		limit := new(big.Rat).Add(new(big.Rat).Mul(three, ghw.hi), one)
		if hw.lo.Cmp(limit) > 0 {
			return fmt.Errorf("%s: violates hw ≤ 3·ghw+1", name)
		}
	}
	return nil
}

// makeRef solves every shape under every measure with a long budget and
// writes the table, tightened by fhw ≤ ghw ≤ hw.
func makeRef(w io.Writer, shapes []shape, budget time.Duration) error {
	fmt.Fprintf(w, "# Reference widths of the benchmark shapes: per measure the interval\n")
	fmt.Fprintf(w, "# [lo, hi] proved by solve.Solve with a %s budget, tightened by\n", budget)
	fmt.Fprintf(w, "# fhw <= ghw <= hw. lo == hi means the width is exact.\n")
	fmt.Fprintf(w, "# shape\thw_lo\thw_hi\tghw_lo\tghw_hi\tfhw_lo\tfhw_hi\n")
	for _, s := range shapes {
		h := s.build()
		var ivs [3]interval
		for _, m := range measures {
			iv, err := longSolve(h, m, budget)
			if err != nil {
				return fmt.Errorf("%s %s: %w", s.name, m, err)
			}
			ivs[m] = iv
		}
		tighten(&ivs)
		fmt.Fprintf(w, "%s", s.name)
		for _, iv := range ivs {
			fmt.Fprintf(w, "\t%s\t%s", iv.lo.RatString(), iv.hi.RatString())
		}
		fmt.Fprintln(w)
	}
	return nil
}

func longSolve(h *hypergraph.Hypergraph, m solve.Measure, budget time.Duration) (interval, error) {
	r, err := solve.Solve(context.Background(), h, solve.Options{Measure: m, Timeout: budget, Validate: true})
	if err != nil {
		return interval{}, err
	}
	if r.Lower == nil || r.Upper == nil {
		return interval{}, fmt.Errorf("no interval")
	}
	return interval{r.Lower, r.Upper}, nil
}

// tighten applies fhw ≤ ghw ≤ hw: upper bounds flow down the chain,
// lower bounds flow up.
func tighten(ivs *[3]interval) {
	minR := func(a, b *big.Rat) *big.Rat {
		if a.Cmp(b) < 0 {
			return a
		}
		return b
	}
	maxR := func(a, b *big.Rat) *big.Rat {
		if a.Cmp(b) > 0 {
			return a
		}
		return b
	}
	ivs[solve.GHW].hi = minR(ivs[solve.GHW].hi, ivs[solve.HW].hi)
	ivs[solve.FHW].hi = minR(ivs[solve.FHW].hi, ivs[solve.GHW].hi)
	ivs[solve.GHW].lo = maxR(ivs[solve.GHW].lo, ivs[solve.FHW].lo)
	ivs[solve.HW].lo = maxR(ivs[solve.HW].lo, ivs[solve.GHW].lo)
	// hw and ghw are integers.
	for _, m := range []solve.Measure{solve.HW, solve.GHW} {
		lo, hi := ivs[m].lo, ivs[m].hi
		ivs[m].lo = new(big.Rat).SetInt(new(big.Int).Neg(new(big.Int).Div(new(big.Int).Neg(lo.Num()), lo.Denom())))
		ivs[m].hi = new(big.Rat).SetInt(new(big.Int).Div(hi.Num(), hi.Denom()))
	}
}
