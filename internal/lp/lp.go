// Package lp implements exact linear programming over rational numbers
// (math/big.Rat): a two-phase simplex with Bland's anti-cycling pivot
// rule (Problem), an incremental warm-started variant for ≤-form
// maximizations (WarmProblem), and a float-first solver for the same
// shape with integer data (FloatProblem).
//
// The paper's algorithms repeatedly decide questions of the form
// "does this vertex set have a fractional edge cover of weight ≤ k?"
// (Section 2.2). Such threshold questions must be answered exactly —
// fhw(H) ≤ 2 versus fhw(H) > 2 is exactly the NP-hard boundary of
// Theorem 3.2 — so no answer here rests on floating point alone.
// Floating point may propose: FloatProblem runs the simplex in float64
// and rounds the optimum and its duals to rationals, and an exact
// duality certificate checked in integer arithmetic decides whether
// that answer is accepted. When the certificate fails, the rational
// simplex answers instead. Simplex with Bland's rule always terminates;
// it is not worst-case polynomial, but the covering LPs used here are
// small and benign.
package lp

import (
	"errors"
	"fmt"
	"math/big"
)

// Rel is a constraint relation.
type Rel int

// Constraint relations.
const (
	LE Rel = iota // ≤
	GE            // ≥
	EQ            // =
)

// Status reports the outcome of solving a problem.
type Status int

// Solve outcomes.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// Constraint is a linear constraint Σ Coef[j]·x_j (Rel) RHS over the
// problem's variables. Coef may be shorter than the number of variables;
// missing coefficients are zero.
type Constraint struct {
	Coef []*big.Rat
	Rel  Rel
	RHS  *big.Rat
}

// Problem is a linear program over n non-negative variables:
// optimize Objective·x subject to the constraints and x ≥ 0.
type Problem struct {
	NumVars     int
	Objective   []*big.Rat
	Minimize    bool
	Constraints []Constraint
}

// Solution is the result of solving a problem.
type Solution struct {
	Status Status
	Value  *big.Rat   // objective value; nil unless Optimal
	X      []*big.Rat // variable assignment; nil unless Optimal
	// RowDuals[i] is the reduced cost of row i's slack/surplus column at
	// the optimum, or nil for EQ rows and rows whose RHS was negated
	// during normalization. For a maximization in ≤-form with x ≥ 0 these
	// are exact optimal duals of the corresponding minimization — the
	// covering LPs read their primal covers off them (strong duality
	// holds exactly over the rationals).
	RowDuals []*big.Rat
}

// NewProblem returns a minimization problem with n variables and zero
// objective.
func NewProblem(n int) *Problem {
	obj := make([]*big.Rat, n)
	for i := range obj {
		obj[i] = new(big.Rat)
	}
	return &Problem{NumVars: n, Objective: obj, Minimize: true}
}

// SetObjective sets the coefficient of variable j.
func (p *Problem) SetObjective(j int, c *big.Rat) {
	p.Objective[j] = new(big.Rat).Set(c)
}

// AddConstraint appends a constraint. The coefficient slice is copied.
func (p *Problem) AddConstraint(coef []*big.Rat, rel Rel, rhs *big.Rat) {
	cc := make([]*big.Rat, len(coef))
	for i, c := range coef {
		if c == nil {
			cc[i] = new(big.Rat)
		} else {
			cc[i] = new(big.Rat).Set(c)
		}
	}
	p.Constraints = append(p.Constraints, Constraint{Coef: cc, Rel: rel, RHS: new(big.Rat).Set(rhs)})
}

var errNoPivot = errors.New("lp: internal error: no pivot found")

// tableau is a dense simplex tableau with an explicit basis. The scratch
// rationals f, d and inv are reused across every pivot so the inner loops
// allocate only when a value outgrows its previously seen precision —
// big.Rat reuses its numerator/denominator storage in place.
type tableau struct {
	rows  [][]*big.Rat // m rows × (n+1) columns; last column is RHS
	cost  []*big.Rat   // n+1 entries; reduced costs and (negated) objective
	basis []int        // basis[i] = column basic in row i
	n     int          // number of structural+slack+artificial columns

	f, d, inv big.Rat // pivot scratch
}

// ratsZero returns n zero rationals backed by a single slab allocation
// (the zero big.Rat value represents 0).
func ratsZero(n int) []*big.Rat {
	vals := make([]big.Rat, n)
	r := make([]*big.Rat, n)
	for i := range r {
		r[i] = &vals[i]
	}
	return r
}

// pivot performs a pivot on (row, col). Zero cells of the pivot row are
// skipped: the covering tableaus this solver sees are mostly 0/1, so the
// skip saves the bulk of the rational arithmetic.
func (t *tableau) pivot(row, col int) {
	pr := t.rows[row]
	t.inv.Inv(pr[col])
	for j := 0; j <= t.n; j++ {
		if pr[j].Sign() != 0 {
			pr[j].Mul(pr[j], &t.inv)
		}
	}
	for i := range t.rows {
		if i == row {
			continue
		}
		if t.rows[i][col].Sign() == 0 {
			continue
		}
		// Copy the factor: cell (i,col) is itself updated mid-loop.
		t.f.Set(t.rows[i][col])
		ri := t.rows[i]
		for j := 0; j <= t.n; j++ {
			if pr[j].Sign() == 0 {
				continue
			}
			t.d.Mul(&t.f, pr[j])
			ri[j].Sub(ri[j], &t.d)
		}
	}
	if t.cost[col].Sign() != 0 {
		t.f.Set(t.cost[col])
		for j := 0; j <= t.n; j++ {
			if pr[j].Sign() == 0 {
				continue
			}
			t.d.Mul(&t.f, pr[j])
			t.cost[j].Sub(t.cost[j], &t.d)
		}
	}
	t.basis[row] = col
}

// simplex runs the simplex loop with Bland's rule until optimality or
// unboundedness. allowed limits the eligible entering columns.
func (t *tableau) simplex(allowed int) (Status, error) {
	var best, ratio big.Rat
	for {
		// Entering column: smallest index with negative reduced cost.
		col := -1
		for j := 0; j < allowed; j++ {
			if t.cost[j].Sign() < 0 {
				col = j
				break
			}
		}
		if col < 0 {
			return Optimal, nil
		}
		// Leaving row: minimum ratio, ties by smallest basis index
		// (Bland).
		row := -1
		for i := range t.rows {
			a := t.rows[i][col]
			if a.Sign() <= 0 {
				continue
			}
			ratio.Quo(t.rows[i][t.n], a)
			if row < 0 || ratio.Cmp(&best) < 0 ||
				(ratio.Cmp(&best) == 0 && t.basis[i] < t.basis[row]) {
				row = i
				best.Set(&ratio)
			}
		}
		if row < 0 {
			return Unbounded, nil
		}
		t.pivot(row, col)
	}
}

// Solve solves the problem exactly. It never mutates p.
//
// Rows in ≤-form with non-negative RHS start basic on their slack, so a
// pure ≤-form problem carries no artificial variables and skips phase 1
// entirely; only ≥/= rows (after sign normalization) get artificials.
func (p *Problem) Solve() (*Solution, error) {
	m := len(p.Constraints)
	// Column layout: structural vars | slack/surplus | artificial. The
	// normalized relation per row decides slack and artificial needs.
	nStruct := p.NumVars
	nSlack, nArt := 0, 0
	rels := make([]Rel, m)
	for i, c := range p.Constraints {
		rel := c.Rel
		if c.RHS != nil && c.RHS.Sign() < 0 {
			switch rel {
			case LE:
				rel = GE
			case GE:
				rel = LE
			}
		}
		rels[i] = rel
		if rel != EQ {
			nSlack++
		}
		if rel != LE {
			nArt++
		}
	}
	n := nStruct + nSlack + nArt
	t := &tableau{n: n, basis: make([]int, m)}
	t.rows = make([][]*big.Rat, m)
	slack := nStruct
	art := nStruct + nSlack
	slackCol := make([]int, m)
	for i, c := range p.Constraints {
		row := ratsZero(n + 1)
		rhs := new(big.Rat).Set(c.RHS)
		sign := 1
		if rhs.Sign() < 0 {
			sign = -1
			rhs.Neg(rhs)
		}
		for j := 0; j < nStruct && j < len(c.Coef); j++ {
			if c.Coef[j] == nil {
				continue
			}
			v := new(big.Rat).Set(c.Coef[j])
			if sign < 0 {
				v.Neg(v)
			}
			row[j] = v
		}
		slackCol[i] = -1
		switch rels[i] {
		case LE:
			row[slack].SetInt64(1)
			if sign > 0 {
				slackCol[i] = slack
			}
			t.basis[i] = slack
			slack++
		case GE:
			row[slack].SetInt64(-1)
			if sign > 0 {
				slackCol[i] = slack
			}
			slack++
			row[art].SetInt64(1)
			t.basis[i] = art
			art++
		case EQ:
			row[art].SetInt64(1)
			t.basis[i] = art
			art++
		}
		row[n] = rhs
		t.rows[i] = row
	}

	if nArt > 0 {
		// Phase 1: minimize the sum of artificials.
		t.cost = ratsZero(n + 1)
		for j := nStruct + nSlack; j < n; j++ {
			t.cost[j].SetInt64(1)
		}
		// Price out the basic artificials.
		for i := range t.rows {
			if t.basis[i] < nStruct+nSlack {
				continue
			}
			for j := 0; j <= t.n; j++ {
				t.cost[j].Sub(t.cost[j], t.rows[i][j])
			}
		}
		st, err := t.simplex(n)
		if err != nil {
			return nil, err
		}
		if st == Unbounded {
			return nil, errors.New("lp: phase 1 unbounded (internal error)")
		}
		if t.cost[n].Sign() != 0 { // phase-1 optimum = -Σ artificials ≠ 0
			return &Solution{Status: Infeasible}, nil
		}
		// Drive any artificial variables remaining in the basis out.
		for i := range t.rows {
			if t.basis[i] < nStruct+nSlack {
				continue
			}
			for j := 0; j < nStruct+nSlack; j++ {
				if t.rows[i][j].Sign() != 0 {
					t.pivot(i, j)
					break
				}
			}
			// If no pivot was found the row is redundant; harmless — the
			// artificial stays basic at 0.
		}
	}

	// Phase 2: original objective over structural + slack columns only.
	t.cost = ratsZero(n + 1)
	for j := 0; j < nStruct && j < len(p.Objective); j++ {
		if p.Objective[j] == nil {
			continue
		}
		v := new(big.Rat).Set(p.Objective[j])
		if !p.Minimize {
			v.Neg(v)
		}
		t.cost[j] = v
	}
	for i, b := range t.basis {
		if t.cost[b].Sign() == 0 {
			continue
		}
		t.f.Set(t.cost[b])
		for j := 0; j <= t.n; j++ {
			if t.rows[i][j].Sign() == 0 {
				continue
			}
			t.d.Mul(&t.f, t.rows[i][j])
			t.cost[j].Sub(t.cost[j], &t.d)
		}
	}
	st, err := t.simplex(nStruct + nSlack)
	if err != nil {
		return nil, err
	}
	if st == Unbounded {
		return &Solution{Status: Unbounded}, nil
	}
	x := ratsZero(p.NumVars)
	for i, b := range t.basis {
		if b < p.NumVars {
			x[b].Set(t.rows[i][t.n])
		}
	}
	val := new(big.Rat).Neg(t.cost[n])
	if !p.Minimize {
		val.Neg(val)
	}
	duals := make([]*big.Rat, m)
	for i, sc := range slackCol {
		if sc >= 0 {
			duals[i] = new(big.Rat).Set(t.cost[sc])
		}
	}
	return &Solution{Status: Optimal, Value: val, X: x, RowDuals: duals}, nil
}

// R returns a rational a/b; R(x) with b omitted is not supported — use
// RI for integers.
func R(a, b int64) *big.Rat { return big.NewRat(a, b) }

// RI returns the rational for the integer a.
func RI(a int64) *big.Rat { return new(big.Rat).SetInt64(a) }
