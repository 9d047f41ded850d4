package lp

import (
	"math/big"
	"testing"
)

// FuzzSolve drives random small LPs through both solvers: each byte
// script builds a ≤-form maximization, then replays objective toggles,
// row additions and row retirements on its row list. After every step
// Problem.Solve's answer is verified by the exact primal/dual
// optimality certificate over the rationals, and the same LP is solved
// float-first (FloatProblem): whenever its certificate accepts, the
// optimum must equal the rational one exactly and its duals must be a
// feasible dual of that weight. The CI parser-fuzz job runs a short
// pass of this alongside the corpus decoder fuzzers.
func FuzzSolve(f *testing.F) {
	f.Add([]byte{3, 3, 1, 1, 1, 0, 1, 2, 3})
	f.Add([]byte{2, 1, 7, 0, 200, 1, 9})
	f.Add([]byte{4, 2, 0, 0, 0, 0, 255, 128, 64, 32, 16, 8, 4, 2, 1})
	f.Add([]byte{1, 1, 1, 1, 201, 202, 100})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		n := 1 + int(next())%4
		p := NewProblem(n)
		p.Minimize = false
		for j := 0; j < n; j++ {
			p.SetObjective(j, RI(int64(next()%4)))
		}
		addRow := func() {
			coef := make([]*big.Rat, n)
			nz := false
			for j := range coef {
				if c := next() % 4; c > 0 {
					coef[j] = RI(int64(c))
					nz = true
				}
			}
			if !nz {
				coef[int(next())%n] = RI(1)
			}
			p.AddConstraint(coef, LE, RI(int64(next()%5)))
		}
		addRow()
		crossCheck(t, p)
		for steps := 0; steps < 8 && len(data) > 0; steps++ {
			switch op := next() % 8; {
			case op == 0:
				addRow()
			case op == 1 && len(p.Constraints) > 1:
				i := int(next()) % len(p.Constraints)
				p.Constraints = append(p.Constraints[:i], p.Constraints[i+1:]...)
			default:
				p.SetObjective(int(next())%n, RI(int64(next()%4)))
			}
			crossCheck(t, p)
		}
	})
}

// crossCheck solves p, a ≤-form maximization with non-negative data,
// and on optimality verifies the exact certificate and cross-checks the
// float-first solve against it.
func crossCheck(t *testing.T, p *Problem) {
	t.Helper()
	s, err := p.Solve()
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	if s.Status != Optimal {
		return
	}
	// Exact certificates: X primal-feasible and worth Value, duals ≥ 0,
	// dual-feasible, and dual objective equal to Value (strong duality).
	val := new(big.Rat)
	var term big.Rat
	for j, x := range s.X {
		if x.Sign() < 0 {
			t.Fatalf("x[%d] = %v negative", j, x)
		}
		val.Add(val, term.Mul(p.Objective[j], x))
	}
	if val.Cmp(s.Value) != 0 {
		t.Fatalf("obj·X = %v, Value = %v", val, s.Value)
	}
	dualVal := new(big.Rat)
	for i, r := range p.Constraints {
		lhs := new(big.Rat)
		for j, c := range r.Coef {
			lhs.Add(lhs, term.Mul(c, s.X[j]))
		}
		if lhs.Cmp(r.RHS) > 0 {
			t.Fatalf("row %d violated: %v > %v", i, lhs, r.RHS)
		}
		y := s.RowDuals[i]
		if y.Sign() < 0 {
			t.Fatalf("dual %d negative: %v", i, y)
		}
		dualVal.Add(dualVal, term.Mul(y, r.RHS))
	}
	if dualVal.Cmp(s.Value) != 0 {
		t.Fatalf("dual objective %v ≠ primal %v", dualVal, s.Value)
	}
	checkDualFeasible(t, p, s.RowDuals, "rational")
	crossCheckFloat(t, p, s.Value)
}

// checkDualFeasible verifies Aᵀy ≥ c for row duals y of p.
func checkDualFeasible(t *testing.T, p *Problem, y []*big.Rat, what string) {
	t.Helper()
	var term big.Rat
	for j := 0; j < p.NumVars; j++ {
		lhs := new(big.Rat)
		for i, r := range p.Constraints {
			lhs.Add(lhs, term.Mul(y[i], r.Coef[j]))
		}
		if lhs.Cmp(p.Objective[j]) < 0 {
			t.Fatalf("%s dual infeasible at variable %d: %v < %v", what, j, lhs, p.Objective[j])
		}
	}
}

// crossCheckFloat solves p float-first and, when the certificate
// accepts, checks the answer against the rational optimum want: equal
// value, and duals x ≥ 0 with Aᵀx ≥ c and b·x = want. Under degeneracy
// the duals may differ from the rational solver's, so they are checked
// for validity, not equality.
func crossCheckFloat(t *testing.T, p *Problem, want *big.Rat) {
	t.Helper()
	var fp FloatProblem
	fp.Reset(len(p.Constraints), p.NumVars)
	for j, c := range p.Objective {
		fp.SetObjective(j, c.Num().Int64())
	}
	for i, r := range p.Constraints {
		for j, c := range r.Coef {
			fp.SetCoef(i, j, c.Num().Int64())
		}
		fp.SetRHS(i, r.RHS.Num().Int64())
	}
	if !fp.Solve() {
		return
	}
	if got := fp.Value(new(big.Rat)); got.Cmp(want) != 0 {
		t.Fatalf("float-first value %v ≠ rational %v", got.RatString(), want.RatString())
	}
	var term big.Rat
	dualVal := new(big.Rat)
	x := make([]*big.Rat, len(p.Constraints))
	for i, r := range p.Constraints {
		x[i] = fp.Dual(i, new(big.Rat))
		if x[i].Sign() < 0 {
			t.Fatalf("float-first dual %d negative: %v", i, x[i])
		}
		dualVal.Add(dualVal, term.Mul(x[i], r.RHS))
	}
	if dualVal.Cmp(want) != 0 {
		t.Fatalf("float-first dual objective %v ≠ optimum %v", dualVal, want)
	}
	checkDualFeasible(t, p, x, "float-first")
}
