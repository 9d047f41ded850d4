package lp

import (
	"math/big"
	"testing"
)

// FuzzSolve drives random small LPs through both engines: each byte
// script builds a ≤-form maximization, solves it cold with
// Problem.Solve, then replays objective toggles, row additions and row
// retirements on a WarmProblem, cross-checking every warm re-solve
// against a fresh cold solve and verifying the exact primal/dual
// optimality certificates over the rationals. Every step also solves
// the same LP float-first (FloatProblem): whenever its certificate
// accepts, the optimum must equal the rational one exactly and its
// duals must be a feasible dual of that weight. The CI parser-fuzz job
// runs a short pass of this alongside the corpus decoder fuzzers.
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
		w := NewWarm(n)
		for j := 0; j < n; j++ {
			w.SetObjective(j, RI(int64(next()%4)))
		}
		var live []int
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
			live = append(live, w.AddRow(coef, RI(int64(next()%5))))
		}
		addRow()
		crossCheck(t, w)
		for steps := 0; steps < 8 && len(data) > 0; steps++ {
			switch op := next() % 8; {
			case op == 0:
				addRow()
			case op == 1 && len(live) > 1:
				i := int(next()) % len(live)
				w.RetireRow(live[i])
				live = append(live[:i], live[i+1:]...)
			case op == 2:
				// Recycle the engine mid-script: a Reset to a different
				// size must leave no stale state behind (the grid_2x4
				// recycled-buffer regression).
				n = 1 + int(next())%4
				w.Reset(n)
				live = live[:0]
				for j := 0; j < n; j++ {
					w.SetObjective(j, RI(int64(next()%4)))
				}
				addRow()
			default:
				w.SetObjective(int(next())%n, RI(int64(next()%4)))
			}
			crossCheck(t, w)
		}
	})
}

// crossCheck solves w (warm when possible) and its cold reconstruction
// and compares outcomes exactly; on optimality it also verifies the
// certificate.
func crossCheck(t *testing.T, w *WarmProblem) {
	t.Helper()
	st, err := w.Solve()
	if err != nil {
		t.Fatalf("warm solve: %v", err)
	}
	p := NewProblem(w.nVars)
	p.Minimize = false
	for j := 0; j < w.nVars; j++ {
		p.SetObjective(j, w.obj[j])
	}
	for _, r := range w.rows {
		p.AddConstraint(r.coef, LE, r.rhs)
	}
	s, err := p.Solve()
	if err != nil {
		t.Fatalf("cold solve: %v", err)
	}
	if (st == Unbounded) != (s.Status == Unbounded) {
		t.Fatalf("warm status %v, cold status %v", st, s.Status)
	}
	if st != Optimal {
		return
	}
	if w.Value().Cmp(s.Value) != 0 {
		t.Fatalf("warm value %v ≠ cold value %v", w.Value().RatString(), s.Value.RatString())
	}
	crossCheckFloat(t, w, s.Value)
	// Exact certificates: X primal-feasible and worth Value, duals ≥ 0,
	// dual-feasible, and dual objective equal to Value (strong duality).
	val := new(big.Rat)
	var term big.Rat
	for j := 0; j < w.nVars; j++ {
		x := w.XVal(j)
		if x.Sign() < 0 {
			t.Fatalf("x[%d] = %v negative", j, x)
		}
		val.Add(val, term.Mul(w.obj[j], x))
	}
	if val.Cmp(w.Value()) != 0 {
		t.Fatalf("obj·X = %v, Value = %v", val, w.Value())
	}
	dualVal := new(big.Rat)
	for _, r := range w.rows {
		lhs := new(big.Rat)
		for j, c := range r.coef {
			if c != nil {
				lhs.Add(lhs, term.Mul(c, w.XVal(j)))
			}
		}
		if lhs.Cmp(r.rhs) > 0 {
			t.Fatalf("row %d violated: %v > %v", r.id, lhs, r.rhs)
		}
		y := w.RowDual(r.id)
		if y.Sign() < 0 {
			t.Fatalf("dual %d negative: %v", r.id, y)
		}
		dualVal.Add(dualVal, term.Mul(y, r.rhs))
	}
	if dualVal.Cmp(w.Value()) != 0 {
		t.Fatalf("dual objective %v ≠ primal %v", dualVal, w.Value())
	}
	for j := 0; j < w.nVars; j++ {
		lhs := new(big.Rat)
		for _, r := range w.rows {
			if j < len(r.coef) && r.coef[j] != nil {
				lhs.Add(lhs, term.Mul(w.RowDual(r.id), r.coef[j]))
			}
		}
		if lhs.Cmp(w.obj[j]) < 0 {
			t.Fatalf("dual infeasible at variable %d: %v < %v", j, lhs, w.obj[j])
		}
	}
}

// crossCheckFloat solves w's current LP float-first and, when the
// certificate accepts, checks the answer against the rational optimum
// want: equal value, and duals x ≥ 0 with Aᵀx ≥ c and b·x = want. Under
// degeneracy the duals may differ from the rational engine's, so they
// are checked for validity, not equality.
func crossCheckFloat(t *testing.T, w *WarmProblem, want *big.Rat) {
	t.Helper()
	var fp FloatProblem
	fp.Reset(len(w.rows), w.nVars)
	for j := 0; j < w.nVars; j++ {
		fp.SetObjective(j, w.obj[j].Num().Int64())
	}
	for i, r := range w.rows {
		for j, c := range r.coef {
			if c != nil {
				fp.SetCoef(i, j, c.Num().Int64())
			}
		}
		fp.SetRHS(i, r.rhs.Num().Int64())
	}
	if !fp.Solve() {
		return
	}
	if got := fp.Value(new(big.Rat)); got.Cmp(want) != 0 {
		t.Fatalf("float-first value %v ≠ rational %v", got.RatString(), want.RatString())
	}
	var term big.Rat
	dualVal := new(big.Rat)
	x := make([]*big.Rat, len(w.rows))
	for i, r := range w.rows {
		x[i] = fp.Dual(i, new(big.Rat))
		if x[i].Sign() < 0 {
			t.Fatalf("float-first dual %d negative: %v", i, x[i])
		}
		dualVal.Add(dualVal, term.Mul(x[i], r.rhs))
	}
	if dualVal.Cmp(want) != 0 {
		t.Fatalf("float-first dual objective %v ≠ optimum %v", dualVal, want)
	}
	for j := 0; j < w.nVars; j++ {
		lhs := new(big.Rat)
		for i, r := range w.rows {
			if j < len(r.coef) && r.coef[j] != nil {
				lhs.Add(lhs, term.Mul(x[i], r.coef[j]))
			}
		}
		if lhs.Cmp(w.obj[j]) < 0 {
			t.Fatalf("float-first dual infeasible at variable %d: %v < %v", j, lhs, w.obj[j])
		}
	}
}
