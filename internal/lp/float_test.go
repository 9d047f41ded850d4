package lp

import (
	"math/big"
	"math/rand"
	"testing"
)

// TestFloatTriangleCover: the covering dual of the triangle (rows are
// its edges, variables its vertices) has optimum 3/2, and the row duals
// are the fractional edge cover ½, ½, ½.
func TestFloatTriangleCover(t *testing.T) {
	var p FloatProblem
	p.Reset(3, 3)
	for i, e := range [][2]int{{0, 1}, {1, 2}, {2, 0}} {
		p.SetCoef(i, e[0], 1)
		p.SetCoef(i, e[1], 1)
		p.SetRHS(i, 1)
	}
	for j := 0; j < 3; j++ {
		p.SetObjective(j, 1)
	}
	if !p.Solve() {
		t.Fatal("certificate rejected the triangle")
	}
	if v := p.Value(new(big.Rat)); v.Cmp(R(3, 2)) != 0 {
		t.Fatalf("value %v, want 3/2", v.RatString())
	}
	for i := 0; i < 3; i++ {
		if d := p.Dual(i, new(big.Rat)); d.Cmp(R(1, 2)) != 0 {
			t.Fatalf("dual %d = %v, want 1/2", i, d.RatString())
		}
	}
}

// TestFloatRejects: problems outside the contract or without an optimum
// are never certified.
func TestFloatRejects(t *testing.T) {
	var p FloatProblem
	p.Reset(1, 2)
	p.SetCoef(0, 0, 1)
	p.SetRHS(0, 1)
	p.SetObjective(1, 1) // y1 appears in no row: unbounded
	if p.Solve() {
		t.Fatal("unbounded problem certified")
	}
	p.Reset(1, 1)
	p.SetCoef(0, 0, 1)
	p.SetRHS(0, -1)
	p.SetObjective(0, 1)
	if p.Solve() {
		t.Fatal("negative right-hand side certified")
	}
}

// TestFloatMatchesRational compares the float-first solver against
// Problem.Solve on random small ≤-form LPs with integer data: every
// certified answer must equal the rational optimum exactly, unbounded
// problems must be rejected, and bounded ones must almost always be
// certified (otherwise the float path would be dead weight).
func TestFloatMatchesRational(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var fp FloatProblem
	bounded, certified := 0, 0
	for trial := 0; trial < 2000; trial++ {
		m, n := 1+rng.Intn(7), 1+rng.Intn(7)
		p := NewProblem(n)
		p.Minimize = false
		fp.Reset(m, n)
		for j := 0; j < n; j++ {
			c := int64(rng.Intn(4))
			p.SetObjective(j, RI(c))
			fp.SetObjective(j, c)
		}
		for i := 0; i < m; i++ {
			coef := make([]*big.Rat, n)
			for j := range coef {
				if a := int64(rng.Intn(4)) - int64(rng.Intn(2)); a != 0 {
					coef[j] = RI(a)
					fp.SetCoef(i, j, a)
				}
			}
			b := int64(rng.Intn(5))
			p.AddConstraint(coef, LE, RI(b))
			fp.SetRHS(i, b)
		}
		s, err := p.Solve()
		if err != nil {
			t.Fatal(err)
		}
		ok := fp.Solve()
		if s.Status != Optimal {
			if ok {
				t.Fatalf("trial %d: %v problem certified", trial, s.Status)
			}
			continue
		}
		bounded++
		if !ok {
			continue
		}
		certified++
		if v := fp.Value(new(big.Rat)); v.Cmp(s.Value) != 0 {
			t.Fatalf("trial %d: float-first %v ≠ rational %v", trial, v.RatString(), s.Value.RatString())
		}
	}
	if certified*100 < bounded*95 {
		t.Fatalf("certified %d of %d bounded problems, want ≥ 95%%", certified, bounded)
	}
}

// TestFloatSolveAllocs pins the steady state: a reused FloatProblem and
// reused output rationals solve without allocating.
func TestFloatSolveAllocs(t *testing.T) {
	var p FloatProblem
	var v, d big.Rat
	run := func() {
		p.Reset(4, 5)
		for i := 0; i < 4; i++ {
			p.SetCoef(i, i, 1)
			p.SetCoef(i, (i+1)%5, 1)
			p.SetCoef(i, (i+3)%5, 1)
			p.SetRHS(i, 1)
		}
		for j := 0; j < 5; j++ {
			p.SetObjective(j, 1)
		}
		if !p.Solve() {
			panic("not certified")
		}
		p.Value(&v)
		for i := 0; i < 4; i++ {
			p.Dual(i, &d)
		}
	}
	run()
	if n := testing.AllocsPerRun(100, run); n != 0 {
		t.Fatalf("steady-state float solve allocates %v per run, want 0", n)
	}
}
