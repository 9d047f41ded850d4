package lp

// float.go — float-first solving with an exact optimality certificate.
//
// The covering LPs of the fractional-width searches are tiny and their
// optima have small denominators, so exact rational pivots spend almost
// all their time in math/big bookkeeping. FloatProblem follows the
// QSopt_ex recipe (Applegate, Cook, Dash, Espinoza, "Exact solutions to
// linear programming problems", 2007): run the simplex in float64, round
// the optimal basic solution and its duals to rationals, and accept them
// only if they pass an exact certificate. The float arithmetic merely
// proposes; the certificate decides, so an accepted answer is exactly
// as trustworthy as one from Problem.Solve. Callers run an exact solver
// whenever Solve reports false.
//
// The shape is the dual ≤-form of the covering LPs, with integer data:
//
//	maximize c·y  subject to  Ay ≤ b,  y ≥ 0,  b ≥ 0,
//
// whose dual is minimize b·x subject to Aᵀx ≥ c, x ≥ 0. The certificate
// checks, in int64 arithmetic over a common denominator per vector,
//
//	y ≥ 0,  Ay ≤ b,  x ≥ 0,  Aᵀx ≥ c,  c·y = b·x.
//
// By weak duality c·y ≤ b·x for every feasible pair, so equality proves
// both optimal. Any intermediate that would leave int64 (or a rounding
// that finds no small-denominator rational) fails the certificate
// rather than risking a wrong answer.

import (
	"math"
	"math/big"
	"math/bits"
)

// Float-path tolerances. floatEps decides signs in the float simplex
// (reduced costs, pivot candidates, ratio ties); the data are small
// integers, so anything below it is rounding noise. roundTol and
// maxRoundDen bound the rational rounding: a float value is matched to
// the simplest fraction within roundTol whose denominator is at most
// maxRoundDen and whose magnitude is at most maxRoundAbs. maxCommonDen
// caps the common denominators; with maxRoundAbs it keeps every
// numerator below 2^60.
const (
	floatEps     = 1e-9
	roundTol     = 1e-9
	maxRoundDen  = 1 << 20
	maxCommonDen = 1 << 40
	maxRoundAbs  = 1 << 20
)

// FloatProblem is a float-first solver for maximize c·y subject to
// Ay ≤ b, y ≥ 0 with integer A, b ≥ 0 and c. Reset sizes it; SetCoef,
// SetRHS and SetObjective fill the data; Solve reports whether an
// exactly certified optimum was found; Value and Dual read it. All
// scratch is retained across Reset, so a long-lived FloatProblem
// solves without allocating once it has seen its largest problem.
type FloatProblem struct {
	m, n int
	a    []int64 // m×n, row-major
	b    []int64 // m
	c    []int64 // n
	maxA int64   // max |A[i][j]|, kept by SetCoef for the overflow bounds

	tab   []float64 // m rows of width n+m+1 (structural | slack | rhs)
	cost  []float64 // n+m+1 reduced costs, last entry unused
	basis []int     // basis[i] = column basic in row i
	nz    []int     // pivot-row non-zero columns, pivot scratch

	yNum []int64 // certified primal numerators over yDen
	xNum []int64 // certified dual numerators over xDen
	yDen int64
	xDen int64
	pNum int64 // c·y numerator over yDen: the optimum
}

// Reset sizes p to m rows and n variables with all data zero.
func (p *FloatProblem) Reset(m, n int) {
	p.m, p.n = m, n
	p.a = zeroed(p.a, m*n)
	p.b = zeroed(p.b, m)
	p.c = zeroed(p.c, n)
	p.maxA = 0
}

// zeroed returns s resized to n zero elements, reusing its backing
// array when it is large enough.
func zeroed[T int64 | float64 | int](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// SetCoef sets A[i][j] = v.
func (p *FloatProblem) SetCoef(i, j int, v int64) {
	p.a[i*p.n+j] = v
	p.maxA = max(p.maxA, absInt(v))
}

// SetRHS sets b[i] = v. Solve rejects a negative right-hand side.
func (p *FloatProblem) SetRHS(i int, v int64) { p.b[i] = v }

// SetObjective sets c[j] = v.
func (p *FloatProblem) SetObjective(j int, v int64) { p.c[j] = v }

// Solve runs the float simplex and reports whether its optimum passed
// the exact certificate. On false nothing is known — the problem may be
// unbounded, or the float path may simply have failed — and the caller
// must solve exactly instead.
func (p *FloatProblem) Solve() bool {
	for _, v := range p.b {
		if v < 0 {
			return false
		}
	}
	return p.simplex() && p.certify()
}

// Value sets z to the certified optimum c·y and returns z. It is valid
// only after Solve returned true.
func (p *FloatProblem) Value(z *big.Rat) *big.Rat { return setFrac(z, p.pNum, p.yDen) }

// Dual sets z to the certified optimal dual x_i of row i and returns z.
// For a covering dual (rows are edges, variables vertices) x is the
// minimum fractional cover itself. Valid only after Solve returned true.
func (p *FloatProblem) Dual(i int, z *big.Rat) *big.Rat { return setFrac(z, p.xNum[i], p.xDen) }

// ApproxBytes is a flat estimate of the scratch p retains, for cache
// budgeting.
func (p *FloatProblem) ApproxBytes() int64 {
	n := cap(p.a) + cap(p.b) + cap(p.c) + cap(p.tab) + cap(p.cost) +
		cap(p.basis) + cap(p.nz) + cap(p.yNum) + cap(p.xNum)
	return int64(n) * 8
}

// simplex runs the primal simplex from the slack basis with Bland's
// rule — the same rule and column layout as Problem.Solve, so on a
// non-degenerate path it ends in the same basis. It reports false on
// unboundedness or when the pivot cap trips.
func (p *FloatProblem) simplex() bool {
	m, n := p.m, p.n
	w := n + m + 1
	p.tab = zeroed(p.tab, m*w)
	p.cost = zeroed(p.cost, w)
	p.basis = zeroed(p.basis, m)
	tab, cost, basis := p.tab, p.cost, p.basis
	for i := 0; i < m; i++ {
		row := tab[i*w : (i+1)*w]
		for j, v := range p.a[i*n : (i+1)*n] {
			row[j] = float64(v)
		}
		row[n+i] = 1
		row[w-1] = float64(p.b[i])
		basis[i] = n + i
	}
	for j, v := range p.c {
		cost[j] = -float64(v) // minimize -c·y
	}
	for iter, limit := 0, 50*(m+n)+100; ; iter++ {
		if iter == limit {
			return false
		}
		col := -1
		for j := 0; j < w-1; j++ {
			if cost[j] < -floatEps {
				col = j
				break
			}
		}
		if col < 0 {
			return true
		}
		row := -1
		var best float64
		for i := 0; i < m; i++ {
			a := tab[i*w+col]
			if a <= floatEps {
				continue
			}
			r := tab[i*w+w-1] / a
			switch {
			case row < 0 || r < best-floatEps:
				row, best = i, r
			case r <= best+floatEps && basis[i] < basis[row]:
				row = i
			}
		}
		if row < 0 {
			return false // unbounded
		}
		p.pivot(tab, cost, w, row, col)
		basis[row] = col
	}
}

// pivot performs a float tableau pivot on (row, col), including the
// cost row, and zeroes the pivot column exactly outside the pivot row.
// The covering rows are sparse, so the update walks only the pivot
// row's non-zero columns.
func (p *FloatProblem) pivot(tab, cost []float64, w, row, col int) {
	pr := tab[row*w : (row+1)*w]
	inv := 1 / pr[col]
	nz := p.nz[:0]
	for j, v := range pr {
		if v != 0 {
			pr[j] = v * inv
			nz = append(nz, j)
		}
	}
	p.nz = nz
	pr[col] = 1
	for i := 0; i <= p.m; i++ {
		r := cost
		if i < p.m {
			if i == row {
				continue
			}
			r = tab[i*w : (i+1)*w]
		}
		f := r[col]
		if f == 0 {
			continue
		}
		for _, j := range nz {
			r[j] -= f * pr[j]
		}
		r[col] = 0
	}
}

// certify rounds the float optimum to rationals and checks the exact
// certificate described in the file comment.
func (p *FloatProblem) certify() bool {
	m, n := p.m, p.n
	w := n + m + 1
	p.yNum = zeroed(p.yNum, n)
	p.xNum = zeroed(p.xNum, m)
	// Primal: basic structural variables take their row's rhs.
	var ok bool
	p.yDen = 1
	for i, col := range p.basis {
		if col >= n {
			continue
		}
		if p.yDen, ok = p.roundInto(p.yNum, col, p.tab[i*w+w-1], p.yDen); !ok {
			return false
		}
	}
	// Dual: x_i is the reduced cost of row i's slack.
	p.xDen = 1
	for i := 0; i < m; i++ {
		if p.xDen, ok = p.roundInto(p.xNum, i, p.cost[n+i], p.xDen); !ok {
			return false
		}
	}
	maxA, maxB, maxC := p.maxA, maxAbs(p.b), maxAbs(p.c)
	maxY, maxX := maxAbs(p.yNum), maxAbs(p.xNum)
	// Every sum below has at most max(m, n)+1 terms of magnitude at most
	// the bounded products, so plain int64 arithmetic cannot overflow.
	terms := max(m, n) + 1
	if !sumFits(terms, maxA, maxY) || !sumFits(terms, maxB, p.yDen) ||
		!sumFits(terms, maxA, maxX) || !sumFits(terms, maxC, p.xDen) ||
		!sumFits(terms, maxC, maxY) || !sumFits(terms, maxB, maxX) {
		return false
	}
	for _, y := range p.yNum {
		if y < 0 {
			return false
		}
	}
	for _, x := range p.xNum {
		if x < 0 {
			return false
		}
	}
	for i := 0; i < m; i++ { // Ay ≤ b
		var s int64
		for j, a := range p.a[i*n : (i+1)*n] {
			s += a * p.yNum[j]
		}
		if s > p.b[i]*p.yDen {
			return false
		}
	}
	for j := 0; j < n; j++ { // Aᵀx ≥ c
		var s int64
		for i := 0; i < m; i++ {
			s += p.a[i*n+j] * p.xNum[i]
		}
		if s < p.c[j]*p.xDen {
			return false
		}
	}
	var pv, dv int64 // c·y over yDen, b·x over xDen
	for j, c := range p.c {
		pv += c * p.yNum[j]
	}
	for i, b := range p.b {
		dv += b * p.xNum[i]
	}
	if !fracEqual(pv, p.yDen, dv, p.xDen) {
		return false
	}
	p.pNum = pv
	return true
}

// roundInto rounds v to a rational and stores it at num[k] over the
// common denominator den, rescaling the numerators already stored when
// den must grow to lcm(den, q). It returns the new denominator, or
// false when v has no small-denominator rounding or den would exceed
// maxCommonDen.
func (p *FloatProblem) roundInto(num []int64, k int, v float64, den int64) (int64, bool) {
	pn, q, ok := roundRat(v)
	if !ok {
		return den, false
	}
	if f := q / gcd(den, q); f != 1 {
		if den > maxCommonDen/f {
			return den, false
		}
		for i := range num {
			num[i] *= f
		}
		den *= f
	}
	num[k] = pn * (den / q)
	return den, true
}

// roundRat returns the simplest fraction pn/q (q ≤ maxRoundDen) within
// roundTol of v, found along v's continued-fraction convergents.
func roundRat(v float64) (pn, q int64, ok bool) {
	if math.IsNaN(v) || math.Abs(v) > maxRoundAbs {
		return 0, 0, false
	}
	if r := math.Round(v); math.Abs(v-r) <= roundTol {
		return int64(r), 1, true // the common case: 0 or a small integer
	}
	neg := v < 0
	x := math.Abs(v)
	av := x
	h0, h1 := int64(0), int64(1) // convergent numerators h_{k-2}, h_{k-1}
	k0, k1 := int64(1), int64(0) // and denominators
	for {
		fl := math.Floor(x)
		ai := int64(fl)
		h0, h1 = h1, ai*h1+h0
		k0, k1 = k1, ai*k1+k0
		if k1 > maxRoundDen {
			return 0, 0, false
		}
		if math.Abs(av-float64(h1)/float64(k1)) <= roundTol {
			if neg {
				h1 = -h1
			}
			return h1, k1, true
		}
		f := x - fl
		if f <= 0 {
			return 0, 0, false
		}
		x = 1 / f
	}
}

// setFrac sets z to pn/q (q > 0) without an allocating normalization:
// the fraction is reduced here, and the denominator is written through
// the reference Rat.Denom documents for an initialized Rat.
func setFrac(z *big.Rat, pn, q int64) *big.Rat {
	g := gcd(absInt(pn), q)
	pn, q = pn/g, q/g
	z.SetInt64(pn)
	if q != 1 {
		z.Denom().SetInt64(q)
	}
	return z
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	if a == 0 {
		return 1
	}
	return a
}

func absInt(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

func maxAbs(s []int64) int64 {
	var mx int64
	for _, v := range s {
		if v = absInt(v); v > mx {
			mx = v
		}
	}
	return mx
}

// sumFits reports whether a sum of terms products, each of magnitude at
// most a·b, stays below 2^62.
func sumFits(terms int, a, b int64) bool {
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	if hi != 0 {
		return false
	}
	hi, lo = bits.Mul64(lo, uint64(terms))
	return hi == 0 && lo < 1<<62
}

// fracEqual reports whether p/d == q/e exactly for d, e > 0, comparing
// the 128-bit cross products.
func fracEqual(p, d, q, e int64) bool {
	if (p < 0) != (q < 0) {
		return p == 0 && q == 0
	}
	h1, l1 := bits.Mul64(uint64(absInt(p)), uint64(e))
	h2, l2 := bits.Mul64(uint64(absInt(q)), uint64(d))
	return h1 == h2 && l1 == l2
}
