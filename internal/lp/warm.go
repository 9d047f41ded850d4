package lp

// warm.go — an incremental simplex engine with an explicit live basis.
//
// The covering LPs of the fractional-width searches arrive in long
// related sequences: the FHD oracle's support enumeration grows and
// shrinks a guess S one subedge at a time, and Algorithm 3's Ws
// enumeration toggles one target vertex at a time. Problem.Solve starts
// every such LP from the slack basis; WarmProblem instead keeps the
// factored tableau of the previous optimum alive, so that adding or
// retiring a handful of rows and re-solving costs a few dual-simplex
// pivots instead of a full cold solve.
//
// WarmProblem is restricted to the shape every covering dual here has:
//
//	maximize c·x  subject to  Ax ≤ b,  x ≥ 0,  b ≥ 0.
//
// The restriction is what makes warm-starting clean — b ≥ 0 means the
// slack basis is always primal feasible, so a cold (re)start needs no
// artificial variables and no phase 1, and the problem can never be
// infeasible (x = 0 is a solution). After incremental edits the engine
// picks the cheapest correct path: a tableau that is still primal
// feasible re-optimizes with the primal simplex, one that is still dual
// feasible (reduced costs ≥ 0 — the common case after adding a row at
// the previous optimum) re-optimizes with the dual simplex, and one
// that is neither — a stale basis, e.g. after a forced pivot retiring a
// row — falls back to a cold start from the slack basis. All arithmetic
// is exact over big.Rat, matching Problem.Solve.
//
// Row identity survives edits: AddRow returns an id, RetireRow removes
// that constraint, and RowDual reports the row's exact dual value at
// the optimum (the primal covering weights are read off these, as in
// cover.SolveCoverLP).

import (
	"errors"
	"math/big"
)

// WarmStats counts what the incremental engine actually did, so tests
// and benchmarks can pin that warm re-solves take the warm path, and so
// the telemetry layer can report the per-request warm-path mix. The
// warm solves are further classified by the re-solve path taken to
// completion: NoopSolves (basis still optimal), PrimalSolves (primal
// feasible, primal simplex re-optimization), DualSolves (dual feasible,
// dual simplex back to primal feasibility). A warm dual attempt that
// trips its pivot cap falls back cold and is counted in ColdStarts, not
// DualSolves. A WarmProblem never sets FloatSolves: callers that try a
// FloatProblem first (internal/cover) count its certified answers
// there and in Solves, so in every aggregate ColdStarts + NoopSolves +
// PrimalSolves + DualSolves + FloatSolves == Solves.
type WarmStats struct {
	Solves       int // Solve calls
	ColdStarts   int // solves that rebuilt the tableau from the slack basis
	WarmSolves   int // solves resumed from the previous basis
	NoopSolves   int // warm solves whose basis was already optimal
	PrimalSolves int // warm solves finished by the primal simplex
	DualSolves   int // warm solves finished by the dual simplex
	FloatSolves  int // solves answered float-first with an exact certificate
	PrimalPivots int
	DualPivots   int
}

// Add accumulates o into s (for aggregating stats across solvers).
func (s *WarmStats) Add(o WarmStats) {
	s.Solves += o.Solves
	s.ColdStarts += o.ColdStarts
	s.WarmSolves += o.WarmSolves
	s.NoopSolves += o.NoopSolves
	s.PrimalSolves += o.PrimalSolves
	s.DualSolves += o.DualSolves
	s.FloatSolves += o.FloatSolves
	s.PrimalPivots += o.PrimalPivots
	s.DualPivots += o.DualPivots
}

// warmRow is one live constraint: the raw coefficients (kept for cold
// rebuilds) and the slack column identifying the row in the tableau.
type warmRow struct {
	id    int
	coef  []*big.Rat // dense over structural variables; nil entries = 0
	rhs   *big.Rat
	slack int // live slack column, -1 when the tableau is down
}

// WarmProblem is an incremental LP: maximize Objective·x subject to
// AddRow'd ≤-constraints with non-negative RHS and x ≥ 0.
type WarmProblem struct {
	nVars int
	obj   []*big.Rat
	rows  []*warmRow
	byID  map[int]*warmRow
	nxtID int

	// Live tableau state. mat[r] is row r over ncols columns (structural
	// variables first, then slack slots); rhs and basis are parallel to
	// mat. cost holds the reduced costs of the internal minimization of
	// -Objective (optimal when all ≥ 0) and costVal the current objective
	// value of the basic solution. colRow inverts basis; freeCols holds
	// slack slots of retired rows for reuse, kept zeroed everywhere.
	live     bool
	ncols    int
	mat      [][]*big.Rat
	rhs      []*big.Rat
	cost     []*big.Rat
	costVal  *big.Rat
	basis    []int
	colRow   []int
	freeCols []int

	matPool [][]*big.Rat // retired row buffers for reuse

	f, d, inv big.Rat // pivot scratch
	stats     WarmStats
}

// NewWarm returns an empty warm problem over n non-negative variables
// with a zero objective.
func NewWarm(n int) *WarmProblem {
	w := &WarmProblem{byID: map[int]*warmRow{}, costVal: new(big.Rat)}
	w.Reset(n)
	return w
}

// Reset reconfigures w to n variables, a zero objective and no rows,
// retaining the allocated tableau storage for reuse. It is the cheap way
// to recycle a WarmProblem across unrelated LP sequences (the FHD oracle
// keeps a free list of them, one per live recursion depth).
func (w *WarmProblem) Reset(n int) {
	w.nVars = n
	for len(w.obj) < n {
		w.obj = append(w.obj, new(big.Rat))
	}
	for j := 0; j < n; j++ {
		w.obj[j].SetInt64(0)
	}
	for _, r := range w.rows {
		delete(w.byID, r.id)
	}
	w.rows = w.rows[:0]
	w.dropTableau()
}

// dropTableau tears the live tableau down (recycling row buffers) so the
// next Solve cold-starts.
func (w *WarmProblem) dropTableau() {
	if !w.live {
		return
	}
	w.live = false
	w.matPool = append(w.matPool, w.mat...)
	w.mat = w.mat[:0]
	w.rhs = w.rhs[:0]
	w.basis = w.basis[:0]
	w.freeCols = w.freeCols[:0]
	for _, r := range w.rows {
		r.slack = -1
	}
}

// NumVars returns the number of structural variables.
func (w *WarmProblem) NumVars() int { return w.nVars }

// NumRows returns the number of live constraints.
func (w *WarmProblem) NumRows() int { return len(w.rows) }

// Stats returns cumulative engine counters.
func (w *WarmProblem) Stats() WarmStats { return w.stats }

// SetObjective sets the objective coefficient of variable j, updating
// the live reduced costs in place so the next Solve can resume warm (an
// objective change never disturbs primal feasibility).
func (w *WarmProblem) SetObjective(j int, c *big.Rat) {
	if !w.live {
		w.obj[j].Set(c)
		return
	}
	var delta big.Rat
	delta.Sub(c, w.obj[j])
	if delta.Sign() == 0 {
		return
	}
	w.obj[j].Set(c)
	// Internally we minimize -Objective: obj_j += δ means cost_j -= δ.
	if r := w.colRow[j]; r < 0 {
		w.cost[j].Sub(w.cost[j], &delta)
	} else {
		// j is basic in row r; re-price the whole cost row so the basic
		// column stays zero: cost += δ·row_r − δ·e_j, value += δ·rhs_r.
		for c2 := 0; c2 < w.ncols; c2++ {
			if w.mat[r][c2].Sign() != 0 {
				w.d.Mul(&delta, w.mat[r][c2])
				w.cost[c2].Add(w.cost[c2], &w.d)
			}
		}
		w.cost[j].Sub(w.cost[j], &delta)
		w.d.Mul(&delta, w.rhs[r])
		w.costVal.Add(w.costVal, &w.d)
	}
}

// AddRow appends the constraint Σ coef[j]·x_j ≤ rhs (missing or nil
// coefficients are zero; rhs must be ≥ 0) and returns its row id. On a
// live tableau the row is expressed in the current basis immediately, so
// the next Solve re-optimizes from the previous optimum with the dual
// simplex instead of restarting.
func (w *WarmProblem) AddRow(coef []*big.Rat, rhs *big.Rat) int {
	if rhs.Sign() < 0 {
		panic("lp: WarmProblem rows require non-negative RHS")
	}
	cc := make([]*big.Rat, w.nVars)
	for j := 0; j < w.nVars && j < len(coef); j++ {
		if coef[j] != nil && coef[j].Sign() != 0 {
			cc[j] = new(big.Rat).Set(coef[j])
		}
	}
	r := &warmRow{id: w.nxtID, coef: cc, rhs: new(big.Rat).Set(rhs), slack: -1}
	w.nxtID++
	w.rows = append(w.rows, r)
	w.byID[r.id] = r
	if w.live {
		w.installRow(r)
	}
	return r.id
}

// installRow expresses a raw row in the current basis and appends it to
// the live tableau with its fresh slack basic.
func (w *WarmProblem) installRow(r *warmRow) {
	s := w.allocCol()
	r.slack = s
	row := w.newRowBuf()
	for c := 0; c < w.ncols; c++ {
		row[c].SetInt64(0)
	}
	for j, v := range r.coef {
		if v != nil {
			row[j].Set(v)
		}
	}
	row[s].SetInt64(1)
	rv := new(big.Rat).Set(r.rhs)
	// One elimination pass restores unit basic columns: every basic
	// column is a unit column in the live tableau, so subtracting each
	// basic row once cannot reintroduce an already-eliminated entry.
	for r2 := range w.mat {
		b2 := w.basis[r2]
		if row[b2].Sign() == 0 {
			continue
		}
		w.f.Set(row[b2])
		for c2 := 0; c2 < w.ncols; c2++ {
			if w.mat[r2][c2].Sign() == 0 {
				continue
			}
			w.d.Mul(&w.f, w.mat[r2][c2])
			row[c2].Sub(row[c2], &w.d)
		}
		w.d.Mul(&w.f, w.rhs[r2])
		rv.Sub(rv, &w.d)
	}
	w.mat = append(w.mat, row)
	w.rhs = append(w.rhs, rv)
	w.basis = append(w.basis, s)
	w.colRow[s] = len(w.mat) - 1
	w.cost[s].SetInt64(0)
}

// RetireRow removes the constraint with the given id. On a live tableau
// the row's slack is pivoted into the basis if necessary — a forced
// pivot that may leave the basis stale (neither primal nor dual
// feasible), in which case the next Solve falls back to a cold start —
// and the row and its slack slot are deleted.
func (w *WarmProblem) RetireRow(id int) {
	r, ok := w.byID[id]
	if !ok {
		panic("lp: RetireRow on unknown row id")
	}
	delete(w.byID, id)
	for i, rr := range w.rows {
		if rr == r {
			w.rows[i] = w.rows[len(w.rows)-1]
			w.rows = w.rows[:len(w.rows)-1]
			break
		}
	}
	if !w.live {
		return
	}
	s := r.slack
	tr := w.colRow[s]
	if tr < 0 {
		// The slack is nonbasic: force it basic first. Some tableau row
		// has a non-zero entry in its column (the row operations are
		// invertible, so the original equation stays in the row span).
		for q := range w.mat {
			if w.mat[q][s].Sign() != 0 {
				w.pivot(q, s)
				tr = q
				break
			}
		}
		if tr < 0 {
			// Defensive: cannot happen, but never leave a dangling row.
			w.dropTableau()
			return
		}
	}
	// With the slack basic in row tr, row tr carries the retired
	// equation with coefficient 1 and every other row with coefficient
	// 0 (the slack appears only in its own equation and its column is a
	// unit vector), so deleting row tr and the slack column removes
	// exactly this constraint.
	last := len(w.mat) - 1
	w.colRow[s] = -1
	w.matPool = append(w.matPool, w.mat[tr])
	w.mat[tr] = w.mat[last]
	w.rhs[tr] = w.rhs[last]
	w.basis[tr] = w.basis[last]
	if tr != last {
		w.colRow[w.basis[tr]] = tr
	}
	w.mat = w.mat[:last]
	w.rhs = w.rhs[:last]
	w.basis = w.basis[:last]
	w.freeCols = append(w.freeCols, s)
	w.cost[s].SetInt64(0)
}

// allocCol returns a zeroed column slot, reusing retired slack slots so
// the tableau width stays bounded by the peak live row count.
func (w *WarmProblem) allocCol() int {
	if n := len(w.freeCols); n > 0 {
		c := w.freeCols[n-1]
		w.freeCols = w.freeCols[:n-1]
		return c
	}
	c := w.ncols
	w.ncols++
	// Recycled row buffers may already span the new width with stale
	// values from a previous life of this problem: growing a column must
	// zero the slot in every live row, not just extend short buffers.
	for r := range w.mat {
		w.mat[r] = growRats(w.mat[r], w.ncols)
		w.mat[r][c].SetInt64(0)
	}
	w.cost = growRats(w.cost, w.ncols)
	for len(w.colRow) < w.ncols {
		w.colRow = append(w.colRow, -1)
	}
	w.colRow[c] = -1
	w.cost[c].SetInt64(0)
	return c
}

// newRowBuf returns a row buffer of at least ncols rats, reusing retired
// buffers.
func (w *WarmProblem) newRowBuf() []*big.Rat {
	if n := len(w.matPool); n > 0 {
		row := w.matPool[n-1]
		w.matPool = w.matPool[:n-1]
		return growRats(row, w.ncols)
	}
	return growRats(nil, w.ncols)
}

// growRats extends r with fresh zero rats up to length n.
func growRats(r []*big.Rat, n int) []*big.Rat {
	for len(r) < n {
		r = append(r, new(big.Rat))
	}
	return r
}

// coldStart rebuilds the tableau from the raw rows on the slack basis.
func (w *WarmProblem) coldStart() {
	w.stats.ColdStarts++
	w.matPool = append(w.matPool, w.mat...)
	w.mat = w.mat[:0]
	w.rhs = w.rhs[:0]
	w.basis = w.basis[:0]
	w.freeCols = w.freeCols[:0]
	w.ncols = w.nVars + len(w.rows)
	w.cost = growRats(w.cost, w.ncols)
	for len(w.colRow) < w.ncols {
		w.colRow = append(w.colRow, -1)
	}
	for c := 0; c < len(w.colRow); c++ {
		w.colRow[c] = -1
	}
	for i, r := range w.rows {
		s := w.nVars + i
		r.slack = s
		row := w.newRowBuf()
		for c := 0; c < w.ncols; c++ {
			row[c].SetInt64(0)
		}
		for j, v := range r.coef {
			if v != nil {
				row[j].Set(v)
			}
		}
		row[s].SetInt64(1)
		w.mat = append(w.mat, row)
		w.rhs = append(w.rhs, new(big.Rat).Set(r.rhs))
		w.basis = append(w.basis, s)
		w.colRow[s] = i
	}
	for j := 0; j < w.nVars; j++ {
		w.cost[j].Neg(w.obj[j]) // minimize -Objective
	}
	for c := w.nVars; c < w.ncols; c++ {
		w.cost[c].SetInt64(0)
	}
	w.costVal.SetInt64(0)
	w.live = true
}

// pivot performs a full tableau pivot on (row, col), maintaining the
// cost row, the objective value and the basis inverse map. Zero cells of
// the pivot row are skipped, as in tableau.pivot.
func (w *WarmProblem) pivot(row, col int) {
	pr := w.mat[row]
	w.inv.Inv(pr[col])
	for c := 0; c < w.ncols; c++ {
		if pr[c].Sign() != 0 {
			pr[c].Mul(pr[c], &w.inv)
		}
	}
	if w.rhs[row].Sign() != 0 {
		w.rhs[row].Mul(w.rhs[row], &w.inv)
	}
	for r2 := range w.mat {
		if r2 == row || w.mat[r2][col].Sign() == 0 {
			continue
		}
		w.f.Set(w.mat[r2][col])
		row2 := w.mat[r2]
		for c := 0; c < w.ncols; c++ {
			if pr[c].Sign() == 0 {
				continue
			}
			w.d.Mul(&w.f, pr[c])
			row2[c].Sub(row2[c], &w.d)
		}
		if w.rhs[row].Sign() != 0 {
			w.d.Mul(&w.f, w.rhs[row])
			w.rhs[r2].Sub(w.rhs[r2], &w.d)
		}
	}
	if w.cost[col].Sign() != 0 {
		w.f.Set(w.cost[col])
		for c := 0; c < w.ncols; c++ {
			if pr[c].Sign() == 0 {
				continue
			}
			w.d.Mul(&w.f, pr[c])
			w.cost[c].Sub(w.cost[c], &w.d)
		}
		if w.rhs[row].Sign() != 0 {
			w.d.Mul(&w.f, w.rhs[row])
			w.costVal.Sub(w.costVal, &w.d)
		}
	}
	w.colRow[w.basis[row]] = -1
	w.basis[row] = col
	w.colRow[col] = row
}

// primalSimplex re-optimizes a primal-feasible tableau with Bland's
// rule. It returns Optimal or Unbounded.
func (w *WarmProblem) primalSimplex() Status {
	var best, ratio big.Rat
	for {
		col := -1
		for c := 0; c < w.ncols; c++ {
			if w.cost[c].Sign() < 0 {
				col = c
				break
			}
		}
		if col < 0 {
			return Optimal
		}
		row := -1
		for r := range w.mat {
			a := w.mat[r][col]
			if a.Sign() <= 0 {
				continue
			}
			ratio.Quo(w.rhs[r], a)
			if row < 0 || ratio.Cmp(&best) < 0 ||
				(ratio.Cmp(&best) == 0 && w.basis[r] < w.basis[row]) {
				row = r
				best.Set(&ratio)
			}
		}
		if row < 0 {
			return Unbounded
		}
		w.stats.PrimalPivots++
		w.pivot(row, col)
	}
}

// dualSimplexCap bounds the pivots of one warm dual re-solve. Bland's
// rule already guarantees termination; the cap is a defensive backstop
// that trades a pathological warm path for a proven cold start.
const dualSimplexCap = 10_000

var errDualStale = errors.New("lp: dual simplex gave up")

// dualSimplex drives a dual-feasible tableau (cost ≥ 0) back to primal
// feasibility, pivoting on the most Bland-ish pair: the negative-RHS row
// with the smallest basic column, and the column minimizing the dual
// ratio with ties by index. It returns errDualStale when the cap trips;
// infeasibility cannot occur because every raw RHS is ≥ 0.
func (w *WarmProblem) dualSimplex() error {
	var best, ratio big.Rat
	for n := 0; ; n++ {
		if n >= dualSimplexCap {
			return errDualStale
		}
		row := -1
		for r := range w.mat {
			if w.rhs[r].Sign() < 0 && (row < 0 || w.basis[r] < w.basis[row]) {
				row = r
			}
		}
		if row < 0 {
			return nil
		}
		col := -1
		for c := 0; c < w.ncols; c++ {
			a := w.mat[row][c]
			if a.Sign() >= 0 {
				continue
			}
			// ratio = cost[c] / (-a) ≥ 0.
			ratio.Quo(w.cost[c], a)
			ratio.Neg(&ratio)
			if col < 0 || ratio.Cmp(&best) < 0 {
				col = c
				best.Set(&ratio)
			}
		}
		if col < 0 {
			// All entries ≥ 0 with RHS < 0 would mean infeasibility,
			// impossible under the b ≥ 0 contract; treat as stale.
			return errDualStale
		}
		w.stats.DualPivots++
		w.pivot(row, col)
	}
}

// Solve (re-)optimizes the problem exactly and returns Optimal or
// Unbounded (infeasibility is impossible under the b ≥ 0 contract). The
// first call cold-starts from the slack basis; later calls resume from
// the previous basis whenever it is still primal or dual feasible, and
// rebuild cold otherwise. Use Value, XVal and RowDual to read the
// optimum.
func (w *WarmProblem) Solve() (Status, error) {
	w.stats.Solves++
	if !w.live {
		w.coldStart()
		return w.finishPrimal()
	}
	negRHS := false
	for r := range w.rhs {
		if w.rhs[r].Sign() < 0 {
			negRHS = true
			break
		}
	}
	negCost := false
	for c := 0; c < w.ncols; c++ {
		if w.cost[c].Sign() < 0 {
			negCost = true
			break
		}
	}
	switch {
	case negRHS && negCost:
		// Stale basis (e.g. after a forced retirement pivot).
		w.coldStart()
		return w.finishPrimal()
	case negRHS:
		w.stats.WarmSolves++
		if err := w.dualSimplex(); err != nil {
			w.coldStart()
			return w.finishPrimal()
		}
		// Dual simplex preserves cost ≥ 0, so the tableau is optimal.
		w.stats.DualSolves++
		return Optimal, nil
	case negCost:
		w.stats.WarmSolves++
		w.stats.PrimalSolves++
		return w.finishPrimal()
	default:
		w.stats.WarmSolves++
		w.stats.NoopSolves++
		return Optimal, nil
	}
}

// finishPrimal runs the primal simplex on the current (primal-feasible)
// tableau. An unbounded tableau stays live: its basis is still feasible,
// and a later AddRow may bound it again.
func (w *WarmProblem) finishPrimal() (Status, error) {
	if st := w.primalSimplex(); st == Unbounded {
		return Unbounded, nil
	}
	return Optimal, nil
}

// Value returns the objective value of the current optimum. The returned
// rat is owned by the engine: read it or copy it before the next
// mutating call.
func (w *WarmProblem) Value() *big.Rat { return w.costVal }

var warmZero = new(big.Rat)

// XVal returns the value of variable j at the current optimum, owned by
// the engine (copy before the next mutating call).
func (w *WarmProblem) XVal(j int) *big.Rat {
	if r := w.colRow[j]; r >= 0 {
		return w.rhs[r]
	}
	return warmZero
}

// RowDual returns the exact dual value of the row with the given id at
// the current optimum (the reduced cost of its slack column), owned by
// the engine. For the covering duals this is the primal cover weight of
// the row's edge, as in Solution.RowDuals.
func (w *WarmProblem) RowDual(id int) *big.Rat {
	r, ok := w.byID[id]
	if !ok || r.slack < 0 {
		return warmZero
	}
	return w.cost[r.slack]
}

// ApproxBytes is a flat estimate of the memory w retains, for cache
// budgeting: every held rat is charged a fixed ~48 bytes (numerator and
// denominator words of the small rationals the covering LPs produce,
// plus headers) and the integer bookkeeping 8 per slot. Eviction only
// needs a consistent order of magnitude, not exactness.
func (w *WarmProblem) ApproxBytes() int64 {
	const ratBytes = 48
	n := len(w.obj) + len(w.rhs) + len(w.cost) + 1
	for _, r := range w.rows {
		n += len(r.coef) + 1
	}
	for _, row := range w.mat {
		n += len(row)
	}
	for _, row := range w.matPool {
		n += len(row)
	}
	b := int64(n) * ratBytes
	b += int64(len(w.basis)+len(w.colRow)+len(w.freeCols)+2*len(w.rows)) * 8
	return b
}
