// Package cdcl implements a self-contained conflict-driven clause
// learning (CDCL) SAT solver: two-watched-literal unit propagation,
// first-UIP conflict analysis with clause learning, VSIDS-style
// exponential variable activities with phase saving, Luby-scheduled
// restarts, activity-driven learnt-clause deletion, and incremental
// solving under assumptions — learned clauses are derived by resolution
// from the clause database alone, so they remain valid across Solve
// calls and across monotone clause additions, which is what lets the
// ordering-based width strategies refine k without restarting from
// scratch (internal/ordenc, solve's sat-ord strategy).
//
// The solver is deliberately dependency-free and deterministic: no
// randomized polarities or seeds, so a given clause/assumption sequence
// always explores the same tree, and the differential tests against the
// exhaustive internal/sat solver are reproducible.
package cdcl

import "fmt"

// Lit is a DIMACS-style literal: +v for variable v (1-based), -v for
// its negation. The zero Lit is invalid.
type Lit int32

// Var returns the 1-based variable index of the literal.
func (l Lit) Var() int {
	if l < 0 {
		return int(-l)
	}
	return int(l)
}

// Pos reports whether the literal is positive.
func (l Lit) Pos() bool { return l > 0 }

// Neg returns the complementary literal.
func (l Lit) Neg() Lit { return -l }

// Status is the outcome of a Solve call.
type Status int

// Solve outcomes. Canceled means the done channel fired before the
// search concluded; the solver state remains valid for another call.
const (
	Unknown Status = iota
	Sat
	Unsat
	Canceled
)

func (s Status) String() string {
	switch s {
	case Sat:
		return "SAT"
	case Unsat:
		return "UNSAT"
	case Canceled:
		return "CANCELED"
	}
	return "UNKNOWN"
}

// Stats are cumulative solver counters. They feed the hg_sat_* metrics
// through the sat-ord strategy.
type Stats struct {
	Solves        int64 // Solve calls
	ReuseSolves   int64 // Solve calls entered with retained learnt clauses
	ReusedLearned int64 // learnt clauses alive at those entries, summed
	Conflicts     int64
	Decisions     int64
	Propagations  int64
	Restarts      int64
	Learned       int64 // clauses learned (cumulative)
	Deleted       int64 // learnt clauses dropped by DB reduction
	AddedClauses  int64 // problem clauses accepted by AddClause
}

// ilit is the internal literal encoding: 2*(v-1) for +v, 2*(v-1)+1 for
// -v, so complementation is one XOR and literals index watch lists
// densely.
type ilit uint32

const ilitUndef = ^ilit(0)

func toIlit(l Lit) ilit {
	if l > 0 {
		return ilit(l-1) << 1
	}
	return ilit(-l-1)<<1 | 1
}

func (p ilit) lit() Lit {
	v := Lit(p>>1) + 1
	if p&1 != 0 {
		return -v
	}
	return v
}

func (p ilit) not() ilit { return p ^ 1 }
func (p ilit) vr() int   { return int(p >> 1) } // 0-based variable

// clause is one problem or learnt clause. lits[0] and lits[1] are the
// watched literals; for a reason clause lits[0] is the implied literal.
type clause struct {
	lits   []ilit
	act    float64
	learnt bool
}

// watcher is one watch-list entry: the watching clause plus a blocker
// literal whose satisfaction skips the clause visit entirely.
type watcher struct {
	c       *clause
	blocker ilit
}

// Solver is an incremental CDCL solver. The zero value is not usable;
// construct with New. Not safe for concurrent use.
type Solver struct {
	nVars   int
	clauses []*clause
	learnts []*clause
	watches [][]watcher // by ilit

	assigns  []int8 // by var: 0 undef, +1 true, -1 false
	phase    []int8 // saved polarity, +1/-1
	level    []int32
	reason   []*clause
	trail    []ilit
	trailLim []int
	qhead    int

	varAct []float64
	varInc float64
	claInc float64
	order  varHeap
	seen   []byte

	model []int8 // snapshot of assigns at the last Sat

	ok    bool // false once the database is UNSAT at level 0
	stats Stats

	done  <-chan struct{}
	polls uint32

	maxLearnts int

	// analyze scratch
	learntBuf []ilit
	clearBuf  []int
}

// New returns an empty solver with no variables.
func New() *Solver {
	s := &Solver{ok: true, varInc: 1, claInc: 1, maxLearnts: 4000}
	s.order.act = &s.varAct
	return s
}

// NumVars returns the number of registered variables.
func (s *Solver) NumVars() int { return s.nVars }

// Stats returns the cumulative counters.
func (s *Solver) Stats() Stats { return s.stats }

// NewVar registers a fresh variable and returns its 1-based index.
func (s *Solver) NewVar() int {
	s.nVars++
	s.assigns = append(s.assigns, 0)
	s.phase = append(s.phase, -1) // default polarity false, as in MiniSat
	s.level = append(s.level, 0)
	s.reason = append(s.reason, nil)
	s.varAct = append(s.varAct, 0)
	s.seen = append(s.seen, 0)
	s.watches = append(s.watches, nil, nil)
	s.order.push(s.nVars - 1)
	return s.nVars
}

// NewVars registers n fresh variables and returns the index of the
// first.
func (s *Solver) NewVars(n int) int {
	first := s.nVars + 1
	for i := 0; i < n; i++ {
		s.NewVar()
	}
	return first
}

// valueI returns the current value of an internal literal: +1 true,
// -1 false, 0 unassigned.
func (s *Solver) valueI(p ilit) int8 {
	v := s.assigns[p.vr()]
	if p&1 != 0 {
		return -v
	}
	return v
}

// Value returns the model value of variable v after a Sat result.
func (s *Solver) Value(v int) bool {
	return s.model[v-1] > 0
}

// ValueLit returns the model value of a literal after a Sat result.
func (s *Solver) ValueLit(l Lit) bool {
	if l > 0 {
		return s.model[l.Var()-1] > 0
	}
	return s.model[l.Var()-1] < 0
}

// AddClause adds a clause over existing variables. It must be called
// between Solve calls (the solver is then at decision level 0). The
// clause is simplified against the top-level assignment; an empty
// simplified clause makes the database unsatisfiable and every further
// Solve returns Unsat. Returns false in exactly that case.
func (s *Solver) AddClause(lits ...Lit) bool {
	if !s.ok {
		return false
	}
	if len(s.trailLim) != 0 {
		panic("cdcl: AddClause above decision level 0")
	}
	// Simplify: drop false literals, detect satisfied/tautological
	// clauses, dedupe.
	buf := make([]ilit, 0, len(lits))
	for _, l := range lits {
		if l == 0 || l.Var() > s.nVars {
			panic(fmt.Sprintf("cdcl: literal %d out of range (nVars=%d)", l, s.nVars))
		}
		p := toIlit(l)
		switch s.valueI(p) {
		case 1:
			return true // satisfied at level 0
		case -1:
			continue // false at level 0: drop
		}
		dup := false
		for _, q := range buf {
			if q == p {
				dup = true
				break
			}
			if q == p.not() {
				return true // tautology
			}
		}
		if !dup {
			buf = append(buf, p)
		}
	}
	s.stats.AddedClauses++
	switch len(buf) {
	case 0:
		s.ok = false
		return false
	case 1:
		s.uncheckedEnqueue(buf[0], nil)
		if s.propagate() != nil {
			s.ok = false
			return false
		}
		return true
	}
	c := &clause{lits: buf}
	s.clauses = append(s.clauses, c)
	s.attach(c)
	return true
}

// attach registers the first two literals of c in the watch lists.
func (s *Solver) attach(c *clause) {
	s.watches[c.lits[0].not()] = append(s.watches[c.lits[0].not()], watcher{c, c.lits[1]})
	s.watches[c.lits[1].not()] = append(s.watches[c.lits[1].not()], watcher{c, c.lits[0]})
}

// detach removes c from the watch lists of its two watched literals.
func (s *Solver) detach(c *clause) {
	for _, p := range []ilit{c.lits[0].not(), c.lits[1].not()} {
		ws := s.watches[p]
		for i := range ws {
			if ws[i].c == c {
				ws[i] = ws[len(ws)-1]
				s.watches[p] = ws[:len(ws)-1]
				break
			}
		}
	}
}

// uncheckedEnqueue asserts p with the given reason clause.
func (s *Solver) uncheckedEnqueue(p ilit, from *clause) {
	v := p.vr()
	if p&1 != 0 {
		s.assigns[v] = -1
	} else {
		s.assigns[v] = 1
	}
	s.level[v] = int32(len(s.trailLim))
	s.reason[v] = from
	s.trail = append(s.trail, p)
}

// propagate performs unit propagation over the trail and returns the
// first conflicting clause, or nil.
func (s *Solver) propagate() *clause {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead] // p is now true; visit clauses watching ¬p
		s.qhead++
		s.stats.Propagations++
		ws := s.watches[p]
		kept := ws[:0]
		for i := 0; i < len(ws); i++ {
			w := ws[i]
			if s.valueI(w.blocker) == 1 {
				kept = append(kept, w)
				continue
			}
			c := w.c
			// Ensure the false literal (¬p) sits at lits[1].
			np := p.not()
			if c.lits[0] == np {
				c.lits[0], c.lits[1] = c.lits[1], np
			}
			first := c.lits[0]
			if first != w.blocker && s.valueI(first) == 1 {
				kept = append(kept, watcher{c, first})
				continue
			}
			// Look for a new literal to watch.
			moved := false
			for j := 2; j < len(c.lits); j++ {
				if s.valueI(c.lits[j]) != -1 {
					c.lits[1], c.lits[j] = c.lits[j], c.lits[1]
					s.watches[c.lits[1].not()] = append(s.watches[c.lits[1].not()], watcher{c, first})
					moved = true
					break
				}
			}
			if moved {
				continue // not kept here
			}
			// Unit or conflicting.
			kept = append(kept, watcher{c, first})
			if s.valueI(first) == -1 {
				// Conflict: keep the remaining watchers, restore list.
				kept = append(kept, ws[i+1:]...)
				s.watches[p] = kept
				s.qhead = len(s.trail)
				return c
			}
			s.uncheckedEnqueue(first, c)
		}
		s.watches[p] = kept
	}
	return nil
}

// decisionLevel returns the current decision level.
func (s *Solver) decisionLevel() int { return len(s.trailLim) }

// newDecisionLevel opens a new decision level.
func (s *Solver) newDecisionLevel() { s.trailLim = append(s.trailLim, len(s.trail)) }

// cancelUntil undoes all assignments above the given decision level.
func (s *Solver) cancelUntil(lvl int) {
	if s.decisionLevel() <= lvl {
		return
	}
	for i := len(s.trail) - 1; i >= s.trailLim[lvl]; i-- {
		p := s.trail[i]
		v := p.vr()
		s.phase[v] = s.assigns[v]
		s.assigns[v] = 0
		s.reason[v] = nil
		s.order.pushIfAbsent(v)
	}
	s.trail = s.trail[:s.trailLim[lvl]]
	s.trailLim = s.trailLim[:lvl]
	s.qhead = len(s.trail)
}

// bumpVar raises a variable's activity.
func (s *Solver) bumpVar(v int) {
	s.varAct[v] += s.varInc
	if s.varAct[v] > 1e100 {
		for i := range s.varAct {
			s.varAct[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.order.update(v)
}

// bumpClause raises a learnt clause's activity.
func (s *Solver) bumpClause(c *clause) {
	c.act += s.claInc
	if c.act > 1e20 {
		for _, lc := range s.learnts {
			lc.act *= 1e-20
		}
		s.claInc *= 1e-20
	}
}

const (
	varDecay = 1 / 0.95
	claDecay = 1 / 0.999
)

// analyze performs first-UIP conflict analysis and returns the learnt
// clause (asserting literal first) and the backjump level. The learnt
// clause is a resolvent of database clauses only, so it is globally
// valid — assumptions enter it as ordinary literals.
func (s *Solver) analyze(confl *clause) ([]ilit, int) {
	learnt := append(s.learntBuf[:0], ilitUndef) // slot 0: asserting literal
	pathC := 0
	p := ilitUndef
	idx := len(s.trail) - 1
	dl := int32(s.decisionLevel())
	for {
		start := 0
		if p != ilitUndef {
			start = 1 // lits[0] of a reason clause is the implied literal p
		}
		if confl.learnt {
			s.bumpClause(confl)
		}
		for _, q := range confl.lits[start:] {
			v := q.vr()
			if s.seen[v] == 0 && s.level[v] > 0 {
				s.seen[v] = 1
				s.bumpVar(v)
				if s.level[v] >= dl {
					pathC++
				} else {
					learnt = append(learnt, q)
				}
			}
		}
		for s.seen[s.trail[idx].vr()] == 0 {
			idx--
		}
		p = s.trail[idx]
		idx--
		s.seen[p.vr()] = 0
		pathC--
		if pathC == 0 {
			break
		}
		confl = s.reason[p.vr()]
	}
	learnt[0] = p.not()

	// Cheap self-subsumption: drop literals whose reason clause is
	// entirely inside the learnt clause's variable set. The seen flags
	// to clear are recorded separately because out is built in place
	// over learnt's backing array.
	toClear := s.clearBuf[:0]
	for _, q := range learnt[1:] {
		s.seen[q.vr()] = 1
		toClear = append(toClear, q.vr())
	}
	out := learnt[:1]
	for _, q := range learnt[1:] {
		if !s.redundant(q) {
			out = append(out, q)
		}
	}
	// Backjump level: highest level among the kept non-asserting
	// literals; move its literal to slot 1 so it gets watched.
	bt := 0
	for i := 1; i < len(out); i++ {
		if lv := int(s.level[out[i].vr()]); lv > bt {
			bt = lv
			out[1], out[i] = out[i], out[1]
		}
	}
	for _, v := range toClear {
		s.seen[v] = 0
	}
	s.clearBuf = toClear
	s.learntBuf = learnt
	return out, bt
}

// redundant reports whether learnt literal q is implied by the rest of
// the learnt clause through its reason clause (one-step minimization:
// every reason literal must itself be marked seen or be at level 0).
func (s *Solver) redundant(q ilit) bool {
	c := s.reason[q.vr()]
	if c == nil {
		return false
	}
	for _, r := range c.lits[1:] {
		if s.seen[r.vr()] == 0 && s.level[r.vr()] > 0 {
			return false
		}
	}
	return true
}

// record installs a learnt clause and asserts its first literal.
func (s *Solver) record(learnt []ilit) {
	s.stats.Learned++
	if len(learnt) == 1 {
		s.uncheckedEnqueue(learnt[0], nil)
		return
	}
	c := &clause{lits: append([]ilit(nil), learnt...), learnt: true}
	s.learnts = append(s.learnts, c)
	s.bumpClause(c)
	s.attach(c)
	s.uncheckedEnqueue(learnt[0], c)
}

// locked reports whether c is the reason of its asserting literal.
func (s *Solver) locked(c *clause) bool {
	return s.valueI(c.lits[0]) == 1 && s.reason[c.lits[0].vr()] == c
}

// reduceDB removes roughly half of the learnt clauses, preferring low
// activity, keeping binary and locked clauses.
func (s *Solver) reduceDB() {
	// Partial selection: sort by activity ascending (simple insertion
	// into buckets is overkill; use sort via slice copy).
	ls := s.learnts
	// In-place selection sort replacement: full sort is fine at this
	// size and runs rarely.
	sortClausesByAct(ls)
	kept := ls[:0]
	limit := len(ls) / 2
	for i, c := range ls {
		if len(c.lits) == 2 || s.locked(c) || i >= limit {
			kept = append(kept, c)
		} else {
			s.detach(c)
			s.stats.Deleted++
		}
	}
	s.learnts = append([]*clause(nil), kept...)
	s.maxLearnts += s.maxLearnts / 2
}

// sortClausesByAct sorts ascending by activity (simple shell sort to
// stay dependency-free in the hot path file).
func sortClausesByAct(cs []*clause) {
	for gap := len(cs) / 2; gap > 0; gap /= 2 {
		for i := gap; i < len(cs); i++ {
			c := cs[i]
			j := i
			for ; j >= gap && cs[j-gap].act > c.act; j -= gap {
				cs[j] = cs[j-gap]
			}
			cs[j] = c
		}
	}
}

// luby returns the i-th element (0-based) of the Luby restart sequence
// 1,1,2,1,1,2,4,…
func luby(i int) int {
	// Find the finite subsequence containing i.
	k := 1
	for (1<<uint(k))-1 < i+1 {
		k++
	}
	for {
		if (1<<uint(k))-1 == i+1 {
			return 1 << uint(k-1)
		}
		i = i - (1 << uint(k-1)) + 1
		k = 1
		for (1<<uint(k))-1 < i+1 {
			k++
		}
	}
}

const restartBase = 100 // conflicts per Luby unit

// Solve determines satisfiability of the clause database. Equivalent to
// SolveUnder with no cancellation and no assumptions.
func (s *Solver) Solve(assumptions ...Lit) Status {
	return s.SolveUnder(nil, assumptions...)
}

// SolveUnder determines satisfiability of the clause database under the
// given assumption literals. done, when non-nil, cancels the search
// (Canceled is returned and the solver remains usable). Learnt clauses
// are retained across calls; Unsat under assumptions does not poison
// the database, only a level-0 conflict does.
func (s *Solver) SolveUnder(done <-chan struct{}, assumptions ...Lit) Status {
	if !s.ok {
		return Unsat
	}
	if done != nil {
		select {
		case <-done:
			return Canceled
		default:
		}
	}
	s.stats.Solves++
	if n := len(s.learnts); n > 0 {
		s.stats.ReuseSolves++
		s.stats.ReusedLearned += int64(n)
	}
	s.done = done
	defer func() { s.done = nil; s.cancelUntil(0) }()

	assum := make([]ilit, len(assumptions))
	for i, l := range assumptions {
		if l == 0 || l.Var() > s.nVars {
			panic(fmt.Sprintf("cdcl: assumption %d out of range", l))
		}
		assum[i] = toIlit(l)
	}

	for restart := 0; ; restart++ {
		st := s.search(assum, luby(restart)*restartBase)
		if st != Unknown {
			return st
		}
		s.stats.Restarts++
	}
}

// search runs CDCL until a result, a cancellation, or conflictLimit
// conflicts (then Unknown requests a restart).
func (s *Solver) search(assum []ilit, conflictLimit int) Status {
	conflicts := 0
	for {
		confl := s.propagate()
		if confl != nil {
			s.stats.Conflicts++
			conflicts++
			if s.decisionLevel() == 0 {
				s.ok = false
				return Unsat
			}
			learnt, bt := s.analyze(confl)
			s.cancelUntil(bt)
			s.record(learnt)
			s.varInc *= varDecay
			s.claInc *= claDecay
			continue
		}
		if s.canceled() {
			s.cancelUntil(0)
			return Canceled
		}
		if conflicts >= conflictLimit {
			s.cancelUntil(0)
			return Unknown
		}
		if len(s.learnts) >= s.maxLearnts {
			s.reduceDB()
		}
		// Decide: assumptions first, then activity order.
		if dl := s.decisionLevel(); dl < len(assum) {
			p := assum[dl]
			switch s.valueI(p) {
			case 1:
				s.newDecisionLevel() // dummy level keeps alignment
			case -1:
				return Unsat // conflicts with the database under earlier assumptions
			default:
				s.stats.Decisions++
				s.newDecisionLevel()
				s.uncheckedEnqueue(p, nil)
			}
			continue
		}
		v := s.pickBranchVar()
		if v < 0 {
			s.storeModel()
			return Sat
		}
		s.stats.Decisions++
		s.newDecisionLevel()
		if s.phase[v] >= 0 {
			s.uncheckedEnqueue(ilit(v)<<1, nil)
		} else {
			s.uncheckedEnqueue(ilit(v)<<1|1, nil)
		}
	}
}

// canceled polls the done channel once every 1024 calls.
func (s *Solver) canceled() bool {
	if s.done == nil {
		return false
	}
	if s.polls++; s.polls&1023 != 0 {
		return false
	}
	select {
	case <-s.done:
		return true
	default:
		return false
	}
}

// pickBranchVar pops the highest-activity unassigned variable
// (0-based), or -1 when all variables are assigned.
func (s *Solver) pickBranchVar() int {
	for !s.order.empty() {
		v := s.order.pop()
		if s.assigns[v] == 0 {
			return v
		}
	}
	return -1
}

// storeModel snapshots the full assignment.
func (s *Solver) storeModel() {
	if cap(s.model) < s.nVars {
		s.model = make([]int8, s.nVars)
	}
	s.model = s.model[:s.nVars]
	copy(s.model, s.assigns)
}

// varHeap is an indexed binary max-heap of variables ordered by
// activity.
type varHeap struct {
	act  *[]float64
	heap []int
	pos  []int // var → heap index, -1 when absent
}

func (h *varHeap) empty() bool { return len(h.heap) == 0 }

func (h *varHeap) less(i, j int) bool {
	return (*h.act)[h.heap[i]] > (*h.act)[h.heap[j]]
}

func (h *varHeap) swap(i, j int) {
	h.heap[i], h.heap[j] = h.heap[j], h.heap[i]
	h.pos[h.heap[i]] = i
	h.pos[h.heap[j]] = j
}

func (h *varHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(i, p) {
			break
		}
		h.swap(i, p)
		i = p
	}
}

func (h *varHeap) down(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < len(h.heap) && h.less(l, best) {
			best = l
		}
		if r < len(h.heap) && h.less(r, best) {
			best = r
		}
		if best == i {
			return
		}
		h.swap(i, best)
		i = best
	}
}

// push inserts a (new) variable.
func (h *varHeap) push(v int) {
	for len(h.pos) <= v {
		h.pos = append(h.pos, -1)
	}
	h.pos[v] = len(h.heap)
	h.heap = append(h.heap, v)
	h.up(h.pos[v])
}

// pushIfAbsent re-inserts v unless it is already queued.
func (h *varHeap) pushIfAbsent(v int) {
	if h.pos[v] < 0 {
		h.pos[v] = len(h.heap)
		h.heap = append(h.heap, v)
		h.up(h.pos[v])
	}
}

// pop removes and returns the maximum-activity variable.
func (h *varHeap) pop() int {
	v := h.heap[0]
	last := len(h.heap) - 1
	h.swap(0, last)
	h.heap = h.heap[:last]
	h.pos[v] = -1
	if last > 0 {
		h.down(0)
	}
	return v
}

// update re-heapifies after v's activity rose.
func (h *varHeap) update(v int) {
	if h.pos[v] >= 0 {
		h.up(h.pos[v])
	}
}
