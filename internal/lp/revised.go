package lp

import (
	"errors"
	"math"
	"sync"
)

// This file is the sparse revised simplex: the production solver behind
// Solve and ResolveFrom.
//
// The model is brought to the equality form  A·x + s = b  with one
// logical variable s_i per row (LE: s ∈ [0,∞), GE: s ∈ (−∞,0],
// EQ: s ∈ [0,0]) and the structural bounds 0 ≤ x ≤ u handled natively by
// the bounded-variable pivot rules — no bound rows, no artificials. The
// basis inverse is never formed: a sparse Markowitz LU of the m×m basis
// (m = user rows only; see sparselu.go) answers FTRAN/BTRAN at a cost
// proportional to the factor nonzeros, with an eta file of product-form
// updates between refactorizations. Pricing is devex (exact steepest
// edge above dseMinRows) with partial pricing and Bland as the
// anti-cycling fallback (pricing.go); reduced costs are maintained by
// rank-one updates and recomputed from scratch at every
// refactorization.
//
// There is one algorithm, the dual simplex, because the model class
// makes every start dual feasible: costs are non-negative (AddVar
// refuses c < 0), so the all-logical basis with every structural at its
// lower bound prices out. Solve starts there. ResolveFrom seats a Basis
// of the same model, perhaps taken before AddRow appended rows (each
// appended row seats its own logical, which keeps the reduced costs),
// or of a same-structure model with new bounds and row constants (the
// reduced costs depend on neither). That is the Theorem-1
// row-generation loop in basis form. A seated basis that is singular or
// not dual feasible is not repaired: ResolveFrom solves cold instead.

// hugeBound is the threshold beyond which an upper bound is treated as
// +∞ (callers occasionally use 1e308 as a stand-in for "unbounded";
// taken literally, a column resting at a bound of that size would
// overflow the basic values). Documented on AddVar — the dense oracle
// takes such bounds literally, so genuinely finite bounds belong far
// below this.
const hugeBound = 1e100

// refactorEvery bounds the eta file: after this many product-form
// updates the basis is refactorized from scratch (which also refreshes
// the incrementally maintained reduced costs).
const refactorEvery = 64

// ftRefactorEvery bounds the Forrest–Tomlin update chain. FT updates
// keep U current instead of replaying ever-longer tableau-column etas,
// so the chain can run three times longer than the product-form file
// before a rebuild pays for itself; stability is guarded per update
// (ftStabTol) rather than by the cadence.
const ftRefactorEvery = 192

// ftMinRows gates the Forrest–Tomlin update path (and with it the
// longer refactorization cadence) by basis size, on speed alone: every
// golden, pivot counts included, also passes with this gate and
// dseMinRows at 0. Small bases refactorize so cheaply that the
// product-form eta file wins (E1's tiny LPs: 156 µs median gated, 201 µs
// forced on); big ones gain (BenchmarkLPSparseSolve2000: 1.56–1.74 s
// gated, 2.10–2.20 s with FT off; DESIGN §8). Package-level so tests can
// force either path.
var ftMinRows = 800

// dseMinRows gates exact dual steepest-edge pricing the same way, on
// speed. Above the gate the dual loop pays one extra (dense-input) FTRAN
// per pivot for reference-free exact weights. Measured on the
// LPSparseSolve family, the pivots saved (−42% at 2000 rows) outrun that
// surcharge somewhere between 1000 rows (−29% pivots, +6% wall) and 2000
// rows (DSE off: 2.12–3.17 s against 1.56–1.74 s); below the crossover
// devex remains the cheap fallback. Package-level so tests can force
// either mode.
var dseMinRows = 1200

// Nonbasic/basic variable states.
const (
	nbLower int8 = iota // nonbasic at lower bound
	nbUpper             // nonbasic at upper bound
	inBasis             // basic
)

// Basis is a reusable snapshot of a revised-simplex basis: which column
// (structural j < NumVars, logical NumVars+i for row i) is basic in each
// row, and at which bound every nonbasic column rests. Solve attaches the
// optimal basis to its Solution; ResolveFrom(basis) warm starts from it
// on the same model after AddRow (row generation), or on a model of the
// same structure with new bounds and row constants.
type Basis struct {
	nVars  int
	nRows  int
	status []int8
	basic  []int
}

// CompatibleWith reports whether ResolveFrom can seat this basis on m:
// the variable counts match and the basis has no more rows than m.
// Seating can still fail (a singular or dual-infeasible basis); then
// ResolveFrom solves cold.
func (b *Basis) CompatibleWith(m *Model) bool {
	return b != nil && b.nVars == m.NumVars() && b.nRows <= m.NumConstraints()
}

// eta is one product-form update: after a pivot on row r with entering
// tableau column w, B_new = B_old · E where E is the identity with column
// r replaced by w. Stored sparsely (rows with w_i ≠ 0, i ≠ r).
type eta struct {
	r   int
	pr  float64 // w_r, the pivot element
	idx []int32
	val []float64
}

// sparse is the per-solve state of the revised simplex.
type sparse struct {
	model *Model
	n     int // structural variables
	mr    int // rows
	nc    int // n + mr columns

	lo, up []float64 // per-column bounds
	cost   []float64 // cost per column (logicals cost 0)

	// CSC of the structural columns (logical columns are implicit e_i),
	// aliasing the model's column copy.
	colStart []int
	colRow   []int
	colVal   []float64

	status []int8
	basic  []int     // basic[i] = column basic in row i
	xB     []float64 // value of the basic variable of each row

	// Sparse LU factorization of the basis plus the eta file of updates
	// since the last refactorization. Above ftMinRows the factorization
	// runs in Forrest–Tomlin mode instead: the eta file stays empty and
	// the factors absorb each pivot in place. needRefactor is raised when
	// an FT update rejects itself on stability grounds — the factors are
	// then unusable until the next refactorization.
	f            luFactor
	etas         []eta
	needRefactor bool

	y     []float64 // duals of the current cost vector
	d     []float64 // reduced costs per column
	alpha []float64 // pivot-row coefficients per column
	wcol  []float64 // FTRAN scratch
	rrow  []float64 // BTRAN scratch

	dw     []float64 // dual devex (or steepest-edge) weights per row
	dstart int       // partial-pricing cursor (rows)

	// dse switches the dual loop from devex to exact steepest-edge
	// weights (dseMinRows gate, decided per solve); tau holds the extra
	// B⁻¹ρ_r FTRAN the Forrest–Goldfarb recurrence needs.
	dse bool
	tau []float64

	pivots int
}

var (
	errSingularBasis   = errors.New("lp: singular basis")
	errNotDualFeasible = errors.New("lp: basis not dual feasible")
)

// warmRetryable reports whether a warm-started run died of something a
// cold restart cures (pivot-budget exhaustion, a singular or
// dual-infeasible seated basis). Matched with errors.Is, not ==, so a
// sentinel that picks up wrapping context on its way out keeps
// triggering the retry.
func warmRetryable(err error) bool {
	return errors.Is(err, ErrIterationLimit) || errors.Is(err, errSingularBasis) ||
		errors.Is(err, errNotDualFeasible)
}

// sparsePool recycles solver states across solves: the slices (including
// the LU workspace) keep their capacity, so the row-generation loop —
// thousands of ResolveFrom calls on similarly sized models — runs the
// whole numerical core without steady-state allocation.
var sparsePool = sync.Pool{New: func() any { return new(sparse) }}

func newSparse(m *Model) *sparse {
	s := sparsePool.Get().(*sparse)
	s.init(m)
	return s
}

// release returns the state to the pool. Solutions never alias solver
// storage (solution() copies everything it exports), so releasing after
// run is safe.
func (s *sparse) release() {
	s.model = nil
	s.colStart, s.colRow, s.colVal = nil, nil, nil
	sparsePool.Put(s)
}

// grown returns s resized to length n, reallocating only when the
// capacity is insufficient (contents are unspecified — callers
// overwrite).
func grown[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

func (s *sparse) init(m *Model) {
	n := len(m.obj)
	mr := len(m.ops)
	s.model, s.n, s.mr, s.nc = m, n, mr, n+mr
	s.lo = grown(s.lo, n+mr)
	s.up = grown(s.up, n+mr)
	s.cost = grown(s.cost, n+mr)
	s.status = grown(s.status, n+mr)
	s.basic = grown(s.basic, mr)
	s.xB = grown(s.xB, mr)
	s.y = grown(s.y, mr)
	s.d = grown(s.d, n+mr)
	s.alpha = grown(s.alpha, n+mr)
	s.wcol = grown(s.wcol, mr)
	s.rrow = grown(s.rrow, mr)
	s.dw = grown(s.dw, mr)
	s.dse = mr >= dseMinRows
	s.tau = grown(s.tau, mr)
	s.etas = s.etas[:0]
	s.needRefactor = false
	s.dstart, s.pivots = 0, 0
	for j := 0; j < n; j++ {
		s.lo[j] = 0
		s.up[j] = m.ub[j]
		if s.up[j] > hugeBound {
			s.up[j] = math.Inf(1)
		}
		s.cost[j] = m.obj[j]
	}
	for i := 0; i < mr; i++ {
		c := n + i
		s.cost[c] = 0 // logical columns are costless (must not leak a pooled value)
		switch m.ops[i] {
		case LE:
			s.lo[c], s.up[c] = 0, math.Inf(1)
		case GE:
			s.lo[c], s.up[c] = math.Inf(-1), 0
		case EQ:
			s.lo[c], s.up[c] = 0, 0
		}
	}
	if !m.cscOK {
		m.buildCSC()
	}
	s.colStart, s.colRow, s.colVal = m.colStart, m.colRow, m.colVal
}

// initFresh seats the all-logical basis: every row's logical is basic
// and every structural rests at its lower bound 0, where its
// non-negative cost prices it out.
func (s *sparse) initFresh() {
	for j := 0; j < s.n; j++ {
		s.status[j] = nbLower
	}
	for i := 0; i < s.mr; i++ {
		s.basic[i] = s.n + i
		s.status[s.n+i] = inBasis
	}
}

// logicalRest is the finite resting bound of a row's logical variable.
func logicalRest(op Op) int8 {
	if op == GE {
		return nbUpper // (−∞, 0]: only the upper bound is finite
	}
	return nbLower // LE: [0, ∞); EQ: [0, 0]
}

// initFromBasis seats a snapshot on the current model. CompatibleWith
// has checked that the variable counts match and that the snapshot has
// no more rows than the model. Rows beyond the snapshot (AddRow appended
// them) seat their own logical: the extended basis is block triangular
// with an identity block, so the reduced costs, and with them dual
// feasibility, carry over. A nonbasic column resting at a bound the model
// makes infinite moves to its lower bound; run then finds out whether the
// seated basis is still dual feasible.
func (s *sparse) initFromBasis(bs *Basis) {
	n := s.n
	copy(s.basic, bs.basic)
	for i := bs.nRows; i < s.mr; i++ {
		s.basic[i] = n + i
	}
	for j := 0; j < n; j++ {
		st := bs.status[j]
		if st == inBasis || (st == nbUpper && math.IsInf(s.up[j], 1)) {
			st = nbLower
		}
		s.status[j] = st
	}
	for i := 0; i < s.mr; i++ {
		s.status[n+i] = logicalRest(s.model.ops[i])
	}
	for _, b := range s.basic {
		s.status[b] = inBasis
	}
}

func (s *sparse) snapshot() *Basis {
	return &Basis{
		nVars:  s.n,
		nRows:  s.mr,
		status: append([]int8(nil), s.status...),
		basic:  append([]int(nil), s.basic...),
	}
}

// factorize rebuilds the sparse LU of the current basis and clears the
// eta file.
func (s *sparse) factorize() error {
	f := &s.f
	f.begin(s.mr)
	for i, b := range s.basic {
		if b < s.n {
			for k := s.colStart[b]; k < s.colStart[b+1]; k++ {
				f.load(int32(s.colRow[k]), int32(i), s.colVal[k])
			}
		} else {
			f.load(int32(b-s.n), int32(i), 1)
		}
		f.endCol()
	}
	if err := f.eliminate(); err != nil {
		return err
	}
	if s.mr >= ftMinRows {
		f.initUpdatable()
	} else {
		f.updatable = false
	}
	s.etas = s.etas[:0]
	s.needRefactor = false
	return nil
}

// updates counts basis changes absorbed since the last refactorization,
// in whichever representation is active.
func (s *sparse) updates() int {
	if s.f.updatable {
		return s.f.nupd
	}
	return len(s.etas)
}

// refactorLimit is the update-chain length that triggers a rebuild.
func (s *sparse) refactorLimit() int {
	if s.f.updatable {
		return ftRefactorEvery
	}
	return refactorEvery
}

// ftran solves B·x = v in place (v has length mr).
func (s *sparse) ftran(v []float64) {
	s.f.ftran(v)
	for e := range s.etas {
		et := &s.etas[e]
		t := v[et.r] / et.pr
		if t != 0 {
			for k, i := range et.idx {
				v[i] -= et.val[k] * t
			}
		}
		v[et.r] = t
	}
}

// btran solves Bᵀ·y = v in place (v has length mr).
func (s *sparse) btran(v []float64) {
	for e := len(s.etas) - 1; e >= 0; e-- {
		et := &s.etas[e]
		t := v[et.r]
		for k, i := range et.idx {
			t -= et.val[k] * v[i]
		}
		v[et.r] = t / et.pr
	}
	s.f.btran(v)
}

// boundVal returns the resting value of a nonbasic column.
func (s *sparse) boundVal(j int) float64 {
	if s.status[j] == nbUpper {
		return s.up[j]
	}
	return s.lo[j]
}

// computeXB recomputes the basic values from scratch:
// x_B = B⁻¹(b − N·x_N).
func (s *sparse) computeXB() {
	for i := 0; i < s.mr; i++ {
		s.xB[i] = s.model.rhs[i]
	}
	for j := 0; j < s.n; j++ {
		if s.status[j] == inBasis {
			continue
		}
		v := s.boundVal(j)
		if v == 0 {
			continue
		}
		for k := s.colStart[j]; k < s.colStart[j+1]; k++ {
			s.xB[s.colRow[k]] -= s.colVal[k] * v
		}
	}
	// Nonbasic logicals always rest at 0; nothing to subtract.
	s.ftran(s.xB)
}

// computeDuals refreshes y = B⁻ᵀ c_B and the reduced costs d = c − AᵀB⁻ᵀc_B
// for every column (basic columns read ~0, used only as a consistency
// signal). Between calls, the pivot loops keep d current with rank-one
// updates (updateDualsAfterPivot); this is the from-scratch anchor they
// re-sync to at refactorizations.
func (s *sparse) computeDuals() {
	for i, b := range s.basic {
		s.y[i] = s.cost[b]
	}
	s.btran(s.y)
	for j := 0; j < s.n; j++ {
		dj := s.cost[j]
		for k := s.colStart[j]; k < s.colStart[j+1]; k++ {
			dj -= s.y[s.colRow[k]] * s.colVal[k]
		}
		s.d[j] = dj
	}
	for i := 0; i < s.mr; i++ {
		s.d[s.n+i] = s.cost[s.n+i] - s.y[i]
	}
}

// ftranColumn gathers column q of [A|I] into wcol and FTRANs it.
func (s *sparse) ftranColumn(q int) {
	for i := range s.wcol {
		s.wcol[i] = 0
	}
	if q < s.n {
		for k := s.colStart[q]; k < s.colStart[q+1]; k++ {
			s.wcol[s.colRow[k]] += s.colVal[k]
		}
	} else {
		s.wcol[q-s.n] = 1
	}
	s.ftran(s.wcol)
}

// replaceBasis pivots column q into row r (tableau column w = wcol),
// records the eta, and rests the leaving variable at the bound it hit.
func (s *sparse) replaceBasis(r, q int, enterVal float64, leaveStatus int8) {
	lv := s.basic[r]
	s.status[lv] = leaveStatus
	s.basic[r] = q
	s.status[q] = inBasis
	s.xB[r] = enterVal
	if s.f.updatable {
		// Forrest–Tomlin: fold the pivot into the factors. ftranColumn(q)
		// was the last FTRAN, so the spike stash is the entering column's
		// forward intermediate. A rejected update tears the factor;
		// refresh rebuilds it from the already-updated basic[] before the
		// next solve touches it.
		if !s.f.update(r) {
			s.needRefactor = true
		}
		s.pivots++
		return
	}
	// Reuse the eta slot (and its slices) left from a previous solve.
	if cap(s.etas) > len(s.etas) {
		s.etas = s.etas[:len(s.etas)+1]
	} else {
		s.etas = append(s.etas, eta{})
	}
	et := &s.etas[len(s.etas)-1]
	et.r, et.pr = r, s.wcol[r]
	et.idx, et.val = et.idx[:0], et.val[:0]
	for i, w := range s.wcol {
		if i != r && w != 0 {
			et.idx = append(et.idx, int32(i))
			et.val = append(et.val, w)
		}
	}
	s.pivots++
}

// refresh refactorizes when the update chain is long, torn by a rejected
// FT update, or when forced, and recomputes the basic values; it reports
// whether it refactorized so the pivot loops can re-anchor their
// incremental reduced costs.
func (s *sparse) refresh(force bool) (bool, error) {
	if force || s.needRefactor || s.updates() >= s.refactorLimit() {
		if err := s.factorize(); err != nil {
			return false, err
		}
		s.computeXB()
		return true, nil
	}
	return false, nil
}

func (s *sparse) maxPivots() int { return 5000 + 200*(s.mr+s.nc) }

// confirmSkipMax is the longest update chain whose terminal optimality
// confirmation may be answered by the O(nnz) residual check instead of a
// full refactorization; confirmResTol is that check's per-row relative
// tolerance.
const (
	confirmSkipMax = 8
	confirmResTol  = 1e-9
)

// residualOK verifies the incrementally maintained basic values against
// the model directly: r = b − N·x_N − B·x_B must vanish row-wise
// relative to the magnitudes that formed it. One pass over the nonzeros
// — no factorization, no triangular solves.
func (s *sparse) residualOK() bool {
	res := s.rrow
	mag := s.alpha[:s.mr] // pivot-row scratch, dead between pivots
	for i := 0; i < s.mr; i++ {
		r := s.model.rhs[i]
		res[i] = r
		mag[i] = 1 + math.Abs(r)
	}
	for j := 0; j < s.n; j++ {
		if s.status[j] == inBasis {
			continue
		}
		v := s.boundVal(j)
		if v == 0 {
			continue
		}
		for k := s.colStart[j]; k < s.colStart[j+1]; k++ {
			t := s.colVal[k] * v
			res[s.colRow[k]] -= t
			mag[s.colRow[k]] += math.Abs(t)
		}
	}
	// Nonbasic logicals rest at 0 under every row op; only basic ones
	// carry a value.
	for i, b := range s.basic {
		x := s.xB[i]
		if x == 0 {
			continue
		}
		if b < s.n {
			for k := s.colStart[b]; k < s.colStart[b+1]; k++ {
				t := s.colVal[k] * x
				res[s.colRow[k]] -= t
				mag[s.colRow[k]] += math.Abs(t)
			}
		} else {
			res[b-s.n] -= x
			mag[b-s.n] += math.Abs(x)
		}
	}
	for i := 0; i < s.mr; i++ {
		if !(math.Abs(res[i]) <= confirmResTol*mag[i]) {
			return false // NaN-safe: a poisoned residual must fail
		}
	}
	return true
}

// dualSimplex repairs primal feasibility while keeping dual feasibility.
// It returns Optimal when every basic value sits within its bounds,
// Infeasible when a violated row admits no entering column (dual
// unbounded ⇒ primal empty). The caller has just computed y and d from
// the current basis and factors.
func (s *sparse) dualSimplex() (Status, error) {
	degenerate := 0
	s.resetDualDevex()
	fresh := true
	for {
		refactored, err := s.refresh(false)
		if err != nil {
			return 0, err
		}
		if refactored {
			s.computeDuals()
			fresh = true
		}
		bland := degenerate > 2*s.mr+20
		if bland && !fresh {
			// The anti-cycling rule must act on exact signs, not drifted
			// increments.
			s.computeDuals()
			fresh = true
		}
		r, above := s.chooseDualLeaving(bland)
		if r == -1 {
			if fresh && s.updates() == 0 {
				return Optimal, nil
			}
			// Confirm optimality. The violation scan read incrementally
			// maintained basic values; after a short update chain a direct
			// O(nnz) residual check certifies them without the full
			// refactorization — pure overhead on the small LPs that finish
			// in a handful of pivots.
			if s.updates() <= confirmSkipMax && s.residualOK() {
				return Optimal, nil
			}
			if _, err := s.refresh(true); err != nil {
				return 0, err
			}
			s.computeDuals()
			fresh = true
			if r, above = s.chooseDualLeaving(bland); r == -1 {
				return Optimal, nil
			}
		}
		// Pivotal row: ρ = B⁻ᵀe_r, α_j = ρ·A_j.
		for i := range s.rrow {
			s.rrow[i] = 0
		}
		s.rrow[r] = 1
		s.btran(s.rrow)
		s.pivotRowAlphas()
		sigma := 1.0
		if !above {
			sigma = -1
		}
		enter, bestRatio, bestAbs := -1, math.Inf(1), 0.0
		for j := 0; j < s.nc; j++ {
			if s.status[j] == inBasis || s.lo[j] == s.up[j] {
				continue
			}
			a := sigma * s.alpha[j]
			if s.status[j] == nbLower {
				if a <= pivotTol {
					continue
				}
			} else if a >= -pivotTol {
				continue
			}
			ratio := s.d[j] / a
			if ratio < 0 {
				ratio = 0 // dual round-off; treat as a degenerate step
			}
			// The dual ratio test always applies — entering a column whose
			// ratio exceeds the minimum would push another reduced cost
			// through zero and destroy dual feasibility. Bland mode only
			// changes the tie-break: smallest index (the ascending scan's
			// incumbent) instead of the numerically largest pivot.
			if ratio < bestRatio-optTol || (!bland && ratio < bestRatio+optTol && math.Abs(a) > bestAbs) {
				enter, bestRatio, bestAbs = j, ratio, math.Abs(a)
			}
		}
		if enter == -1 {
			if !fresh {
				// Entering admissibility read incremental numbers; retry
				// once from an exact factorization before declaring the
				// dual unbounded.
				if _, err := s.refresh(true); err != nil {
					return 0, err
				}
				s.computeDuals()
				fresh = true
				continue
			}
			return Infeasible, nil
		}
		gammaR := 0.0
		if s.dse {
			// Steepest-edge inputs: the exact leaving-row norm ‖ρ_r‖² and
			// τ = B⁻¹ρ_r. Solved before the entering column's FTRAN so that
			// the Forrest–Tomlin spike stash belongs to the entering
			// column when replaceBasis folds the pivot into the factors.
			for _, v := range s.rrow[:s.mr] {
				gammaR += v * v
			}
			copy(s.tau[:s.mr], s.rrow[:s.mr])
			s.ftran(s.tau)
		}
		s.ftranColumn(enter)
		wr := s.wcol[r]
		if math.Abs(wr) < pivotTol {
			// The eta-file estimate of the pivot has decayed; refactorize
			// and retry the iteration with fresh numbers.
			if _, err := s.refresh(true); err != nil {
				return 0, err
			}
			s.computeDuals()
			fresh = true
			s.ftranColumn(enter)
			wr = s.wcol[r]
			if math.Abs(wr) < pivotTol {
				return 0, errSingularBasis
			}
		}
		lv := s.basic[r]
		bound := s.lo[lv]
		leaveStatus := nbLower
		if above {
			bound = s.up[lv]
			leaveStatus = nbUpper
		}
		dx := (s.xB[r] - bound) / wr
		for i := range s.xB {
			if w := s.wcol[i]; w != 0 {
				s.xB[i] -= dx * w
			}
		}
		s.updateDualsAfterPivot(enter, lv)
		if s.dse {
			s.updateDualSteepestEdge(r, gammaR)
		} else {
			s.updateDualDevex(r)
		}
		enterVal := s.boundVal(enter) + dx
		s.replaceBasis(r, enter, enterVal, leaveStatus)
		fresh = false
		if bestRatio < optTol {
			degenerate++
		} else {
			degenerate = 0
		}
		if s.pivots > s.maxPivots() {
			return 0, ErrIterationLimit
		}
	}
}

// dualFeasible reports whether the current reduced costs satisfy the
// bounded-variable dual feasibility conditions.
func (s *sparse) dualFeasible() bool {
	for j := 0; j < s.nc; j++ {
		switch s.status[j] {
		case nbLower:
			if s.lo[j] != s.up[j] && s.d[j] < -optTol {
				return false
			}
		case nbUpper:
			if s.lo[j] != s.up[j] && s.d[j] > optTol {
				return false
			}
		}
	}
	return true
}

// solution extracts the Solution from an Optimal terminal state.
func (s *sparse) solution() *Solution {
	sol := &Solution{Status: Optimal, Pivots: s.pivots}
	sol.X = make([]float64, s.n)
	for j := 0; j < s.n; j++ {
		if s.status[j] != inBasis {
			sol.X[j] = s.boundVal(j)
		}
	}
	for i, b := range s.basic {
		if b < s.n {
			sol.X[b] = s.xB[i]
		}
	}
	for j := range sol.X {
		if sol.X[j] < 0 && sol.X[j] > -FeasTol {
			sol.X[j] = 0
		}
	}
	sol.Objective = s.model.Value(sol.X)
	// Duals in the user's row orientation (the equality form never
	// negates rows, so y is already it), plus the bounded-form strong
	// duality certificate: c·x = y·b + Σ_{j at upper} d_j·u_j (lower
	// bounds are all 0).
	sol.Duals = append([]float64(nil), s.y...)
	dualObj := 0.0
	for i := 0; i < s.mr; i++ {
		dualObj += s.y[i] * s.model.rhs[i]
	}
	for j := 0; j < s.n; j++ {
		if s.status[j] == nbUpper {
			dualObj += s.d[j] * s.up[j]
		}
	}
	sol.DualityGap = math.Abs(dualObj - sol.Objective)
	sol.Basis = s.snapshot()
	return sol
}

// run factorizes the seated basis and, when it is dual feasible, runs
// the dual simplex from it. A basis that is not dual feasible is refused
// with errNotDualFeasible; a cold start never is, since its reduced
// costs are the non-negative costs themselves.
func (s *sparse) run() (*Solution, error) {
	if _, err := s.refresh(true); err != nil {
		return nil, err
	}
	s.computeDuals()
	if !s.dualFeasible() {
		return nil, errNotDualFeasible
	}
	st, err := s.dualSimplex()
	if err != nil {
		return nil, err
	}
	if st == Infeasible {
		return &Solution{Status: Infeasible, Pivots: s.pivots}, nil
	}
	s.computeDuals()
	return s.solution(), nil
}

// Solve runs the sparse revised simplex from scratch and returns the
// solution, including a reusable Basis for warm-started re-solves.
func (m *Model) Solve() (*Solution, error) {
	s := newSparse(m)
	defer s.release()
	s.initFresh()
	return s.run()
}

// ResolveFrom re-solves the model with the dual simplex from a Basis
// captured by an earlier Solve/ResolveFrom: of this model before AddRow
// appended violated constraints (row generation), or of a model with the
// same structure and new bounds or row constants. Every appended row
// seats its own logical. A nil basis, one with the wrong variable count
// or more rows than the model, and one that seats singular or not dual
// feasible all give the cold Solve's answer, pivot count included.
func (m *Model) ResolveFrom(bs *Basis) (*Solution, error) {
	if !bs.CompatibleWith(m) {
		return m.Solve()
	}
	s := newSparse(m)
	defer s.release()
	s.initFromBasis(bs)
	sol, err := s.run()
	if warmRetryable(err) {
		// A basis the dual simplex cannot start from, or one that ran
		// into a degenerate or numerically decayed pivot path: retry cold
		// rather than surfacing a pathology the caller cannot act on.
		return m.Solve()
	}
	if err == nil && sol.Status != Optimal {
		// Same reasoning for a warm run that *terminates* wrong: eta-file
		// decay can make a feasible model read as Infeasible (every
		// admissible pivot washed out to ~0). A cold solve re-derives the
		// status from a fresh factorization; if the model truly is
		// infeasible or unbounded, it says so too.
		return m.Solve()
	}
	return sol, err
}
