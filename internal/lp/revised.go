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
// updates between refactorizations. Pricing is devex with partial
// pricing in both loops and Bland as the anti-cycling fallback
// (pricing.go); reduced costs are maintained by rank-one updates and
// recomputed from scratch at every refactorization.
//
// Solve runs dual simplex from the all-logical basis under the shifted
// cost ĉ = max(c,0) — always dual feasible — then primal simplex under
// the true cost; when c ≥ 0 (every SNE model) the first phase is already
// the whole solve. ResolveFrom restores a previous optimal Basis — from
// this model (row generation) or from a structurally compatible *other*
// model (cross-instance basis homotopy) — projects it onto the current
// row set, repairs what a bound flip can repair, and re-solves with
// whichever simplex the projected basis is feasible for. That is the
// Theorem-1 row-generation loop, and the sweep-family warm-start chain,
// in basis form.

// hugeBound is the threshold beyond which an upper bound is treated as
// +∞ (callers occasionally use 1e308 as a stand-in for "unbounded";
// taken literally, a bound flip of that size would overflow the basic
// values). Documented on AddVar — the dense oracle takes such bounds
// literally, so genuinely finite bounds belong far below this.
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
// optimal basis to its Solution; ResolveFrom(basis) warm starts from it —
// after AddRow on the same model (row generation), or on a different
// model with the same variable block (cross-instance homotopy: nearby
// sweep instances hand their optimal basis down the chain).
type Basis struct {
	nVars  int
	nRows  int
	status []int8
	basic  []int
}

// CompatibleWith reports whether ResolveFrom can warm start m from this
// basis: the variable block must match — rows may differ in both number
// and shape (they are projected).
func (b *Basis) CompatibleWith(m *Model) bool {
	return b != nil && b.nVars == m.NumVars()
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
	cost   []float64 // current phase's cost per column
	real   []float64 // true cost per column

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

	pw     []float64 // primal devex weights per column
	dw     []float64 // dual devex (or steepest-edge) weights per row
	pstart int       // partial-pricing cursor (columns)
	dstart int       // partial-pricing cursor (rows)

	// dse switches the dual loop from devex to exact steepest-edge
	// weights (dseMinRows gate, decided per solve); tau holds the extra
	// B⁻¹ρ_r FTRAN the Forrest–Goldfarb recurrence needs.
	dse bool
	tau []float64

	ltaken []bool // initFromBasis scratch

	// warmSeated marks a basis projected from a snapshot (initFromBasis):
	// run() then earns a cost-shifted dual phase-1 rung before giving up
	// on the warm start.
	warmSeated bool

	pivots int
}

var errSingularBasis = errors.New("lp: singular basis")

// warmRetryable reports whether a warm-started run died of a pathology a
// cold restart cures (pivot-budget exhaustion, singular projected basis).
// Matched with errors.Is, not ==, so a sentinel that picks up wrapping
// context on its way out keeps triggering the retry.
func warmRetryable(err error) bool {
	return errors.Is(err, ErrIterationLimit) || errors.Is(err, errSingularBasis)
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
	s.real = grown(s.real, n+mr)
	s.status = grown(s.status, n+mr)
	s.basic = grown(s.basic, mr)
	s.xB = grown(s.xB, mr)
	s.y = grown(s.y, mr)
	s.d = grown(s.d, n+mr)
	s.alpha = grown(s.alpha, n+mr)
	s.wcol = grown(s.wcol, mr)
	s.rrow = grown(s.rrow, mr)
	s.pw = grown(s.pw, n+mr)
	s.dw = grown(s.dw, mr)
	s.dse = mr >= dseMinRows
	s.tau = grown(s.tau, mr)
	s.etas = s.etas[:0]
	s.needRefactor = false
	s.pstart, s.dstart, s.pivots = 0, 0, 0
	s.warmSeated = false
	for j := 0; j < n; j++ {
		s.lo[j] = 0
		s.up[j] = m.ub[j]
		if s.up[j] > hugeBound {
			s.up[j] = math.Inf(1)
		}
		s.real[j] = m.obj[j]
	}
	for i := 0; i < mr; i++ {
		c := n + i
		s.real[c] = 0 // logical columns are costless (must not leak a pooled value)
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

// initFresh seats the all-logical basis: every row's logical is basic,
// structurals rest at the bound their cost prefers (a variable that wants
// to grow and can — negative cost, finite upper bound — starts there).
func (s *sparse) initFresh() {
	for j := 0; j < s.n; j++ {
		if s.real[j] < 0 && !math.IsInf(s.up[j], 1) {
			s.status[j] = nbUpper
		} else {
			s.status[j] = nbLower
		}
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

// initFromBasis projects a snapshot onto the current model. The variable
// blocks match (checked by CompatibleWith before this is called); rows
// need not:
//
//   - rows beyond the snapshot (row generation added them) seat their own
//     logical, which preserves dual feasibility — the extended basis is
//     block triangular with an identity block;
//   - snapshot rows beyond the model (homotopy from a larger instance)
//     are dropped, and any row left without a basic column — its basic
//     column belonged only to a dropped row — takes a free logical;
//   - a nonbasic column resting at a bound the current model makes
//     infinite is moved to its finite bound.
//
// The projection is total: any structural mismatch degrades into a basis
// the simplex can still start from, and a numerically singular projection
// is caught by factorize (ResolveFrom then falls back to a cold solve).
func (s *sparse) initFromBasis(bs *Basis) {
	n := s.n
	keep := bs.nRows
	if keep > s.mr {
		keep = s.mr
	}
	s.ltaken = grown(s.ltaken, s.mr)
	logicalTaken := s.ltaken
	for i := range logicalTaken {
		logicalTaken[i] = false
	}
	for i := range s.basic {
		s.basic[i] = -1
	}
	for i := 0; i < keep; i++ {
		b := bs.basic[i]
		if b >= bs.nVars {
			t := b - bs.nVars
			if t >= s.mr {
				continue // logical of a dropped row: reseat below
			}
			b = n + t
			logicalTaken[t] = true
		}
		s.basic[i] = b
	}
	for i := keep; i < s.mr; i++ {
		// Fresh rows: own logical. Never taken by a kept row — snapshot
		// logicals are bounded by the snapshot's (smaller) row count.
		s.basic[i] = n + i
		logicalTaken[i] = true
	}
	free := 0
	for i := 0; i < s.mr; i++ {
		if s.basic[i] != -1 {
			continue
		}
		if !logicalTaken[i] {
			s.basic[i] = n + i
			logicalTaken[i] = true
			continue
		}
		for logicalTaken[free] {
			free++ // always terminates: one column per row, mr logicals
		}
		s.basic[i] = n + free
		logicalTaken[free] = true
	}
	// Statuses: structural nonbasic columns keep their snapshot bound
	// where finite; logicals rest at their op's finite bound; everything
	// seated above is basic.
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
	s.warmSeated = true
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

// dualSimplex repairs primal feasibility while keeping dual feasibility,
// under the current cost vector. It returns Optimal when every basic
// value sits within its bounds, Infeasible when a violated row admits no
// entering column (dual unbounded ⇒ primal empty). dualsFresh reports
// that y and d were just computed from the current basis, factors and
// cost vector, so the opening recompute would reproduce them bit for bit.
func (s *sparse) dualSimplex(dualsFresh bool) (Status, error) {
	degenerate := 0
	s.resetDualDevex()
	if !dualsFresh {
		s.computeDuals()
	}
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

// primalSimplex improves the current cost from a primal-feasible basis.
// It returns Optimal or Unbounded. dualsFresh is as for dualSimplex.
func (s *sparse) primalSimplex(dualsFresh bool) (Status, error) {
	degenerate := 0
	s.resetPrimalDevex()
	if !dualsFresh {
		s.computeDuals()
	}
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
			s.computeDuals()
			fresh = true
		}
		enter := s.choosePrimalEntering(bland)
		if enter == -1 {
			if fresh && s.updates() == 0 {
				return Optimal, nil
			}
			// Confirm optimality. The entering scan reads incrementally
			// maintained reduced costs: recompute those from the current
			// factors and re-scan, skipping the full refactorization when
			// the update chain is short and the basic values pass a direct
			// residual check.
			if s.updates() <= confirmSkipMax && s.residualOK() {
				s.computeDuals()
				fresh = true
			} else {
				if _, err := s.refresh(true); err != nil {
					return 0, err
				}
				s.computeDuals()
				fresh = true
			}
			if enter = s.choosePrimalEntering(bland); enter == -1 {
				return Optimal, nil
			}
		}
		s.ftranColumn(enter)
		sigma := 1.0
		if s.status[enter] == nbUpper {
			sigma = -1
		}
		// Ratio test: the entering variable moves by t ≥ 0 in direction
		// sigma; each basic value moves by −t·sigma·w_i until one hits a
		// bound, or the entering variable flips to its other bound.
		t := s.up[enter] - s.lo[enter]
		leave, leaveStatus := -1, nbLower
		for i := 0; i < s.mr; i++ {
			a := sigma * s.wcol[i]
			b := s.basic[i]
			var ratio float64
			var hit int8
			if a > pivotTol {
				if math.IsInf(s.lo[b], -1) {
					continue
				}
				ratio, hit = (s.xB[i]-s.lo[b])/a, nbLower
			} else if a < -pivotTol {
				if math.IsInf(s.up[b], 1) {
					continue
				}
				ratio, hit = (s.up[b]-s.xB[i])/(-a), nbUpper
			} else {
				continue
			}
			if ratio < 0 {
				ratio = 0 // feasibility round-off
			}
			better := ratio < t-pivotTol
			if !better && ratio < t+pivotTol && leave != -1 {
				if bland {
					better = s.basic[i] < s.basic[leave]
				} else {
					better = math.Abs(a) > math.Abs(sigma*s.wcol[leave])
				}
			}
			if better {
				t, leave, leaveStatus = ratio, i, hit
			}
		}
		if math.IsInf(t, 1) {
			return Unbounded, nil
		}
		dx := sigma * t
		for i := range s.xB {
			if w := s.wcol[i]; w != 0 {
				s.xB[i] -= dx * w
			}
		}
		if leave == -1 {
			// Bound flip: the entering variable crosses to its other
			// bound without a basis change (reduced costs unchanged).
			if s.status[enter] == nbLower {
				s.status[enter] = nbUpper
			} else {
				s.status[enter] = nbLower
			}
			s.pivots++
		} else {
			lv := s.basic[leave]
			// Pivot row for the incremental dual update and the devex
			// reference weights.
			for i := range s.rrow {
				s.rrow[i] = 0
			}
			s.rrow[leave] = 1
			s.btran(s.rrow)
			s.pivotRowAlphas()
			updated := false
			if alphaQ := s.alpha[enter]; math.Abs(alphaQ) >= pivotTol {
				s.updateDualsAfterPivot(enter, lv)
				s.updatePrimalDevex(enter, lv, alphaQ)
				updated = true
			}
			enterVal := s.boundVal(enter) + dx
			s.replaceBasis(leave, enter, enterVal, leaveStatus)
			if updated {
				fresh = false
			} else {
				// The pivot-row estimate of α_q decayed; re-anchor the
				// duals on the post-pivot basis instead of updating.
				s.computeDuals()
				fresh = true
			}
		}
		if t < pivotTol {
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

// flipToDualFeasible repairs dual infeasibility without pivoting: a
// nonbasic column whose reduced cost prefers its other bound flips there
// when that bound is finite. The basis (and therefore y and d) is
// unchanged, so the repair is exact; it reports whether anything moved
// (the basic values must then be recomputed). Columns whose preferred
// bound is infinite stay put — those need a phase-1, not a flip.
func (s *sparse) flipToDualFeasible() bool {
	flipped := false
	for j := 0; j < s.nc; j++ {
		if s.lo[j] == s.up[j] {
			continue
		}
		switch s.status[j] {
		case nbLower:
			if s.d[j] < -optTol && !math.IsInf(s.up[j], 1) {
				s.status[j] = nbUpper
				flipped = true
			}
		case nbUpper:
			if s.d[j] > optTol && !math.IsInf(s.lo[j], -1) {
				s.status[j] = nbLower
				flipped = true
			}
		}
	}
	return flipped
}

// primalFeasibleNow reports whether every basic value sits within its
// bounds (same tolerance as the dual simplex's violation scan).
func (s *sparse) primalFeasibleNow() bool {
	for i, b := range s.basic {
		if s.xB[i] < s.lo[b]-FeasTol*(1+math.Abs(s.lo[b])) ||
			s.xB[i] > s.up[b]+FeasTol*(1+math.Abs(s.up[b])) {
			return false
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

// run drives the phases from the current (already seated) basis. The
// warm-start ladder: dual simplex when the basis is dual feasible (after
// free bound-flip repairs), primal simplex when it is at least primal
// feasible, and only then the cold two-phase from the all-logical basis.
func (s *sparse) run() (*Solution, error) {
	if _, err := s.refresh(true); err != nil {
		return nil, err
	}
	copy(s.cost, s.real)
	s.computeDuals()
	if !s.dualFeasible() && s.flipToDualFeasible() {
		s.computeXB() // flipped columns rest at new values
	}
	// Bound flips move no basic column and no cost, so the duals just
	// computed stay exact for whichever of the first two rungs runs.
	if s.dualFeasible() {
		st, err := s.dualSimplex(true)
		if err != nil {
			return nil, err
		}
		if st == Infeasible {
			return &Solution{Status: Infeasible, Pivots: s.pivots}, nil
		}
		s.computeDuals()
		return s.solution(), nil
	}
	if s.primalFeasibleNow() {
		// Homotopy middle rung: a projected foreign basis often lands
		// primal feasible but not dual feasible — the primal simplex
		// finishes from it without discarding the warm start.
		st, err := s.primalSimplex(true)
		if err != nil {
			return nil, err
		}
		if st == Unbounded {
			return &Solution{Status: Unbounded, Pivots: s.pivots}, nil
		}
		s.computeDuals()
		return s.solution(), nil
	}
	if s.warmSeated {
		// Homotopy bottom rung: the projected basis is neither dual nor
		// primal feasible — the typical landing spot when a nearby
		// instance perturbs both the geometry and the prices. Shift each
		// offending nonbasic cost by exactly its reduced cost: the basis
		// becomes dual feasible *by construction* under the shifted
		// objective (y depends only on basic costs, which are untouched),
		// the dual simplex then repairs primal feasibility from the warm
		// basis — for a genuinely nearby instance that is a handful of
		// pivots — and the primal simplex finishes under the true costs.
		// An Infeasible verdict here is real: primal feasibility does not
		// depend on the objective.
		for j := 0; j < s.nc; j++ {
			if s.status[j] == inBasis || s.lo[j] == s.up[j] {
				continue
			}
			if s.status[j] == nbLower && s.d[j] < 0 {
				s.cost[j] -= s.d[j]
			} else if s.status[j] == nbUpper && s.d[j] > 0 {
				s.cost[j] -= s.d[j]
			}
		}
		st, err := s.dualSimplex(false)
		if err != nil {
			return nil, err
		}
		if st == Infeasible {
			return &Solution{Status: Infeasible, Pivots: s.pivots}, nil
		}
		copy(s.cost, s.real)
		st, err = s.primalSimplex(false)
		if err != nil {
			return nil, err
		}
		if st == Unbounded {
			return &Solution{Status: Unbounded, Pivots: s.pivots}, nil
		}
		s.computeDuals()
		return s.solution(), nil
	}
	// Two-phase from a fresh all-logical basis: dual simplex under the
	// shifted cost ĉ = max(c,0) (dual feasible by construction) reaches a
	// primal-feasible basis or proves infeasibility; then the primal
	// simplex finishes under the true cost.
	s.initFresh()
	if _, err := s.refresh(true); err != nil {
		return nil, err
	}
	for j := 0; j < s.nc; j++ {
		s.cost[j] = s.real[j]
		if s.cost[j] < 0 {
			s.cost[j] = 0
		}
	}
	st, err := s.dualSimplex(false)
	if err != nil {
		return nil, err
	}
	if st == Infeasible {
		return &Solution{Status: Infeasible, Pivots: s.pivots}, nil
	}
	copy(s.cost, s.real)
	st, err = s.primalSimplex(false)
	if err != nil {
		return nil, err
	}
	if st == Unbounded {
		return &Solution{Status: Unbounded, Pivots: s.pivots}, nil
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

// ResolveFrom re-solves the model starting from a Basis captured by an
// earlier Solve/ResolveFrom — on this model before AddRow appended
// violated constraints (row generation), or on a different, structurally
// compatible model (cross-instance basis homotopy: nearby sweep
// instances chain warm starts instead of cold-solving each one). The
// snapshot is projected onto the current row set and the solve starts
// from whichever simplex the projection is feasible for. A nil,
// incompatible or unusable basis falls back to a cold Solve.
func (m *Model) ResolveFrom(bs *Basis) (*Solution, error) {
	if !bs.CompatibleWith(m) {
		return m.Solve()
	}
	s := newSparse(m)
	defer s.release()
	s.initFromBasis(bs)
	sol, err := s.run()
	if warmRetryable(err) {
		// A degenerate or numerically decayed warm basis: retry cold
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
