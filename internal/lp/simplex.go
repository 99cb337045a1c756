package lp

import (
	"errors"
	"math"
)

// Numerical tolerances shared by both solvers. pivotTol guards divisions;
// optTol decides optimality of reduced costs; FeasTol decides primal
// feasibility (phase-1 success in the dense solver, bound violation in
// the sparse one). FeasTol is exported because it bounds how far an
// Optimal answer may violate a row: the sparse solver accepts a basic
// value up to FeasTol·(1+|bound|) past its bound, so a caller that needs
// a row to hold strictly can tighten it by more than that.
const (
	pivotTol = 1e-9
	optTol   = 1e-9
	FeasTol  = 1e-7
)

// ErrIterationLimit is returned when a simplex exceeds its pivot budget,
// which for these problem sizes indicates a numerical pathology rather
// than a legitimate long run.
var ErrIterationLimit = errors.New("lp: simplex iteration limit exceeded")

// tableau is a dense simplex tableau in equational form: rows are
// constraints with non-negative right-hand sides, cols are structural,
// slack and artificial variables, plus the RHS in the last column.
type tableau struct {
	rows  [][]float64 // m rows, each of length ncols+1 (last = RHS)
	obj   []float64   // reduced-cost row, length ncols+1 (last = -objective)
	basis []int       // basis[i] = column basic in row i
	ncols int
	nArt  int // number of artificial columns (they occupy the last nArt column indices)
}

// SolveDense runs the original dense two-phase primal simplex (Dantzig
// pricing, Bland fallback) and returns the solution. Finite upper bounds
// are expanded into explicit LE rows, so the tableau is Θ((m+n)·(n+m))
// even for sparse models — it is retained as the differential-test oracle
// for the sparse revised simplex, not as a production path.
func (m *Model) SolveDense() (*Solution, error) {
	n := len(m.obj)
	// Expand finite upper bounds into explicit LE rows.
	type row struct {
		lo, hi int // CSR span in m.cols/m.vals, or lo == -1 for a bound row
		bv     int // bounded variable when lo == -1
		op     Op
		rhs    float64
	}
	var rows []row
	for i := range m.ops {
		rows = append(rows, row{lo: m.rowStart[i], hi: m.rowStart[i+1], op: m.ops[i], rhs: m.rhs[i]})
	}
	for j, ub := range m.ub {
		if !math.IsInf(ub, 1) {
			rows = append(rows, row{lo: -1, bv: j, op: LE, rhs: ub})
		}
	}

	nRows := len(rows)
	// Column layout: [0,n) structural, then one slack/surplus per LE/GE
	// row, then artificials.
	nSlack := 0
	for _, r := range rows {
		if r.op != EQ {
			nSlack++
		}
	}
	// Artificials are added for GE/EQ rows and for LE rows whose RHS had
	// to be negated. Allocate lazily below; first compute layout.
	t := &tableau{basis: make([]int, nRows)}
	slackCol := n
	artBase := n + nSlack
	nArt := 0

	// Per-row bookkeeping for dual extraction: the column whose reduced
	// cost encodes the row's multiplier, the sign convention, whether the
	// row was negated, and the post-negation RHS.
	type dualInfo struct {
		col     int     // slack/surplus column, or artificial (set below)
		sign    float64 // y_i = sign · objRow[col]
		negated bool
		rhs0    float64
	}
	duals := make([]dualInfo, nRows)

	dense := make([][]float64, nRows)
	needsArt := make([]bool, nRows)
	for i, r := range rows {
		d := make([]float64, artBase) // artificials appended later
		if r.lo == -1 {
			d[r.bv] = 1
		} else {
			for k := r.lo; k < r.hi; k++ {
				d[m.cols[k]] += m.vals[k]
			}
		}
		op, rhs := r.op, r.rhs
		if rhs < 0 {
			for j := range d {
				d[j] = -d[j]
			}
			rhs = -rhs
			duals[i].negated = true
			switch op {
			case LE:
				op = GE
			case GE:
				op = LE
			}
		}
		switch op {
		case LE:
			d[slackCol] = 1
			t.basis[i] = slackCol
			// Slack column is +e_i with zero cost: objRow = −y_i.
			duals[i].col, duals[i].sign = slackCol, -1
			slackCol++
		case GE:
			d[slackCol] = -1
			// Surplus column is −e_i: objRow = +y_i.
			duals[i].col, duals[i].sign = slackCol, 1
			slackCol++
			needsArt[i] = true
		case EQ:
			needsArt[i] = true
			duals[i].col = -1 // artificial assigned below
		}
		duals[i].rhs0 = rhs
		dense[i] = append(d, rhs)
		if needsArt[i] {
			nArt++
		}
	}
	t.ncols = artBase + nArt
	t.nArt = nArt
	t.rows = make([][]float64, nRows)
	art := artBase
	for i := range dense {
		full := make([]float64, t.ncols+1)
		copy(full, dense[i][:artBase])
		full[t.ncols] = dense[i][artBase] // RHS
		if needsArt[i] {
			full[art] = 1
			t.basis[i] = art
			if duals[i].col == -1 {
				// Equality rows read their dual off the artificial
				// column (+e_i, zero phase-2 cost): objRow = −y_i.
				duals[i].col, duals[i].sign = art, -1
			}
			art++
		}
		t.rows[i] = full
	}

	sol := &Solution{}

	// Phase 1: minimize the sum of artificials.
	if nArt > 0 {
		phase1 := make([]float64, t.ncols+1)
		for a := artBase; a < t.ncols; a++ {
			phase1[a] = 1
		}
		t.obj = phase1
		t.priceOut()
		pivots, err := t.iterate(t.ncols, nil)
		sol.Pivots += pivots
		if err != nil {
			return nil, err
		}
		if -t.obj[t.ncols] > FeasTol {
			sol.Status = Infeasible
			return sol, nil
		}
		// Drive artificials out of the basis so they can be frozen.
		for i, b := range t.basis {
			if b < artBase {
				continue
			}
			pivoted := false
			for j := 0; j < artBase; j++ {
				if math.Abs(t.rows[i][j]) > pivotTol {
					t.pivot(i, j)
					sol.Pivots++
					pivoted = true
					break
				}
			}
			if !pivoted {
				// Redundant row: zero it so it can never constrain again.
				for j := range t.rows[i] {
					t.rows[i][j] = 0
				}
				t.rows[i][b] = 1 // keep the artificial formally basic at 0
			}
		}
	}

	// Phase 2: minimize the real objective; artificial columns are frozen.
	phase2 := make([]float64, t.ncols+1)
	copy(phase2, m.obj)
	t.obj = phase2
	t.priceOut()
	limit := artBase // entering columns restricted to non-artificials
	pivots, err := t.iterate(limit, &sol.Status)
	sol.Pivots += pivots
	if err != nil {
		return nil, err
	}
	if sol.Status == Unbounded {
		return sol, nil
	}

	sol.Status = Optimal
	sol.X = make([]float64, n)
	for i, b := range t.basis {
		if b < n {
			sol.X[b] = t.rows[i][t.ncols]
		}
	}
	// Snap tiny negatives from round-off.
	for j := range sol.X {
		if sol.X[j] < 0 && sol.X[j] > -FeasTol {
			sol.X[j] = 0
		}
	}
	sol.Objective = m.Value(sol.X)

	// Dual extraction and the strong-duality self-check. The multiplier
	// of each internal row is read off the final reduced-cost row; by
	// strong duality Σ y_i·rhs_i must equal the optimal objective, which
	// certifies both optimality and the extraction algebra.
	dualObj := 0.0
	yInt := make([]float64, nRows)
	for i := range duals {
		yInt[i] = duals[i].sign * t.obj[duals[i].col]
		dualObj += yInt[i] * duals[i].rhs0
	}
	sol.DualityGap = math.Abs(dualObj - sol.Objective)
	// Report shadow prices for the user's constraints (upper-bound rows
	// are internal), in the orientation the user wrote them.
	sol.Duals = make([]float64, m.NumConstraints())
	for i := range sol.Duals {
		y := yInt[i]
		if duals[i].negated {
			y = -y
		}
		sol.Duals[i] = y
	}
	return sol, nil
}

// priceOut rewrites the objective row as reduced costs with respect to the
// current basis: obj ← obj − Σ_i obj[basis[i]]·row_i.
func (t *tableau) priceOut() {
	for i, b := range t.basis {
		cb := t.obj[b]
		if cb == 0 {
			continue
		}
		for j := 0; j <= t.ncols; j++ {
			t.obj[j] -= cb * t.rows[i][j]
		}
	}
}

// iterate pivots until optimality (reduced costs ≥ −optTol). Entering
// columns are restricted to indices < colLimit. If statusOut is non-nil,
// an unbounded ray sets *statusOut = Unbounded and returns. Dantzig pricing
// is used normally; after a stretch of degenerate pivots it falls back to
// Bland's rule, which provably terminates.
func (t *tableau) iterate(colLimit int, statusOut *Status) (int, error) {
	pivots := 0
	degenerate := 0
	maxPivots := 5000 + 200*(len(t.rows)+t.ncols)
	for {
		bland := degenerate > 2*len(t.rows)+20
		enter := -1
		if bland {
			for j := 0; j < colLimit; j++ {
				if t.obj[j] < -optTol {
					enter = j
					break
				}
			}
		} else {
			best := -optTol
			for j := 0; j < colLimit; j++ {
				if t.obj[j] < best {
					best = t.obj[j]
					enter = j
				}
			}
		}
		if enter == -1 {
			return pivots, nil // optimal
		}
		// Ratio test.
		leave := -1
		bestRatio := math.Inf(1)
		for i, r := range t.rows {
			a := r[enter]
			if a <= pivotTol {
				continue
			}
			ratio := r[t.ncols] / a
			if ratio < bestRatio-pivotTol ||
				(ratio < bestRatio+pivotTol && (leave == -1 || t.basis[i] < t.basis[leave])) {
				bestRatio = ratio
				leave = i
			}
		}
		if leave == -1 {
			if statusOut != nil {
				*statusOut = Unbounded
				return pivots, nil
			}
			// Phase 1 is never unbounded (objective bounded below by 0);
			// reaching here means numerical trouble.
			return pivots, errors.New("lp: phase-1 ray detected (numerical failure)")
		}
		if bestRatio < pivotTol {
			degenerate++
		} else {
			degenerate = 0
		}
		t.pivot(leave, enter)
		pivots++
		if pivots > maxPivots {
			return pivots, ErrIterationLimit
		}
	}
}

// pivot makes column enter basic in row leave by Gaussian elimination.
func (t *tableau) pivot(leave, enter int) {
	pr := t.rows[leave]
	p := pr[enter]
	inv := 1 / p
	for j := range pr {
		pr[j] *= inv
	}
	pr[enter] = 1 // exact
	for i, r := range t.rows {
		if i == leave {
			continue
		}
		f := r[enter]
		if f == 0 {
			continue
		}
		for j := range r {
			r[j] -= f * pr[j]
		}
		r[enter] = 0
	}
	f := t.obj[enter]
	if f != 0 {
		for j := range t.obj {
			t.obj[j] -= f * pr[j]
		}
		t.obj[enter] = 0
	}
	t.basis[leave] = enter
}
