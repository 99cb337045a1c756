// Package lp implements linear programming from scratch for one model
// class: minimize c·x subject to sparse rows (≤, ≥ or =) and bounds
// 0 ≤ x ≤ u, with every cost c_j ≥ 0. AddVar refuses a negative cost.
// Every LP of the paper has this form (LP (1)–(3), weighted and
// directed alike: each variable is a subsidy priced at 1 or a
// multiplier priced at 0), and it makes the objective bounded below by 0
// and every all-logical basis dual feasible. The package solves it
// twice over:
//
//   - a sparse revised dual simplex (Solve / ResolveFrom) with a CSR
//     constraint store, an LU + eta-file basis factorization, native
//     variable bounds and first-class warm starts — Solve returns a
//     reusable Basis, and AddRow followed by ResolveFrom re-solves from
//     the dual-feasible incumbent, which is exactly the shape of the SNE
//     row-generation loop (Theorem 1). A basis that cannot be seated
//     dual feasible re-solves cold;
//   - the original dense two-phase tableau, retained as SolveDense: the
//     differential-test oracle every sparse result is held to.
//
// The paper's Theorem 1 shows STABLE NETWORK ENFORCEMENT is in P via
// linear programming; the Go standard library has no LP solver, so this
// package is the substrate standing in for the paper's LP machinery.
package lp

import (
	"fmt"
	"math"
	"sort"
)

// Op is a constraint relation.
type Op int

// Constraint relations.
const (
	LE Op = iota // Σ coef·x ≤ rhs
	GE           // Σ coef·x ≥ rhs
	EQ           // Σ coef·x = rhs
)

func (o Op) String() string {
	switch o {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	}
	return "?"
}

// Model is a linear program: minimize obj·x, obj ≥ 0, subject to
// constraints, with every variable bounded below by 0 and above by an
// optional finite upper bound. (Lower bounds other than zero are not needed anywhere in this
// library — subsidies live in [0, w_a].)
//
// Constraints are stored append-only in compressed sparse row form: one
// flat (cols, vals) arena shared by all rows, so emitting a row costs two
// slice appends and no per-constraint map.
type Model struct {
	obj []float64
	ub  []float64 // +Inf when unbounded above

	rowStart []int // len NumConstraints()+1; row i spans [rowStart[i], rowStart[i+1])
	cols     []int
	vals     []float64
	ops      []Op
	rhs      []float64

	// Column-wise (CSC) copy of the structural columns, which FTRAN and
	// pricing read. The first solve builds it; AddVar, AddRow and Reset
	// invalidate it, while SetRHS and SetUpperBound leave it valid, so
	// re-solves of a patched model skip the transpose. Because a solve
	// may write it, a Model must not be solved from two goroutines at
	// once.
	colStart []int
	colRow   []int
	colVal   []float64
	cscNext  []int // buildCSC scratch
	cscOK    bool
}

// NewModel returns an empty model.
func NewModel() *Model { return &Model{rowStart: []int{0}} }

// Grow preallocates capacity for nVars variables, nRows constraints and
// nnz nonzero coefficients, so batch emitters (the SNE row builders)
// append without reallocation. Purely an optimization hint.
func (m *Model) Grow(nVars, nRows, nnz int) {
	if cap(m.obj)-len(m.obj) < nVars {
		m.obj = append(make([]float64, 0, len(m.obj)+nVars), m.obj...)
		m.ub = append(make([]float64, 0, len(m.ub)+nVars), m.ub...)
	}
	if cap(m.ops)-len(m.ops) < nRows {
		m.ops = append(make([]Op, 0, len(m.ops)+nRows), m.ops...)
		m.rhs = append(make([]float64, 0, len(m.rhs)+nRows), m.rhs...)
		m.rowStart = append(make([]int, 0, len(m.rowStart)+nRows), m.rowStart...)
	}
	if cap(m.cols)-len(m.cols) < nnz {
		m.cols = append(make([]int, 0, len(m.cols)+nnz), m.cols...)
		m.vals = append(make([]float64, 0, len(m.vals)+nnz), m.vals...)
	}
}

// AddVar appends a variable with the given objective coefficient and upper
// bound (use math.Inf(1) for none) and returns its index. It panics on a
// negative or NaN coefficient: the model class is c ≥ 0. Finite bounds
// above 1e100 are normalized to +∞ at entry — they are pseudo-infinities
// numerically (a bound step of that size overflows downstream
// arithmetic), and normalizing here guarantees the sparse solver and the
// dense oracle see the identical model.
func (m *Model) AddVar(objCoef, ub float64) int {
	if !(objCoef >= 0) || !validUpper(ub) {
		panic(fmt.Sprintf("lp: invalid variable (obj=%v ub=%v)", objCoef, ub))
	}
	m.obj = append(m.obj, objCoef)
	m.ub = append(m.ub, normUpper(ub))
	m.cscOK = false
	return len(m.obj) - 1
}

// SetUpperBound replaces variable j's upper bound, with AddVar's
// validation and normalization. The constraint matrix is untouched, so
// the model's column copy stays valid: this is the in-place patch path
// for re-solving a same-structure model with new bounds.
func (m *Model) SetUpperBound(j int, ub float64) {
	if !validUpper(ub) {
		panic(fmt.Sprintf("lp: invalid upper bound %v for variable %d", ub, j))
	}
	m.ub[j] = normUpper(ub)
}

// validUpper reports whether ub is an admissible upper bound: not NaN,
// not negative (+∞ means none).
func validUpper(ub float64) bool { return !math.IsNaN(ub) && ub >= 0 }

// normUpper maps pseudo-infinite bounds (above hugeBound) to +∞.
func normUpper(ub float64) float64 {
	if ub > hugeBound {
		return math.Inf(1)
	}
	return ub
}

// NumVars returns the number of variables.
func (m *Model) NumVars() int { return len(m.obj) }

// NumConstraints returns the number of explicit constraints (upper bounds
// are not counted; the solvers handle them natively or expand them).
func (m *Model) NumConstraints() int { return len(m.ops) }

// AddRow appends the sparse constraint Σ vals[k]·x_cols[k]  op  rhs.
// Zero coefficients are dropped. Duplicate column indices are legal and
// mean summed coefficients (every consumer accumulates row entries);
// Row exposes the raw entries, so anything reading rows back must
// accumulate too, never index-assign. This is the allocation-light
// emission path row generators should use: the caller's slices are
// copied into the model's CSR arena and may be reused immediately.
func (m *Model) AddRow(cols []int, vals []float64, op Op, rhs float64) {
	if len(cols) != len(vals) {
		panic(fmt.Sprintf("lp: AddRow with %d columns but %d values", len(cols), len(vals)))
	}
	if !validRHS(rhs) {
		panic("lp: invalid RHS")
	}
	for k, j := range cols {
		if j < 0 || j >= len(m.obj) {
			panic(fmt.Sprintf("lp: constraint references unknown variable %d", j))
		}
		v := vals[k]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			panic("lp: invalid coefficient")
		}
		if v != 0 {
			m.cols = append(m.cols, j)
			m.vals = append(m.vals, v)
		}
	}
	m.rowStart = append(m.rowStart, len(m.cols))
	m.ops = append(m.ops, op)
	m.rhs = append(m.rhs, rhs)
	m.cscOK = false
}

// SetRHS replaces constraint i's right-hand side, with AddRow's
// validation. Like SetUpperBound it keeps the column copy valid.
func (m *Model) SetRHS(i int, rhs float64) {
	if !validRHS(rhs) {
		panic("lp: invalid RHS")
	}
	m.rhs[i] = rhs
}

// validRHS reports whether rhs is a finite right-hand side.
func validRHS(rhs float64) bool { return !math.IsNaN(rhs) && !math.IsInf(rhs, 0) }

// AddConstraint appends Σ coefs[i]·x_i  op  rhs. Variables absent from
// coefs have coefficient zero. Zero coefficients are dropped. It is the
// map-based convenience wrapper over AddRow (columns are emitted in
// sorted order, so models built either way are identical).
func (m *Model) AddConstraint(coefs map[int]float64, op Op, rhs float64) {
	cols := make([]int, 0, len(coefs))
	for j := range coefs {
		cols = append(cols, j)
	}
	sort.Ints(cols)
	vals := make([]float64, len(cols))
	for k, j := range cols {
		vals[k] = coefs[j]
	}
	m.AddRow(cols, vals, op, rhs)
}

// Row returns constraint i as (cols, vals, op, rhs). The slices alias the
// model's arena and must not be modified.
func (m *Model) Row(i int) ([]int, []float64, Op, float64) {
	lo, hi := m.rowStart[i], m.rowStart[i+1]
	return m.cols[lo:hi], m.vals[lo:hi], m.ops[i], m.rhs[i]
}

// Reset empties the model in place, keeping every arena's capacity. It is
// the workspace path for callers that rebuild a same-shaped model per
// instance — the water-fill heuristic and sweep scenario chains emit
// thousands of models of nearly identical size, and Reset makes each
// rebuild allocation-free once the arenas have grown.
func (m *Model) Reset() {
	m.obj = m.obj[:0]
	m.ub = m.ub[:0]
	if m.rowStart == nil {
		m.rowStart = []int{0}
	} else {
		m.rowStart = append(m.rowStart[:0], 0)
	}
	m.cols = m.cols[:0]
	m.vals = m.vals[:0]
	m.ops = m.ops[:0]
	m.rhs = m.rhs[:0]
	m.cscOK = false
}

// buildCSC transposes the CSR rows into the column copy, reusing its
// arrays' capacity.
func (m *Model) buildCSC() {
	n := len(m.obj)
	m.colStart = grown(m.colStart, n+1)
	for j := range m.colStart {
		m.colStart[j] = 0
	}
	for _, j := range m.cols {
		m.colStart[j+1]++
	}
	for j := 0; j < n; j++ {
		m.colStart[j+1] += m.colStart[j]
	}
	nnz := len(m.cols)
	m.colRow = grown(m.colRow, nnz)
	m.colVal = grown(m.colVal, nnz)
	next := grown(m.cscNext, n)
	m.cscNext = next
	copy(next, m.colStart[:n])
	for i := range m.ops {
		for k := m.rowStart[i]; k < m.rowStart[i+1]; k++ {
			j := m.cols[k]
			p := next[j]
			m.colRow[p] = i
			m.colVal[p] = m.vals[k]
			next[j]++
		}
	}
	m.cscOK = true
}

// Clone returns a deep copy of the model. Useful for benchmarking warm
// starts (clone the base model, append rows, ResolveFrom) and for
// differential tests that solve the same model twice.
func (m *Model) Clone() *Model {
	return &Model{
		obj:      append([]float64(nil), m.obj...),
		ub:       append([]float64(nil), m.ub...),
		rowStart: append([]int(nil), m.rowStart...),
		cols:     append([]int(nil), m.cols...),
		vals:     append([]float64(nil), m.vals...),
		ops:      append([]Op(nil), m.ops...),
		rhs:      append([]float64(nil), m.rhs...),
	}
}

// StructureFingerprint hashes the model's *shape* — variable count, which
// upper bounds are finite, row count and row operators — into a 64-bit
// FNV-1a digest. Coefficient and RHS values are deliberately excluded:
// two instances of one sweep family (same graph skeleton, perturbed
// weights) share a fingerprint, and so do unrelated models of equal
// shape: it names a size class, not a structure. ResolveFrom seats a
// basis of an equal fingerprint only when it stays dual feasible, and
// solves cold otherwise.
func (m *Model) StructureFingerprint() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(x uint64) {
		h ^= x
		h *= prime64
	}
	mix(uint64(len(m.obj)))
	for _, u := range m.ub {
		if math.IsInf(u, 1) {
			mix(1)
		} else {
			mix(2)
		}
	}
	mix(uint64(len(m.ops)))
	for _, op := range m.ops {
		mix(uint64(op) + 3)
	}
	return h
}

// Status reports the outcome of a solve.
type Status int

// Solve outcomes. The model class is bounded below by 0, so only the
// dense oracle's code path can still report Unbounded.
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
	return "unknown"
}

// Solution is the result of solving a model.
type Solution struct {
	Status    Status
	X         []float64 // variable values (valid when Status == Optimal)
	Objective float64   // objective value (valid when Status == Optimal)
	Pivots    int       // simplex pivot count, for benchmarking

	// Basis is the optimal basis of a sparse Solve/ResolveFrom (nil from
	// SolveDense). Feed it back to ResolveFrom after AddRow, or after new
	// bounds and row constants on the same structure, to re-solve from
	// the dual-feasible incumbent instead of from scratch.
	Basis *Basis

	// Duals holds the shadow price of each user constraint (in the
	// orientation it was written), valid when Status == Optimal. In the
	// SNE LPs these measure how binding each deviation constraint is:
	// the marginal subsidy saved per unit of slack added to the row.
	Duals []float64
	// DualityGap is |dual objective − primal objective| over the internal
	// standard form — a post-solve certificate that should sit at
	// round-off level for a correct optimal basis.
	DualityGap float64
}

// Feasible reports whether x satisfies all constraints and bounds of m
// within tol. It is the model's independent verification hook: tests and
// callers can confirm any claimed solution without trusting the solver.
func (m *Model) Feasible(x []float64, tol float64) bool {
	if len(x) != len(m.obj) {
		return false
	}
	for j, v := range x {
		if v < -tol || v > m.ub[j]+tol*(1+math.Abs(m.ub[j])) {
			return false
		}
	}
	for i := range m.ops {
		lhs := 0.0
		scale := 1.0
		for k := m.rowStart[i]; k < m.rowStart[i+1]; k++ {
			t := m.vals[k] * x[m.cols[k]]
			lhs += t
			scale += math.Abs(t)
		}
		switch m.ops[i] {
		case LE:
			if lhs > m.rhs[i]+tol*scale {
				return false
			}
		case GE:
			if lhs < m.rhs[i]-tol*scale {
				return false
			}
		case EQ:
			if math.Abs(lhs-m.rhs[i]) > tol*scale {
				return false
			}
		}
	}
	return true
}

// Value returns obj·x.
func (m *Model) Value(x []float64) float64 {
	v := 0.0
	for j, c := range m.obj {
		v += c * x[j]
	}
	return v
}
