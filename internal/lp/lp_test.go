package lp

import (
	"math"
	"math/rand"
	"testing"
)

func solveOK(t *testing.T, m *Model) *Solution {
	t.Helper()
	sol, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	return sol
}

func TestSimpleMaximizationAsMin(t *testing.T) {
	// max 3x + 5y s.t. x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18  →  (2,6), obj 36,
	// recast to c ≥ 0 by x = 4 − a, y = 6 − b: max 42 − 3a − 5b is
	// min 3a + 5b s.t. 0 ≤ a ≤ 4, 0 ≤ b ≤ 6, 3a + 2b ≥ 6  →  (2,0), obj 6.
	m := NewModel()
	a := m.AddVar(3, 4)
	b := m.AddVar(5, 6)
	m.AddConstraint(map[int]float64{a: 3, b: 2}, GE, 6)
	sol := solveOK(t, m)
	if sol.Status != Optimal {
		t.Fatalf("status %v", sol.Status)
	}
	if x, y := 4-sol.X[a], 6-sol.X[b]; math.Abs(x-2) > 1e-8 || math.Abs(y-6) > 1e-8 {
		t.Errorf("(x, y) = (%v, %v), want (2,6)", x, y)
	}
	if math.Abs(42-sol.Objective-36) > 1e-8 {
		t.Errorf("max objective = %v, want 36", 42-sol.Objective)
	}
	if !m.Feasible(sol.X, 1e-9) {
		t.Error("solution not feasible by independent check")
	}
}

func TestMinimizationWithGE(t *testing.T) {
	// min 2x + 3y s.t. x + y ≥ 10, x ≥ 2, y ≥ 3  →  x=7, y=3, obj 23.
	m := NewModel()
	x := m.AddVar(2, math.Inf(1))
	y := m.AddVar(3, math.Inf(1))
	m.AddConstraint(map[int]float64{x: 1, y: 1}, GE, 10)
	m.AddConstraint(map[int]float64{x: 1}, GE, 2)
	m.AddConstraint(map[int]float64{y: 1}, GE, 3)
	sol := solveOK(t, m)
	if sol.Status != Optimal || math.Abs(sol.Objective-23) > 1e-8 {
		t.Fatalf("got %v obj %v", sol.Status, sol.Objective)
	}
	if math.Abs(sol.X[x]-7) > 1e-8 || math.Abs(sol.X[y]-3) > 1e-8 {
		t.Errorf("X = %v", sol.X)
	}
}

func TestEqualityConstraints(t *testing.T) {
	// min x + y s.t. x + 2y = 4, x − y = 1  →  x=2, y=1, obj 3.
	m := NewModel()
	x := m.AddVar(1, math.Inf(1))
	y := m.AddVar(1, math.Inf(1))
	m.AddConstraint(map[int]float64{x: 1, y: 2}, EQ, 4)
	m.AddConstraint(map[int]float64{x: 1, y: -1}, EQ, 1)
	sol := solveOK(t, m)
	if sol.Status != Optimal || math.Abs(sol.Objective-3) > 1e-8 {
		t.Fatalf("status %v obj %v X %v", sol.Status, sol.Objective, sol.X)
	}
}

func TestUpperBounds(t *testing.T) {
	// Recast to c ≥ 0: with costs that prefer 0, a bound binds only when
	// a row pushes a variable against it. min x + 2y with x ≤ 1.5,
	// y ≤ 2.5 (via variable bounds) and x + y ≥ 3.5: the cheaper x runs
	// to its bound, y covers the rest.
	m := NewModel()
	x := m.AddVar(1, 1.5)
	y := m.AddVar(2, 2.5)
	m.AddConstraint(map[int]float64{x: 1, y: 1}, GE, 3.5)
	sol := solveOK(t, m)
	if sol.Status != Optimal || math.Abs(sol.Objective-5.5) > 1e-8 {
		t.Fatalf("status %v obj %v", sol.Status, sol.Objective)
	}
	if math.Abs(sol.X[x]-1.5) > 1e-8 || math.Abs(sol.X[y]-2) > 1e-8 {
		t.Errorf("X = %v", sol.X)
	}
}

func TestInfeasible(t *testing.T) {
	m := NewModel()
	x := m.AddVar(1, math.Inf(1))
	m.AddConstraint(map[int]float64{x: 1}, GE, 5)
	m.AddConstraint(map[int]float64{x: 1}, LE, 3)
	sol := solveOK(t, m)
	if sol.Status != Infeasible {
		t.Fatalf("status %v, want infeasible", sol.Status)
	}
	// Infeasible via bounds.
	m2 := NewModel()
	y := m2.AddVar(1, 2)
	m2.AddConstraint(map[int]float64{y: 1}, GE, 3)
	if s := solveOK(t, m2); s.Status != Infeasible {
		t.Fatalf("bounded infeasible: status %v", s.Status)
	}
}

func TestNegativeRHS(t *testing.T) {
	// min x s.t. −x ≤ −5  (i.e. x ≥ 5).
	m := NewModel()
	x := m.AddVar(1, math.Inf(1))
	m.AddConstraint(map[int]float64{x: -1}, LE, -5)
	sol := solveOK(t, m)
	if sol.Status != Optimal || math.Abs(sol.X[x]-5) > 1e-8 {
		t.Fatalf("status %v X %v", sol.Status, sol.X)
	}
}

func TestRedundantAndZeroRows(t *testing.T) {
	// Duplicate equalities exercise artificial-variable cleanup of
	// redundant rows.
	m := NewModel()
	x := m.AddVar(1, math.Inf(1))
	y := m.AddVar(2, math.Inf(1))
	m.AddConstraint(map[int]float64{x: 1, y: 1}, EQ, 3)
	m.AddConstraint(map[int]float64{x: 1, y: 1}, EQ, 3)
	m.AddConstraint(map[int]float64{x: 2, y: 2}, EQ, 6)
	sol := solveOK(t, m)
	if sol.Status != Optimal || math.Abs(sol.Objective-3) > 1e-8 {
		t.Fatalf("status %v obj %v", sol.Status, sol.Objective)
	}
}

func TestDegenerateBeale(t *testing.T) {
	// Beale's cycling example (classic), recast to c ≥ 0 as its LP dual
	// (bealeDual). Dantzig's rule can cycle on it; the Bland fallback
	// must terminate with the optimum 0.05, minus Beale's −0.05.
	sol := solveOK(t, bealeDual(1))
	if sol.Status != Optimal || math.Abs(sol.Objective-0.05) > 1e-6 {
		t.Fatalf("Beale: status %v obj %v", sol.Status, sol.Objective)
	}
}

func TestEmptyModel(t *testing.T) {
	m := NewModel()
	sol := solveOK(t, m)
	if sol.Status != Optimal || sol.Objective != 0 {
		t.Fatalf("empty model: %v %v", sol.Status, sol.Objective)
	}
	// Variables but no constraints: min at lower bounds.
	m2 := NewModel()
	m2.AddVar(3, math.Inf(1))
	sol2 := solveOK(t, m2)
	if sol2.Status != Optimal || sol2.X[0] != 0 {
		t.Fatalf("no-constraint model: %v", sol2.X)
	}
}

func TestPanicsOnInvalidInput(t *testing.T) {
	for name, fn := range map[string]func(){
		"nan obj":     func() { NewModel().AddVar(math.NaN(), 1) },
		"neg obj":     func() { NewModel().AddVar(-1, 1) },
		"neg ub":      func() { NewModel().AddVar(0, -1) },
		"unknown var": func() { m := NewModel(); m.AddConstraint(map[int]float64{3: 1}, LE, 0) },
		"inf rhs":     func() { m := NewModel(); m.AddVar(0, 1); m.AddConstraint(nil, LE, math.Inf(1)) },
		"nan coef": func() {
			m := NewModel()
			v := m.AddVar(0, 1)
			m.AddConstraint(map[int]float64{v: math.NaN()}, LE, 0)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestSettersValidateLikeBuilders holds SetRHS to AddRow and
// SetUpperBound to AddVar: each value must panic in the setter exactly
// when it panics in the builder, and otherwise be stored as the builder
// stores it (bounds above 1e100 read as +∞).
func TestSettersValidateLikeBuilders(t *testing.T) {
	panics := func(fn func()) (p bool) {
		defer func() { p = recover() != nil }()
		fn()
		return false
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1, -1e-300, 0, 2.5, 1e100, 1e101, math.MaxFloat64} {
		built, patched := NewModel(), NewModel()
		patched.AddVar(0, 1)
		patched.AddRow(nil, nil, GE, 0)
		addVar := panics(func() { built.AddVar(0, v) })
		setUB := panics(func() { patched.SetUpperBound(0, v) })
		if addVar != setUB {
			t.Errorf("ub %v: AddVar panics=%v, SetUpperBound panics=%v", v, addVar, setUB)
		}
		if !addVar && math.Float64bits(built.ub[0]) != math.Float64bits(patched.ub[0]) {
			t.Errorf("ub %v: AddVar stored %v, SetUpperBound %v", v, built.ub[0], patched.ub[0])
		}
		addRow := panics(func() { built.AddRow(nil, nil, GE, v) })
		setRHS := panics(func() { patched.SetRHS(0, v) })
		if addRow != setRHS {
			t.Errorf("rhs %v: AddRow panics=%v, SetRHS panics=%v", v, addRow, setRHS)
		}
		if !addRow && math.Float64bits(built.rhs[len(built.rhs)-1]) != math.Float64bits(patched.rhs[0]) {
			t.Errorf("rhs %v: AddRow stored %v, SetRHS %v", v, built.rhs[len(built.rhs)-1], patched.rhs[0])
		}
	}
}

// TestRandom2DAgainstBruteForce solves random 2-variable LPs and checks
// the simplex optimum against enumeration of all constraint-intersection
// vertices (the classic exact method in 2D).
func TestRandom2DAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 400; trial++ {
		m := NewModel()
		// |·| keeps the costs in the model class (c ≥ 0).
		cx := math.Abs(float64(rng.Intn(11) - 5))
		cy := math.Abs(float64(rng.Intn(11) - 5))
		x := m.AddVar(cx, math.Inf(1))
		y := m.AddVar(cy, math.Inf(1))
		type ln struct{ a, b, c float64 } // a·x + b·y ≤ c
		// Always include a box so the LP is bounded.
		lines := []ln{{1, 0, float64(1 + rng.Intn(9))}, {0, 1, float64(1 + rng.Intn(9))}}
		nc := rng.Intn(5)
		for k := 0; k < nc; k++ {
			lines = append(lines, ln{
				float64(rng.Intn(9) - 4),
				float64(rng.Intn(9) - 4),
				float64(rng.Intn(13) - 2),
			})
		}
		for _, l := range lines {
			m.AddConstraint(map[int]float64{x: l.a, y: l.b}, LE, l.c)
		}
		// Brute force: candidate vertices are intersections of all pairs
		// of constraint lines plus the axes x=0, y=0.
		all := append([]ln{}, lines...)
		all = append(all, ln{1, 0, 0}, ln{0, 1, 0}) // treat as equalities below
		feas := func(px, py float64) bool {
			if px < -1e-9 || py < -1e-9 {
				return false
			}
			for _, l := range lines {
				if l.a*px+l.b*py > l.c+1e-9 {
					return false
				}
			}
			return true
		}
		best := math.Inf(1)
		found := false
		for i := 0; i < len(all); i++ {
			for j := i + 1; j < len(all); j++ {
				det := all[i].a*all[j].b - all[j].a*all[i].b
				if math.Abs(det) < 1e-12 {
					continue
				}
				px := (all[i].c*all[j].b - all[j].c*all[i].b) / det
				py := (all[i].a*all[j].c - all[j].a*all[i].c) / det
				if feas(px, py) {
					found = true
					if v := cx*px + cy*py; v < best {
						best = v
					}
				}
			}
		}
		sol, err := m.Solve()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !found {
			if sol.Status == Optimal {
				// Brute force missed a vertex only if the feasible region
				// is lower-dimensional; accept but verify feasibility.
				if !m.Feasible(sol.X, 1e-7) {
					t.Fatalf("trial %d: claimed optimal point infeasible", trial)
				}
			}
			continue
		}
		if sol.Status != Optimal {
			t.Fatalf("trial %d: simplex says %v but brute force found optimum %v", trial, sol.Status, best)
		}
		if math.Abs(sol.Objective-best) > 1e-6*(1+math.Abs(best)) {
			t.Fatalf("trial %d: simplex %v vs brute force %v", trial, sol.Objective, best)
		}
		if !m.Feasible(sol.X, 1e-7) {
			t.Fatalf("trial %d: solution infeasible", trial)
		}
	}
}

// TestRandomFeasibilityConsistency: on random larger LPs, whatever the
// solver returns must be internally consistent — optimal solutions are
// feasible and no sampled feasible point beats them.
func TestRandomFeasibilityConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 120; trial++ {
		nv := 2 + rng.Intn(6)
		m := NewModel()
		for j := 0; j < nv; j++ {
			ub := math.Inf(1)
			if rng.Intn(2) == 0 {
				ub = 1 + rng.Float64()*5
			}
			m.AddVar(math.Abs(rng.Float64()*4-2), ub) // c ≥ 0: the model class
		}
		nc := 1 + rng.Intn(6)
		for k := 0; k < nc; k++ {
			coefs := map[int]float64{}
			for j := 0; j < nv; j++ {
				if rng.Intn(2) == 0 {
					coefs[j] = rng.Float64()*4 - 2
				}
			}
			op := Op(rng.Intn(3))
			m.AddConstraint(coefs, op, rng.Float64()*6-1)
		}
		sol, err := m.Solve()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if sol.Status != Optimal {
			continue
		}
		if !m.Feasible(sol.X, 1e-6) {
			t.Fatalf("trial %d: optimal point infeasible", trial)
		}
		// Sample random feasible points; none may beat the optimum.
		for s := 0; s < 300; s++ {
			pt := make([]float64, nv)
			for j := range pt {
				hi := 6.0
				if !math.IsInf(m.ub[j], 1) {
					hi = m.ub[j]
				}
				pt[j] = rng.Float64() * hi
			}
			if m.Feasible(pt, 0) && m.Value(pt) < sol.Objective-1e-6 {
				t.Fatalf("trial %d: sampled point beats 'optimal' (%v < %v)", trial, m.Value(pt), sol.Objective)
			}
		}
	}
}

func BenchmarkSimplexMedium(b *testing.B) {
	rng := rand.New(rand.NewSource(123))
	build := func() *Model {
		m := NewModel()
		nv := 40
		for j := 0; j < nv; j++ {
			m.AddVar(1, 1+rng.Float64())
		}
		for k := 0; k < 80; k++ {
			coefs := map[int]float64{}
			for j := 0; j < nv; j++ {
				if rng.Intn(3) == 0 {
					coefs[j] = rng.Float64()
				}
			}
			m.AddConstraint(coefs, GE, rng.Float64()*2)
		}
		return m
	}
	m := build()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Solve(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDualityCertificate: on random solvable LPs the extracted duals must
// close the duality gap and satisfy complementary slackness.
func TestDualityCertificate(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	checked := 0
	for trial := 0; trial < 300; trial++ {
		nv := 2 + rng.Intn(5)
		m := NewModel()
		for j := 0; j < nv; j++ {
			ub := math.Inf(1)
			if rng.Intn(2) == 0 {
				ub = 1 + rng.Float64()*4
			}
			// Non-negative costs keep minimization bounded, yielding many
			// optimal instances to certify.
			m.AddVar(rng.Float64()*3, ub)
		}
		nc := 1 + rng.Intn(5)
		for k := 0; k < nc; k++ {
			coefs := map[int]float64{}
			for j := 0; j < nv; j++ {
				if rng.Intn(2) == 0 {
					coefs[j] = rng.Float64()*4 - 2
				}
			}
			m.AddConstraint(coefs, Op(rng.Intn(3)), rng.Float64()*5-1)
		}
		sol, err := m.Solve()
		if err != nil || sol.Status != Optimal {
			continue
		}
		checked++
		if sol.DualityGap > 1e-6*(1+math.Abs(sol.Objective)) {
			t.Fatalf("trial %d: duality gap %v at objective %v", trial, sol.DualityGap, sol.Objective)
		}
		if len(sol.Duals) != m.NumConstraints() {
			t.Fatalf("trial %d: %d duals for %d constraints", trial, len(sol.Duals), m.NumConstraints())
		}
		// Complementary slackness: a constraint with strict slack has a
		// zero multiplier.
		for i := 0; i < m.NumConstraints(); i++ {
			cols, vals, op, rhs := m.Row(i)
			lhs := 0.0
			for k, j := range cols {
				lhs += vals[k] * sol.X[j]
			}
			slack := math.Abs(rhs - lhs)
			if op != EQ && slack > 1e-5 && math.Abs(sol.Duals[i]) > 1e-6 {
				t.Fatalf("trial %d: constraint %d slack %v but dual %v", trial, i, slack, sol.Duals[i])
			}
		}
	}
	if checked < 50 {
		t.Fatalf("only %d optimal instances checked", checked)
	}
}

// TestDualSigns: a canonical LP with known shadow prices.
func TestDualSigns(t *testing.T) {
	// min x subject to x ≥ 5: the constraint is binding with shadow
	// price 1 (raising the RHS by δ raises the optimum by δ).
	m := NewModel()
	x := m.AddVar(1, math.Inf(1))
	m.AddConstraint(map[int]float64{x: 1}, GE, 5)
	sol, err := m.Solve()
	if err != nil || sol.Status != Optimal {
		t.Fatal(err)
	}
	if math.Abs(sol.Duals[0]-1) > 1e-8 {
		t.Errorf("dual = %v, want 1", sol.Duals[0])
	}
	if sol.DualityGap > 1e-9 {
		t.Errorf("gap = %v", sol.DualityGap)
	}
	// Negated-row path: −x ≤ −5 is the same constraint written with a
	// negative RHS; the reported dual keeps the user's orientation
	// (raising the user RHS −5 by δ relaxes the constraint, lowering the
	// optimum: dual −1).
	m2 := NewModel()
	y := m2.AddVar(1, math.Inf(1))
	m2.AddConstraint(map[int]float64{y: -1}, LE, -5)
	sol2, err := m2.Solve()
	if err != nil || sol2.Status != Optimal {
		t.Fatal(err)
	}
	if math.Abs(sol2.Duals[0]+1) > 1e-8 {
		t.Errorf("negated dual = %v, want -1", sol2.Duals[0])
	}
}
