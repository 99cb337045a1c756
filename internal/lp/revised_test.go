package lp

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// randomModel builds a random LP mixing ops, finite/infinite bounds and
// costs c ∈ [0,3), the model class — the differential workload holding
// the sparse revised simplex to the dense tableau oracle.
func randomModel(rng *rand.Rand) *Model {
	m := NewModel()
	nv := 1 + rng.Intn(7)
	for j := 0; j < nv; j++ {
		ub := math.Inf(1)
		if rng.Intn(2) == 0 {
			ub = 0.5 + rng.Float64()*5
		}
		m.AddVar(rng.Float64()*3, ub)
	}
	nc := rng.Intn(8)
	for k := 0; k < nc; k++ {
		coefs := map[int]float64{}
		for j := 0; j < nv; j++ {
			if rng.Intn(2) == 0 {
				coefs[j] = rng.Float64()*4 - 2
			}
		}
		m.AddConstraint(coefs, Op(rng.Intn(3)), rng.Float64()*6-2)
	}
	return m
}

// TestSparseMatchesDense holds Solve (sparse revised simplex) to
// SolveDense (two-phase tableau oracle) across random models: statuses
// agree, optimal objectives agree to tolerance, and the sparse point is
// feasible by the model's independent check.
func TestSparseMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	optimal := 0
	for trial := 0; trial < 1200; trial++ {
		m := randomModel(rng)
		sp, err := m.Solve()
		if err != nil {
			t.Fatalf("trial %d: sparse: %v", trial, err)
		}
		dn, err := m.SolveDense()
		if err != nil {
			t.Fatalf("trial %d: dense: %v", trial, err)
		}
		if sp.Status != dn.Status {
			t.Fatalf("trial %d: sparse %v vs dense %v", trial, sp.Status, dn.Status)
		}
		if sp.Status != Optimal {
			continue
		}
		optimal++
		if !m.Feasible(sp.X, 1e-6) {
			t.Fatalf("trial %d: sparse optimum infeasible: %v", trial, sp.X)
		}
		if diff := math.Abs(sp.Objective - dn.Objective); diff > 1e-6*(1+math.Abs(dn.Objective)) {
			t.Fatalf("trial %d: sparse %v vs dense %v", trial, sp.Objective, dn.Objective)
		}
		if sp.DualityGap > 1e-6*(1+math.Abs(sp.Objective)) {
			t.Fatalf("trial %d: sparse duality gap %v", trial, sp.DualityGap)
		}
		if sp.Basis == nil {
			t.Fatalf("trial %d: sparse solve returned no basis", trial)
		}
	}
	if optimal < 150 {
		t.Fatalf("only %d optimal instances differentialed", optimal)
	}
}

// TestWarmStartRowGeneration drives the AddRow + ResolveFrom loop the SNE
// row generators use: each round appends a violated cut and re-solves
// warm; every incumbent must match a cold sparse solve and the dense
// oracle on the same rows.
func TestWarmStartRowGeneration(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 40; trial++ {
		nv := 2 + rng.Intn(5)
		m := NewModel()
		for j := 0; j < nv; j++ {
			m.AddVar(0.5+rng.Float64(), 1+rng.Float64()*4)
		}
		var basis *Basis
		cols := make([]int, 0, nv)
		vals := make([]float64, 0, nv)
		for round := 0; round < 12; round++ {
			cols, vals = cols[:0], vals[:0]
			for j := 0; j < nv; j++ {
				if rng.Intn(2) == 0 {
					cols = append(cols, j)
					vals = append(vals, 0.2+rng.Float64())
				}
			}
			if len(cols) == 0 {
				cols = append(cols, rng.Intn(nv))
				vals = append(vals, 1)
			}
			m.AddRow(cols, vals, GE, 0.2+rng.Float64())
			warm, err := m.ResolveFrom(basis)
			if err != nil {
				t.Fatalf("trial %d round %d: warm: %v", trial, round, err)
			}
			cold, err := m.Solve()
			if err != nil {
				t.Fatalf("trial %d round %d: cold: %v", trial, round, err)
			}
			dense, err := m.SolveDense()
			if err != nil {
				t.Fatalf("trial %d round %d: dense: %v", trial, round, err)
			}
			if warm.Status != cold.Status || warm.Status != dense.Status {
				t.Fatalf("trial %d round %d: statuses warm %v cold %v dense %v",
					trial, round, warm.Status, cold.Status, dense.Status)
			}
			if warm.Status == Infeasible {
				break // full-subsidy-style rows keep these feasible; just in case
			}
			if math.Abs(warm.Objective-dense.Objective) > 1e-7*(1+math.Abs(dense.Objective)) {
				t.Fatalf("trial %d round %d: warm %v vs dense %v", trial, round, warm.Objective, dense.Objective)
			}
			if !m.Feasible(warm.X, 1e-6) {
				t.Fatalf("trial %d round %d: warm point infeasible", trial, round)
			}
			basis = warm.Basis
		}
	}
}

// TestResolveFromUnchangedModel: warm re-solve with no new rows must
// terminate immediately at the same optimum.
func TestResolveFromUnchangedModel(t *testing.T) {
	m := NewModel()
	x := m.AddVar(2, math.Inf(1))
	y := m.AddVar(3, math.Inf(1))
	m.AddConstraint(map[int]float64{x: 1, y: 1}, GE, 10)
	m.AddConstraint(map[int]float64{x: 1}, GE, 2)
	sol, err := m.Solve()
	if err != nil || sol.Status != Optimal {
		t.Fatal(err)
	}
	re, err := m.ResolveFrom(sol.Basis)
	if err != nil {
		t.Fatal(err)
	}
	if re.Status != Optimal || math.Abs(re.Objective-sol.Objective) > 1e-9 {
		t.Fatalf("re-solve drifted: %v vs %v", re.Objective, sol.Objective)
	}
	if re.Pivots != 0 {
		t.Errorf("re-solve of an unchanged model pivoted %d times", re.Pivots)
	}
}

// solutionDiff names the first field in which a and b differ bit for
// bit ("" when they are identical), Basis included.
func solutionDiff(a, b *Solution) string {
	same := func(x, y []float64) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return false
			}
		}
		return true
	}
	switch {
	case a.Status != b.Status:
		return fmt.Sprintf("status %v vs %v", a.Status, b.Status)
	case a.Pivots != b.Pivots:
		return fmt.Sprintf("pivots %d vs %d", a.Pivots, b.Pivots)
	case !same(a.X, b.X):
		return fmt.Sprintf("x %v vs %v", a.X, b.X)
	case !same([]float64{a.Objective, a.DualityGap}, []float64{b.Objective, b.DualityGap}):
		return fmt.Sprintf("objective/gap %v/%v vs %v/%v", a.Objective, a.DualityGap, b.Objective, b.DualityGap)
	case !same(a.Duals, b.Duals):
		return fmt.Sprintf("duals %v vs %v", a.Duals, b.Duals)
	case !reflect.DeepEqual(a.Basis, b.Basis):
		return "basis differs"
	}
	return ""
}

// TestColumnCopyInvalidation: a model keeps its column copy from one
// solve to the next, so every mutation must leave it right. After each
// of AddVar, AddRow, Reset, SetRHS and SetUpperBound on a model that has
// already been solved, its solve must equal a solve of a fresh Clone,
// which builds the copy from scratch.
func TestColumnCopyInvalidation(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	steps := []struct {
		name string
		edit func(m *Model)
	}{
		{"AddRow", func(m *Model) {
			m.AddRow([]int{0, m.NumVars() - 1}, []float64{1, 2}, GE, 1)
		}},
		{"AddVar", func(m *Model) { m.AddVar(1, 3) }},
		{"AddVar+AddRow", func(m *Model) {
			j := m.AddVar(1, 3)
			m.AddRow([]int{j, 0}, []float64{1, 1}, GE, 2)
		}},
		{"Reset", func(m *Model) {
			m.Reset()
			a, b := m.AddVar(1, 4), m.AddVar(2, math.Inf(1))
			m.AddRow([]int{b, a}, []float64{1, 3}, GE, 2)
			m.AddRow([]int{a}, []float64{-1}, LE, 1)
		}},
		{"SetRHS", func(m *Model) {
			for i := 0; i < m.NumConstraints(); i++ {
				m.SetRHS(i, rng.Float64()*6-2)
			}
		}},
		{"SetUpperBound", func(m *Model) {
			for j := 0; j < m.NumVars(); j++ {
				m.SetUpperBound(j, 0.5+rng.Float64()*5)
			}
		}},
	}
	for trial := 0; trial < 60; trial++ {
		m := randomModel(rng)
		if _, err := m.Solve(); err != nil {
			t.Fatal(err)
		}
		for _, st := range steps {
			st.edit(m)
			got, err := m.Solve()
			if err != nil {
				t.Fatal(err)
			}
			want, err := m.Clone().Solve()
			if err != nil {
				t.Fatal(err)
			}
			if d := solutionDiff(got, want); d != "" {
				t.Fatalf("trial %d, after %s: solve differs from a fresh clone's: %s", trial, st.name, d)
			}
		}
	}
}

// TestResolveFromStaleBasis: a basis captured before AddVar must fall
// back to a cold solve, not corrupt the answer.
func TestResolveFromStaleBasis(t *testing.T) {
	m := NewModel()
	x := m.AddVar(1, math.Inf(1))
	m.AddConstraint(map[int]float64{x: 1}, GE, 4)
	sol, err := m.Solve()
	if err != nil || sol.Status != Optimal {
		t.Fatal(err)
	}
	y := m.AddVar(1, math.Inf(1))
	m.AddConstraint(map[int]float64{x: 1, y: 1}, GE, 7)
	re, err := m.ResolveFrom(sol.Basis)
	if err != nil {
		t.Fatal(err)
	}
	if re.Status != Optimal || math.Abs(re.Objective-7) > 1e-8 {
		t.Fatalf("stale-basis resolve: %v obj %v, want 7", re.Status, re.Objective)
	}
	if re, err = m.ResolveFrom(nil); err != nil || math.Abs(re.Objective-7) > 1e-8 {
		t.Fatalf("nil-basis resolve: %v %v", re, err)
	}
}

// TestWarmStartInfeasibleRows: rows that contradict each other must be
// detected as Infeasible from a warm basis too.
func TestWarmStartInfeasibleRows(t *testing.T) {
	m := NewModel()
	x := m.AddVar(1, math.Inf(1))
	m.AddConstraint(map[int]float64{x: 1}, LE, 3)
	sol, err := m.Solve()
	if err != nil || sol.Status != Optimal {
		t.Fatal(err)
	}
	m.AddConstraint(map[int]float64{x: 1}, GE, 5)
	re, err := m.ResolveFrom(sol.Basis)
	if err != nil {
		t.Fatal(err)
	}
	if re.Status != Infeasible {
		t.Fatalf("status %v, want infeasible", re.Status)
	}
}

// TestDenseMatchesSparseOnSuite replays every named unit model through
// both solvers, pinning the pair together beyond the random sweep.
func TestDenseMatchesSparseOnSuite(t *testing.T) {
	builders := map[string]func() *Model{
		"beale-dual": func() *Model { return bealeDual(1) },
		"bounded-binding": func() *Model {
			m := NewModel()
			x := m.AddVar(1, 1.5)
			y := m.AddVar(2, 2.5)
			m.AddConstraint(map[int]float64{x: 1, y: 1}, GE, 3.5)
			return m
		},
		"negated-row": func() *Model {
			m := NewModel()
			x := m.AddVar(1, math.Inf(1))
			m.AddConstraint(map[int]float64{x: -1}, LE, -5)
			return m
		},
		"redundant-eq": func() *Model {
			m := NewModel()
			x := m.AddVar(1, math.Inf(1))
			y := m.AddVar(2, math.Inf(1))
			m.AddConstraint(map[int]float64{x: 1, y: 1}, EQ, 3)
			m.AddConstraint(map[int]float64{x: 1, y: 1}, EQ, 3)
			m.AddConstraint(map[int]float64{x: 2, y: 2}, EQ, 6)
			return m
		},
	}
	for name, build := range builders {
		m := build()
		sp, err := m.Solve()
		if err != nil {
			t.Fatalf("%s: sparse: %v", name, err)
		}
		dn, err := m.SolveDense()
		if err != nil {
			t.Fatalf("%s: dense: %v", name, err)
		}
		if sp.Status != dn.Status {
			t.Fatalf("%s: sparse %v vs dense %v", name, sp.Status, dn.Status)
		}
		if sp.Status == Optimal && math.Abs(sp.Objective-dn.Objective) > 1e-6*(1+math.Abs(dn.Objective)) {
			t.Fatalf("%s: sparse %v vs dense %v", name, sp.Objective, dn.Objective)
		}
	}
}

// buildMedium is the shared 40-var/80-row benchmark model.
func buildMedium() *Model {
	rng := rand.New(rand.NewSource(123))
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

func BenchmarkSimplexSparseMedium(b *testing.B) {
	m := buildMedium()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Solve(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimplexDenseMedium(b *testing.B) {
	m := buildMedium()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.SolveDense(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLPResolveAppendRow measures the warm-start path: clone the
// solved base model, append one violated row, ResolveFrom the incumbent
// basis — the inner step of every row-generation round.
func BenchmarkLPResolveAppendRow(b *testing.B) {
	base := buildMedium()
	sol, err := base.Solve()
	if err != nil || sol.Status != Optimal {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	cols := make([]int, 0, 8)
	vals := make([]float64, 0, 8)
	for j := 0; j < 8; j++ {
		cols = append(cols, rng.Intn(base.NumVars()))
		vals = append(vals, 0.5+rng.Float64())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := base.Clone()
		b.StartTimer()
		m.AddRow(cols, vals, GE, 3)
		if _, err := m.ResolveFrom(sol.Basis); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLPColdAppendRow is the same step without the warm start: the
// baseline ResolveFrom replaces.
func BenchmarkLPColdAppendRow(b *testing.B) {
	base := buildMedium()
	if _, err := base.Solve(); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	cols := make([]int, 0, 8)
	vals := make([]float64, 0, 8)
	for j := 0; j < 8; j++ {
		cols = append(cols, rng.Intn(base.NumVars()))
		vals = append(vals, 0.5+rng.Float64())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := base.Clone()
		b.StartTimer()
		m.AddRow(cols, vals, GE, 3)
		if _, err := m.Solve(); err != nil {
			b.Fatal(err)
		}
	}
}
