package lp

import (
	"math"
	"math/rand"
	"testing"
)

// Adversarial instances for the sparse kernel: families engineered to
// break simplex implementations — exponential pivot paths (Klee–Minty),
// cycling under naive pricing (Beale), heavy degeneracy and rank
// deficiency — each in a form of the model class (c ≥ 0). Every solve is
// held to the dense tableau oracle; the point is that devex + the Bland
// fallback terminate and agree, not that they take any particular path.

// kleeMinty builds the n-dimensional Klee–Minty cube, max Σ 2^{n−j}·x_j
// subject to 2·Σ_{k<j} 2^{j−k}·x_k + x_j ≤ 5^j, recast to c ≥ 0: the rows
// imply x_j ≤ 5^j, so x_j = 5^j − y_j with 0 ≤ y_j ≤ 5^j turns it into
// min Σ 2^{n−j}·y_j subject to 2·Σ_{k<j} 2^{j−k}·y_k + y_j ≥
// 2·Σ_{k<j} 2^{j−k}·5^k. The original optimum (0, …, 0, 5^n) is
// y = (5, …, 5^{n−1}, 0). The recast still checks the answer, but it no
// longer attacks a pivot rule: Dantzig's 2^n-vertex path belongs to the
// primal simplex on the original form. It returns the model and the
// original optimum.
func kleeMinty(n int) (*Model, float64) {
	m := NewModel()
	for j := 0; j < n; j++ {
		m.AddVar(math.Pow(2, float64(n-1-j)), math.Pow(5, float64(j+1)))
	}
	for j := 0; j < n; j++ {
		coefs := map[int]float64{j: 1}
		rhs := 0.0
		for k := 0; k < j; k++ {
			coefs[k] = 2 * math.Pow(2, float64(j-k))
			rhs += coefs[k] * math.Pow(5, float64(k+1))
		}
		m.AddConstraint(coefs, GE, rhs)
	}
	return m, -math.Pow(5, float64(n))
}

// kleeMintyX maps a recast point back to the original x_j = 5^j − y_j.
func kleeMintyX(y []float64) []float64 {
	x := make([]float64, len(y))
	for j := range y {
		x[j] = math.Pow(5, float64(j+1)) - y[j]
	}
	return x
}

// bealeDual builds the LP dual of Beale's cycling example
//
//	min −0.75x₁ + 150x₂ − 0.02x₃ + 6x₄
//	s.t. 0.25x₁ − 60x₂ − 0.04x₃ + 9x₄ ≤ 0
//	     0.5x₁  − 90x₂ − 0.02x₃ + 3x₄ ≤ 0
//	     x₃ ≤ 1
//
// with its first two rows repeated reps times. Its costs are Beale's
// right-hand sides (0, …, 0, 1), so it is Beale's example recast to
// c ≥ 0: one multiplier u_i ≥ 0 per row, one row Σ_i a_ij·u_i ≥ −c_j per
// column, min u_last. By strong duality its optimum is 0.05, minus
// Beale's −0.05. The dual simplex on the dual walks the primal simplex's
// path on Beale's form, so the degenerate pivots stay.
func bealeDual(reps int) *Model {
	m := NewModel()
	var u []int
	for r := 0; r < reps; r++ {
		u = append(u, m.AddVar(0, math.Inf(1)), m.AddVar(0, math.Inf(1)))
	}
	u3 := m.AddVar(1, math.Inf(1))
	col := func(a1, a2, a3, c float64) {
		coefs := map[int]float64{u3: a3}
		for r := 0; r < reps; r++ {
			coefs[u[2*r]], coefs[u[2*r+1]] = a1, a2
		}
		m.AddConstraint(coefs, GE, -c)
	}
	col(0.25, 0.5, 0, -0.75)
	col(-60, -90, 0, 150)
	col(-0.04, -0.02, 1, -0.02)
	col(9, 3, 0, 6)
	return m
}

func TestKleeMintyCubes(t *testing.T) {
	for n := 2; n <= 8; n++ {
		m, want := kleeMinty(n)
		sp, err := m.Solve()
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if sp.Status != Optimal {
			t.Fatalf("n=%d: status %v", n, sp.Status)
		}
		x := kleeMintyX(sp.X)
		got := 0.0
		for j, xj := range x {
			got -= math.Pow(2, float64(n-1-j)) * xj
		}
		if math.Abs(got-want) > 1e-6*(1+math.Abs(want)) {
			t.Fatalf("n=%d: original objective %v, want %v", n, got, want)
		}
		if math.Abs(x[n-1]+want) > 1e-6*(1+math.Abs(want)) {
			t.Fatalf("n=%d: x = %v, want (0, …, 0, 5^n)", n, x)
		}
		dn, err := m.SolveDense()
		if err != nil || dn.Status != Optimal {
			t.Fatalf("n=%d: dense %v %v", n, dn, err)
		}
		if math.Abs(sp.Objective-dn.Objective) > 1e-6*(1+math.Abs(dn.Objective)) {
			t.Fatalf("n=%d: sparse %v vs dense %v", n, sp.Objective, dn.Objective)
		}
		if !m.Feasible(sp.X, 1e-6) {
			t.Fatalf("n=%d: optimum infeasible", n)
		}
	}
}

// TestHighlyDegenerate stresses ties: duplicated rows, scaled copies,
// zero right-hand sides and rank-deficient equality blocks, where most
// pivots are degenerate and cycling is the classic failure mode.
func TestHighlyDegenerate(t *testing.T) {
	builders := map[string]func() *Model{
		// Recast to c ≥ 0: the dual of Beale's example with its cycling
		// block repeated three times, which repeats its columns.
		"beale-dup": func() *Model { return bealeDual(3) },
		"zero-rhs-cone": func() *Model {
			// Everything tied at the origin; optimum 0 with massive
			// degeneracy.
			m := NewModel()
			x := m.AddVar(1, math.Inf(1))
			y := m.AddVar(2, math.Inf(1))
			z := m.AddVar(0.5, math.Inf(1))
			for k := 0; k < 6; k++ {
				m.AddConstraint(map[int]float64{x: 1, y: float64(k), z: -1}, GE, 0)
			}
			m.AddConstraint(map[int]float64{x: 1, y: 1, z: 1}, GE, 0)
			return m
		},
		"rank-deficient-eq": func() *Model {
			// Three dependent equalities plus scaled copies.
			m := NewModel()
			x := m.AddVar(1, math.Inf(1))
			y := m.AddVar(2, math.Inf(1))
			z := m.AddVar(3, math.Inf(1))
			m.AddConstraint(map[int]float64{x: 1, y: 1, z: 1}, EQ, 6)
			m.AddConstraint(map[int]float64{x: 2, y: 2, z: 2}, EQ, 12)
			m.AddConstraint(map[int]float64{x: -1, y: -1, z: -1}, EQ, -6)
			m.AddConstraint(map[int]float64{x: 1, y: -1}, EQ, 0)
			m.AddConstraint(map[int]float64{x: 3, y: -3}, EQ, 0)
			return m
		},
		"degenerate-transport": func() *Model {
			// A 3×3 transportation polytope with all supplies equal: the
			// classic degenerate-basis family.
			m := NewModel()
			var v [9]int
			costs := []float64{4, 1, 3, 2, 5, 1, 3, 2, 2}
			for i := range v {
				v[i] = m.AddVar(costs[i], math.Inf(1))
			}
			for r := 0; r < 3; r++ {
				m.AddConstraint(map[int]float64{v[3*r]: 1, v[3*r+1]: 1, v[3*r+2]: 1}, EQ, 1)
			}
			for c := 0; c < 3; c++ {
				m.AddConstraint(map[int]float64{v[c]: 1, v[c+3]: 1, v[c+6]: 1}, EQ, 1)
			}
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
		if sp.Status == Optimal {
			if math.Abs(sp.Objective-dn.Objective) > 1e-6*(1+math.Abs(dn.Objective)) {
				t.Fatalf("%s: sparse %v vs dense %v", name, sp.Objective, dn.Objective)
			}
			if !m.Feasible(sp.X, 1e-6) {
				t.Fatalf("%s: optimum infeasible", name)
			}
		}
	}
}

// perturbRHS returns a clone with every inequality loosened by eps —
// same structure fingerprint, shifted geometry: the canonical "nearby
// instance".
func perturbRHS(m *Model, eps float64) *Model {
	c := m.Clone()
	for i := range c.ops {
		switch c.ops[i] {
		case LE:
			c.rhs[i] += eps
		case GE:
			c.rhs[i] -= eps
		}
	}
	return c
}

// TestResolveFromForeignModel: a basis captured on one model warm starts
// a *different* model of the same structure and costs with new row
// constants — the class that stays dual feasible once seated — and must
// land on that model's own optimum (held to the dense oracle).
func TestResolveFromForeignModel(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	chained, optimal := 0, 0
	for trial := 0; trial < 600; trial++ {
		a := randomModel(rng)
		solA, err := a.Solve()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if solA.Status != Optimal {
			continue
		}
		b := perturbRHS(a, 0.25+rng.Float64())
		if a.StructureFingerprint() != b.StructureFingerprint() {
			t.Fatalf("trial %d: perturbed clone changed the structure fingerprint", trial)
		}
		if !solA.Basis.CompatibleWith(b) {
			t.Fatalf("trial %d: same-structure basis reported incompatible", trial)
		}
		warm, err := b.ResolveFrom(solA.Basis)
		if err != nil {
			t.Fatalf("trial %d: warm: %v", trial, err)
		}
		dense, err := b.SolveDense()
		if err != nil {
			t.Fatalf("trial %d: dense: %v", trial, err)
		}
		chained++
		if warm.Status != dense.Status {
			t.Fatalf("trial %d: warm %v vs dense %v", trial, warm.Status, dense.Status)
		}
		if warm.Status != Optimal {
			continue
		}
		optimal++
		if math.Abs(warm.Objective-dense.Objective) > 1e-6*(1+math.Abs(dense.Objective)) {
			t.Fatalf("trial %d: warm %v vs dense %v", trial, warm.Objective, dense.Objective)
		}
		if !b.Feasible(warm.X, 1e-6) {
			t.Fatalf("trial %d: warm optimum infeasible", trial)
		}
	}
	if chained < 60 || optimal < 60 {
		t.Fatalf("only %d chained / %d optimal foreign resolves exercised", chained, optimal)
	}
}

// seatsDualFeasible reports whether bs, seated on m as ResolveFrom seats
// it, factorizes and prices out: the only bases the dual simplex starts
// from.
func seatsDualFeasible(m *Model, bs *Basis) bool {
	s := newSparse(m)
	defer s.release()
	s.initFromBasis(bs)
	if _, err := s.refresh(true); err != nil {
		return false
	}
	s.computeDuals()
	return s.dualFeasible()
}

// TestResolveFromTruncatedRows: a basis ResolveFrom cannot start from
// returns the cold solve's answer bit for bit, pivot count and basis
// included. Three kinds are drawn: a basis with more rows than the model
// (taken from the same model before rows were dropped), a basis of the
// same structure under other costs that seats dual infeasible, and one
// with the wrong variable count. A same-structure basis that does seat
// dual feasible must still reach the dense oracle's optimum.
func TestResolveFromTruncatedRows(t *testing.T) {
	rng := rand.New(rand.NewSource(173))
	truncated, infeasible, feasible := 0, 0, 0
	for trial := 0; trial < 1200; trial++ {
		big := randomModel(rng)
		if big.NumConstraints() < 2 {
			continue
		}
		solBig, err := big.Solve()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if solBig.Status != Optimal {
			continue
		}
		// The same model with only a prefix of its rows.
		small := NewModel()
		for j := 0; j < big.NumVars(); j++ {
			small.AddVar(big.obj[j], big.ub[j])
		}
		keep := 1 + rng.Intn(big.NumConstraints()-1)
		for i := 0; i < keep; i++ {
			cols, vals, op, rhs := big.Row(i)
			small.AddRow(cols, vals, op, rhs)
		}
		// The same structure under fresh costs.
		repriced := big.Clone()
		for j := range repriced.obj {
			repriced.obj[j] = rng.Float64() * 3
		}
		wider := big.Clone()
		wider.AddVar(1, 1)
		for _, c := range []struct {
			name string
			m    *Model
		}{{"truncated", small}, {"repriced", repriced}, {"wider", wider}} {
			warm, err := c.m.ResolveFrom(solBig.Basis)
			if err != nil {
				t.Fatalf("trial %d %s: warm: %v", trial, c.name, err)
			}
			cold, err := c.m.Solve()
			if err != nil {
				t.Fatalf("trial %d %s: cold: %v", trial, c.name, err)
			}
			if c.m == repriced && seatsDualFeasible(repriced, solBig.Basis) {
				feasible++
				dense, err := repriced.SolveDense()
				if err != nil {
					t.Fatalf("trial %d: dense: %v", trial, err)
				}
				if warm.Status != dense.Status || warm.Status == Optimal &&
					math.Abs(warm.Objective-dense.Objective) > 1e-6*(1+math.Abs(dense.Objective)) {
					t.Fatalf("trial %d: dual-feasible warm %v %v vs dense %v %v",
						trial, warm.Status, warm.Objective, dense.Status, dense.Objective)
				}
				continue
			}
			if d := solutionDiff(warm, cold); d != "" {
				t.Fatalf("trial %d %s: warm differs from cold: %s", trial, c.name, d)
			}
			switch c.name {
			case "truncated":
				truncated++
			case "repriced":
				infeasible++
			}
		}
	}
	if truncated < 50 || infeasible < 50 || feasible < 50 {
		t.Fatalf("only %d truncated, %d dual-infeasible and %d dual-feasible resolves exercised",
			truncated, infeasible, feasible)
	}
}

// TestFingerprintSeparates: structure edits models of different shape
// must not share fingerprints (probabilistically: these specific edits).
func TestFingerprintSeparates(t *testing.T) {
	m := NewModel()
	m.AddVar(1, 2)
	m.AddVar(1, math.Inf(1))
	m.AddConstraint(map[int]float64{0: 1, 1: 1}, GE, 1)
	fp := m.StructureFingerprint()

	plusVar := m.Clone()
	plusVar.AddVar(1, 1)
	if plusVar.StructureFingerprint() == fp {
		t.Error("adding a variable kept the fingerprint")
	}
	plusRow := m.Clone()
	plusRow.AddConstraint(map[int]float64{0: 2}, LE, 5)
	if plusRow.StructureFingerprint() == fp {
		t.Error("adding a row kept the fingerprint")
	}
	opFlip := NewModel()
	opFlip.AddVar(1, 2)
	opFlip.AddVar(1, math.Inf(1))
	opFlip.AddConstraint(map[int]float64{0: 1, 1: 1}, LE, 1)
	if opFlip.StructureFingerprint() == fp {
		t.Error("changing a row op kept the fingerprint")
	}
	boundFlip := NewModel()
	boundFlip.AddVar(1, 2)
	boundFlip.AddVar(1, 3) // finite where m had +Inf
	boundFlip.AddConstraint(map[int]float64{0: 1, 1: 1}, GE, 1)
	if boundFlip.StructureFingerprint() == fp {
		t.Error("changing bound finiteness kept the fingerprint")
	}
	// Value-only changes keep it.
	valueOnly := m.Clone()
	valueOnly.rhs[0] = 17
	valueOnly.obj[0] = 3
	if valueOnly.StructureFingerprint() != fp {
		t.Error("value-only perturbation changed the fingerprint")
	}
}

// TestWarmChainSameStructure mimics the sweep's jitter chain end to end
// at the lp level: a family of models with one structure and drifting
// row constants solved in sequence, each warm started from the previous
// optimum, every result held to the dense oracle and to a cold solve's
// pivot count (the warm chain must not be wildly worse; it usually is
// strictly better).
func TestWarmChainSameStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	base := NewModel()
	nv := 12
	for j := 0; j < nv; j++ {
		base.AddVar(1, 1+rng.Float64())
	}
	for k := 0; k < 30; k++ {
		coefs := map[int]float64{}
		for j := 0; j < nv; j++ {
			if rng.Intn(3) == 0 {
				coefs[j] = 0.2 + rng.Float64()
			}
		}
		base.AddConstraint(coefs, GE, rng.Float64())
	}
	var basis *Basis
	warmPivots, coldPivots := 0, 0
	for inst := 0; inst < 25; inst++ {
		m := base.Clone()
		for i := range m.rhs {
			m.rhs[i] *= 1 + 0.1*(2*rng.Float64()-1)
		}
		warm, err := m.ResolveFrom(basis)
		if err != nil {
			t.Fatalf("inst %d: %v", inst, err)
		}
		cold, err := m.Solve()
		if err != nil {
			t.Fatalf("inst %d: %v", inst, err)
		}
		dense, err := m.SolveDense()
		if err != nil {
			t.Fatalf("inst %d: %v", inst, err)
		}
		if warm.Status != dense.Status || cold.Status != dense.Status {
			t.Fatalf("inst %d: statuses warm %v cold %v dense %v", inst, warm.Status, cold.Status, dense.Status)
		}
		if warm.Status == Optimal && math.Abs(warm.Objective-dense.Objective) > 1e-6*(1+math.Abs(dense.Objective)) {
			t.Fatalf("inst %d: warm %v vs dense %v", inst, warm.Objective, dense.Objective)
		}
		warmPivots += warm.Pivots
		coldPivots += cold.Pivots
		basis = warm.Basis
	}
	t.Logf("warm chain pivots: warm %d vs cold %d", warmPivots, coldPivots)
	if warmPivots > 2*coldPivots+nv {
		t.Fatalf("warm chain pivoted %d times vs cold %d — the warm start is hurting", warmPivots, coldPivots)
	}
}
