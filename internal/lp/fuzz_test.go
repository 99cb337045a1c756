package lp

import (
	"math"
	"testing"
)

// FuzzLPSolve fuzzes the sparse revised simplex against the dense
// tableau oracle on feasible-by-construction models: a witness point x*
// is decoded from the fuzz bytes first, and every row's RHS is then
// offset from a·x* so that x* satisfies it. Both solvers must agree the
// model is Optimal (it cannot be infeasible, and costs are non-negative
// so it cannot be unbounded), match objectives, and return points the
// model's independent Feasible check accepts.
func FuzzLPSolve(f *testing.F) {
	f.Add([]byte{3, 200, 10, 30, 50, 2, 0, 7, 120, 1, 1, 3, 200, 90})
	f.Add([]byte{1, 0, 0})
	f.Add([]byte{5, 9, 9, 9, 9, 9, 4, 2, 33, 44, 55, 66, 77, 88, 99, 11, 22})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		nv := 1 + int(next())%6
		m := NewModel()
		xs := make([]float64, nv)
		for j := 0; j < nv; j++ {
			cost := float64(next()%8) / 2 // ≥ 0: minimization stays bounded
			ub := math.Inf(1)
			hi := 8.0
			if next()%2 == 0 {
				ub = 0.5 + float64(next()%16)/2
				hi = ub
			}
			m.AddVar(cost, ub)
			xs[j] = math.Min(hi, float64(next()%16)/2) // witness inside [0, ub]
		}
		rows := int(next()) % 10
		for k := 0; k < rows; k++ {
			coefs := map[int]float64{}
			lhs := 0.0
			for j := 0; j < nv; j++ {
				if next()%2 == 0 {
					c := float64(int(next())%9-4) / 2
					coefs[j] = c
					lhs += c * xs[j]
				}
			}
			// Margined offsets keep the witness interior, so tolerance
			// differences between the solvers cannot flip the status.
			off := 0.25 + float64(next()%8)/4
			switch next() % 3 {
			case 0:
				m.AddConstraint(coefs, LE, lhs+off)
			case 1:
				m.AddConstraint(coefs, GE, lhs-off)
			default:
				m.AddConstraint(coefs, EQ, lhs)
			}
		}
		if !m.Feasible(xs, 1e-9) {
			t.Fatalf("witness construction broken: %v", xs)
		}
		sp, err := m.Solve()
		if err != nil {
			t.Fatalf("sparse: %v", err)
		}
		dn, err := m.SolveDense()
		if err != nil {
			t.Fatalf("dense: %v", err)
		}
		if sp.Status != Optimal || dn.Status != Optimal {
			t.Fatalf("feasible bounded model: sparse %v dense %v", sp.Status, dn.Status)
		}
		if !m.Feasible(sp.X, 1e-6) {
			t.Fatalf("sparse optimum infeasible: %v", sp.X)
		}
		if !m.Feasible(dn.X, 1e-6) {
			t.Fatalf("dense optimum infeasible: %v", dn.X)
		}
		if diff := math.Abs(sp.Objective - dn.Objective); diff > 1e-6*(1+math.Abs(dn.Objective)) {
			t.Fatalf("objectives diverge: sparse %v dense %v", sp.Objective, dn.Objective)
		}
		if sp.Objective > m.Value(xs)+1e-6*(1+math.Abs(m.Value(xs))) {
			t.Fatalf("witness beats 'optimum': %v < %v", m.Value(xs), sp.Objective)
		}

		// Warm starts: the optimal basis must re-solve a structurally
		// identical neighbour (all inequalities loosened, so the witness
		// stays feasible) and a row-truncated model (which solves cold),
		// matching the dense oracle on each.
		loose := 0.25 + float64(next()%8)/8
		nb := m.Clone()
		for i := 0; i < nb.NumConstraints(); i++ {
			switch nb.ops[i] {
			case LE:
				nb.rhs[i] += loose
			case GE:
				nb.rhs[i] -= loose
			}
		}
		warm, err := nb.ResolveFrom(sp.Basis)
		if err != nil {
			t.Fatalf("foreign warm: %v", err)
		}
		wdn, err := nb.SolveDense()
		if err != nil {
			t.Fatalf("foreign dense: %v", err)
		}
		if warm.Status != wdn.Status {
			t.Fatalf("foreign: warm %v vs dense %v", warm.Status, wdn.Status)
		}
		if warm.Status == Optimal {
			if diff := math.Abs(warm.Objective - wdn.Objective); diff > 1e-6*(1+math.Abs(wdn.Objective)) {
				t.Fatalf("foreign objectives diverge: warm %v dense %v", warm.Objective, wdn.Objective)
			}
			if !nb.Feasible(warm.X, 1e-6) {
				t.Fatalf("foreign warm optimum infeasible: %v", warm.X)
			}
		}
		if rows > 0 {
			// Truncation direction: basis has more rows than the model.
			tr := NewModel()
			for j := 0; j < m.NumVars(); j++ {
				tr.AddVar(m.obj[j], m.ub[j])
			}
			for i := 0; i < m.NumConstraints()-1; i++ {
				cols, vals, op, rhs := m.Row(i)
				tr.AddRow(cols, vals, op, rhs)
			}
			tw, err := tr.ResolveFrom(sp.Basis)
			if err != nil {
				t.Fatalf("truncated warm: %v", err)
			}
			tdn, err := tr.SolveDense()
			if err != nil {
				t.Fatalf("truncated dense: %v", err)
			}
			if tw.Status != tdn.Status {
				t.Fatalf("truncated: warm %v vs dense %v", tw.Status, tdn.Status)
			}
			if tw.Status == Optimal {
				if diff := math.Abs(tw.Objective - tdn.Objective); diff > 1e-6*(1+math.Abs(tdn.Objective)) {
					t.Fatalf("truncated objectives diverge: warm %v dense %v", tw.Objective, tdn.Objective)
				}
			}
		}
	})
}
