package weighted

import (
	"errors"
	"fmt"

	"netdesign/internal/game"
	"netdesign/internal/lp"
	"netdesign/internal/numeric"
)

// SolveSNE computes minimum-cost subsidies enforcing the weighted state
// st, by row generation over the weighted equilibrium constraints. For a
// player i with demand d and deviation path p, the constraint
//
//	Σ_{a∈T_i} (w_a−b_a)·d/load_a ≤ Σ_{a∈p} (w_a−b_a)·d/load'_a
//
// (load'_a = load_a + d when i is not already on a) is linear in b, so
// Theorem 1's LP approach carries over verbatim; the demands only change
// the coefficients. Full subsidies always enforce, so the LP is feasible
// even for games with no unsubsidized equilibrium — subsidies can create
// stability where none exists. Each round emits one sparse row and
// re-solves warm from the previous optimal basis (lp.ResolveFrom).
func SolveSNE(st *State, maxIters int) (*game.Subsidy, float64, int, error) {
	b, cost, iters, _, err := SolveSNEFrom(st, maxIters, nil)
	return b, cost, iters, err
}

// SolveSNEFrom is SolveSNE seeded with a basis from another solve and
// additionally returning the final optimal basis. The first solve starts
// from warm only where lp.ResolveFrom can seat it dual feasible; a nil
// or unusable basis gives the cold first solve.
func SolveSNEFrom(st *State, maxIters int, warm *lp.Basis) (*game.Subsidy, float64, int, *lp.Basis, error) {
	if maxIters <= 0 {
		maxIters = 10000
	}
	g := st.game.G
	// Variables on established edges only.
	varOf := make([]int, g.M())
	model := lp.NewModel()
	for id := range varOf {
		if st.load[id] > 0 {
			varOf[id] = model.AddVar(1, g.Weight(id))
		} else {
			varOf[id] = -1
		}
	}
	b := game.ZeroSubsidy(g)
	onPath := make([]bool, g.M())
	cols := make([]int, 0, 16)
	vals := make([]float64, 0, 16)
	basis := warm
	iters := 0
	for iters < maxIters {
		iters++
		viol := st.FindViolation(b)
		if viol == nil {
			for id := range b {
				b[id] = numeric.Clamp(b[id], 0, g.Weight(id))
			}
			if !st.IsEquilibrium(b) {
				return nil, 0, iters, nil, errors.New("weighted: SNE result failed verification")
			}
			return &b, b.Cost(), iters, basis, nil
		}
		i, p := viol.Player, viol.Path
		d := st.game.Players[i].Demand
		for _, id := range p {
			onPath[id] = true
		}
		cols, vals = cols[:0], vals[:0]
		rhs := 0.0
		for _, id := range st.Paths[i] {
			if onPath[id] {
				continue // identical share on both sides — cancels
			}
			share := d / st.load[id]
			cols = append(cols, varOf[id])
			vals = append(vals, share)
			rhs += g.Weight(id) * share
		}
		for _, id := range p {
			if st.uses[i][id] {
				continue
			}
			share := d / (st.load[id] + d)
			if j := varOf[id]; j >= 0 {
				cols = append(cols, j)
				vals = append(vals, -share)
			}
			rhs -= g.Weight(id) * share
		}
		for _, id := range p {
			onPath[id] = false
		}
		model.AddRow(cols, vals, lp.GE, rhs)
		sol, err := model.ResolveFrom(basis)
		if err != nil {
			return nil, 0, iters, nil, err
		}
		if sol.Status != lp.Optimal {
			return nil, 0, iters, nil, fmt.Errorf("weighted: SNE LP status %v", sol.Status)
		}
		basis = sol.Basis
		for id, j := range varOf {
			if j >= 0 {
				b[id] = numeric.Clamp(sol.X[j], 0, g.Weight(id))
			}
		}
	}
	return nil, 0, iters, nil, errors.New("weighted: SNE row generation exceeded budget")
}
