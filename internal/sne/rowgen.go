package sne

import (
	"errors"
	"fmt"

	"netdesign/internal/game"
	"netdesign/internal/lp"
	"netdesign/internal/numeric"
)

// ErrRowGenStalled is returned when constraint generation exceeds its
// iteration budget, which would indicate a tolerance mismatch between the
// LP solver and the separation oracle.
var ErrRowGenStalled = errors.New("sne: row generation exceeded iteration budget")

// SolveRowGeneration solves the exponential LP (1) by lazy constraint
// generation. Starting from the unconstrained relaxation (b = 0), it
// repeatedly asks the separation oracle — a Dijkstra best-response
// computation per player, exactly as described under Theorem 1 — for a
// violated equilibrium constraint, adds that row, and re-solves. Because
// the row set grows within the finite family of (player, simple-path)
// constraints, the loop terminates; on exit the incumbent is feasible for
// the full LP and optimal for a relaxation of it, hence optimal.
//
// Each round appends one sparse row (preallocated buffers, no maps) and
// re-solves warm with lp.ResolveFrom: the previous optimal basis stays
// dual feasible after AddRow, so the dual simplex only repairs the
// infeasibility the new cut introduced — it never rebuilds a tableau.
func SolveRowGeneration(st *game.State, maxIters int) (*Result, error) {
	return SolveRowGenerationFrom(st, maxIters, nil)
}

// SolveRowGenerationFrom is SolveRowGeneration seeded with a basis from
// another solve: the first round starts from warm only where
// lp.ResolveFrom can seat it dual feasible on the young model (a basis
// with more rows than that model cannot be), and every later round
// chains within the instance as usual. Result.Basis carries the chain
// onward. A nil or unusable warm basis gives the cold first solve.
func SolveRowGenerationFrom(st *game.State, maxIters int, warm *lp.Basis) (*Result, error) {
	if maxIters <= 0 {
		maxIters = 10000
	}
	g := st.Game().G
	model := lp.NewModel()
	estab := st.EstablishedEdges()
	varOf := make([]int, g.M())
	for i := range varOf {
		varOf[i] = -1
	}
	for _, id := range estab {
		varOf[id] = model.AddVar(1, g.Weight(id))
	}

	res := &Result{}
	b := game.ZeroSubsidy(g)
	onPath := make([]bool, g.M())
	cols := make([]int, 0, 16)
	vals := make([]float64, 0, 16)
	basis := warm
	// The strategy profile is fixed for the whole loop — only b moves —
	// which is the separation oracle's contract: on large instances it
	// resumes the scan at the last violator instead of re-proving the
	// satisfied prefix with a Dijkstra per player per round, and on small
	// ones it is exactly st.FindViolation.
	oracle := st.NewSeparationOracle()
	for iter := 0; iter < maxIters; iter++ {
		res.Iterations++
		// Separation: find any player with a profitable deviation.
		viol := oracle.FindViolation(b)
		if viol == nil {
			snap(b, g)
			res.Subsidy = b
			res.Cost = b.Cost()
			res.Basis = basis
			if err := VerifyGeneral(st, b); err != nil {
				return nil, fmt.Errorf("sne: row generation ended non-enforcing: %w", err)
			}
			return res, nil
		}
		// Add the constraint cost_i(T;b) ≤ cost_i(T_{-i}, p; b) for the
		// violating path p. Shared edges (used by i on both sides) cancel.
		i, p := viol.Player, viol.Path
		cols, vals = cols[:0], vals[:0]
		rhs := 0.0
		for _, id := range p {
			onPath[id] = true
		}
		for _, id := range st.Paths[i] {
			if onPath[id] {
				continue // denominator n_a on both sides — cancels
			}
			na := float64(st.Usage(id))
			cols = append(cols, varOf[id])
			vals = append(vals, 1/na)
			rhs += g.Weight(id) / na
		}
		for _, id := range p {
			if st.Uses(i, id) {
				continue
			}
			den := float64(st.Usage(id) + 1)
			if j := varOf[id]; j >= 0 {
				cols = append(cols, j)
				vals = append(vals, -1/den)
			}
			rhs -= g.Weight(id) / den
		}
		for _, id := range p {
			onPath[id] = false
		}
		// Σ_{T_i\p} b/n − Σ_{p\T_i} b/(n+1) ≥ Σ_{T_i\p} w/n − Σ_{p\T_i} w/(n+1)
		model.AddRow(cols, vals, lp.GE, rhs)

		sol, err := model.ResolveFrom(basis)
		if err != nil {
			return nil, err
		}
		if sol.Status != lp.Optimal {
			return nil, fmt.Errorf("sne: row generation LP status %v", sol.Status)
		}
		basis = sol.Basis
		res.Pivots += sol.Pivots
		for _, id := range estab {
			b[id] = numeric.Clamp(sol.X[varOf[id]], 0, g.Weight(id))
		}
	}
	return nil, ErrRowGenStalled
}
