// Package sne solves STABLE NETWORK ENFORCEMENT, the paper's first
// optimization problem: given a network design game and a target state T,
// compute minimum-cost subsidies under which T is a Nash equilibrium.
//
// Three solvers implement the paper's Theorem 1 toolchain:
//
//   - LP (3), the compact LP for broadcast games (variables only on tree
//     edges, one row per non-tree edge direction). BroadcastLPChain is
//     its one solver: one builder (also emitting the α-approximate
//     rows), an in-place patch for same-structure re-solves, warm starts
//     across instances, and one finish step that verifies every answer.
//     SolveBroadcastLP, SolveBroadcastLPApprox and BindingDeviations
//     solve cold on a pooled chain; SolveBroadcastLPNaive solves the
//     same model on the dense tableau as the differential oracle;
//   - SolveGeneralLP — the polynomial-size LP (2) with shortest-path
//     potentials π_i(v), for arbitrary multi-commodity games;
//   - SolveRowGeneration — LP (1) solved by constraint generation, using
//     Dijkstra best responses as the separation oracle (the practical
//     stand-in for the paper's ellipsoid argument).
//
// The all-or-nothing variant of Section 5 is solved exactly by
// branch-and-bound (SolveAON) and approximately by a greedy (GreedyAON).
package sne

import (
	"fmt"

	"netdesign/internal/broadcast"
	"netdesign/internal/game"
	"netdesign/internal/lp"
	"netdesign/internal/numeric"
)

// Result is a subsidy assignment enforcing the target, plus metadata.
type Result struct {
	Subsidy    game.Subsidy
	Cost       float64 // Σ b_a
	Iterations int     // LP re-solves (row generation) or B&B nodes (AON)
	Pivots     int     // total simplex pivots

	// Basis is the optimal LP basis of the final solve (nil for the
	// non-LP solvers and the dense oracle). Hand it to a warm-startable
	// solve of an instance with the same LP structure
	// (BroadcastLPChain.SolvePrepared, or a *From variant); lp.ResolveFrom
	// solves cold from any basis it cannot seat dual feasible.
	Basis *lp.Basis
}

// VerifyBroadcast confirms that b is a valid subsidy assignment enforcing
// the broadcast state st. It is deliberately independent of the solvers.
func VerifyBroadcast(st *broadcast.State, b game.Subsidy) error {
	if err := b.Validate(st.BG.G); err != nil {
		return err
	}
	if v := st.FindViolation(b); v != nil {
		return fmt.Errorf("sne: not enforced: %v", v)
	}
	return nil
}

// VerifyGeneral confirms that b enforces the general-game state st.
func VerifyGeneral(st *game.State, b game.Subsidy) error {
	if err := b.Validate(st.Game().G); err != nil {
		return err
	}
	if v := st.FindViolation(b); v != nil {
		return fmt.Errorf("sne: not enforced: player %d can improve %.6g → %.6g",
			v.Player, v.Current, v.Better)
	}
	return nil
}

// FullSubsidy returns the trivial enforcement the paper opens with: fully
// subsidize every established edge so every player's cost is zero. It is
// the baseline against which the LP optimum is compared.
func FullSubsidy(st *broadcast.State) *Result {
	g := st.BG.G
	b := game.ZeroSubsidy(g)
	cost := 0.0
	for _, id := range st.Tree.EdgeIDs {
		b[id] = g.Weight(id)
		cost += b[id]
	}
	return &Result{Subsidy: b, Cost: cost}
}

// snap cleans LP round-off: clamps into [0,w] and zeroes epsilon dust.
func snap(b game.Subsidy, gr interface{ Weight(int) float64 }) {
	for id := range b {
		w := gr.Weight(id)
		b[id] = numeric.Clamp(b[id], 0, w)
		if b[id] < numeric.Eps {
			b[id] = 0
		}
	}
}
