package sne

import (
	"fmt"

	"netdesign/internal/broadcast"
	"netdesign/internal/game"
	"netdesign/internal/numeric"
)

// This file generalizes SNE to α-approximate equilibria (the relaxation
// studied by Albers & Lenzner, cited in the paper's related work): a
// state is an α-equilibrium if no player can improve her cost by more
// than a factor α ≥ 1. Enforcing a tree as an α-equilibrium is still a
// linear program — LP (3) with the Lemma-2 row
//
//	Σ_{a∈T_u} (w_a−b_a)/n_a ≤ α·[ w_uv − b_uv + Σ_{a∈T_v} (w_a−b_a)/(n_a+1−n_a^u) ]
//
// in which, unlike the α = 1 case, the edges shared by T_u and T_v no
// longer cancel (their coefficients become (1−α)/n_a), so rows span full
// paths. buildBroadcastLPInto emits both. Subsidy requirements fall
// monotonically in α and hit zero once α reaches the worst cost ratio of
// the unsubsidized tree.

// IsApproxEquilibrium reports whether the broadcast state is an
// α-approximate equilibrium under subsidies b. Each deviation is O(1)
// off the State's Lemma-2 prefix sums: with x = lca(u,v), the deviation
// costs (w_uv − b_uv) + (dev[v] − dev[x]) + up[x].
func IsApproxEquilibrium(st *broadcast.State, b game.Subsidy, alpha float64) bool {
	if alpha < 1 {
		panic("sne: approximation factor must be ≥ 1")
	}
	return forEachDeviation(st, b, func(cost, dev float64) bool {
		return !numeric.Less(alpha*dev, cost)
	})
}

// forEachDeviation calls f with the tree cost of the deviating player
// and the cost of her deviation under b, for every player and non-tree
// edge, until f returns false; it reports whether f never did.
func forEachDeviation(st *broadcast.State, b game.Subsidy, f func(cost, dev float64) bool) bool {
	up, dev := st.PrefixSums(b)
	edges := st.BG.G.Edges()
	for i := range edges {
		e := &edges[i]
		if st.Tree.Contains(e.ID) {
			continue
		}
		we := e.W - b.At(e.ID)
		for dir := 0; dir < 2; dir++ {
			u, v := e.U, e.V
			if dir == 1 {
				u, v = v, u
			}
			if u == st.BG.Root {
				continue
			}
			x := st.Tree.LCA(u, v)
			if !f(up[u], we+(dev[v]-dev[x])+up[x]) {
				return false
			}
		}
	}
	return true
}

// SolveBroadcastLPApprox computes minimum subsidies enforcing the state
// as an α-approximate equilibrium: LP (3) at α, solved cold on a pooled
// chain. α = 1 is SolveBroadcastLP.
func SolveBroadcastLPApprox(st *broadcast.State, alpha float64) (*Result, error) {
	if alpha < 1 {
		return nil, fmt.Errorf("sne: approximation factor %v must be ≥ 1", alpha)
	}
	c := chainPool.Get().(*BroadcastLPChain)
	defer chainPool.Put(c)
	c.prepare(st, alpha)
	_, res, err := c.solve(st, nil)
	return res, err
}

// StabilityFactor returns the smallest α for which the tree is an
// α-approximate equilibrium without subsidies: the worst ratio of a
// player's tree cost to her best deviation. It is 1 exactly when the
// tree is a Nash equilibrium.
func StabilityFactor(st *broadcast.State) float64 {
	worst := 1.0
	forEachDeviation(st, nil, func(cost, dev float64) bool {
		if dev > 0 && cost/dev > worst {
			worst = cost / dev
		}
		return true
	})
	return worst
}
