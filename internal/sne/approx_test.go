package sne

import (
	"fmt"
	"math/rand"
	"testing"

	"netdesign/internal/broadcast"
	"netdesign/internal/game"
	"netdesign/internal/lp"
	"netdesign/internal/numeric"
)

func TestApproxMatchesExactAtAlphaOne(t *testing.T) {
	rng := rand.New(rand.NewSource(801))
	for trial := 0; trial < 25; trial++ {
		st := randomBroadcastState(t, rng, 3+rng.Intn(5), 0.5)
		// α = 1 approximate-equilibrium check ≡ Nash check.
		if got, want := IsApproxEquilibrium(st, nil, 1), st.IsEquilibrium(nil); got != want {
			t.Fatalf("trial %d: approx(1) %v vs Nash %v", trial, got, want)
		}
		// α = 1 builds the exact LP (3), so it solves bit for bit alike.
		r1, err := SolveBroadcastLPApprox(st, 1)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		r0, err := SolveBroadcastLP(st)
		if err != nil {
			t.Fatal(err)
		}
		if d := resultDiff(r1, r0); d != "" {
			t.Fatalf("trial %d: approx LP at α = 1 vs exact LP: %s", trial, d)
		}
	}
}

// TestApproxMatchesDenseMergeOracle holds the shared builder's α > 1
// rows to the dense-merge formulation: equal optimal cost within 1e-9
// relative on random states, each answer α-enforcing.
func TestApproxMatchesDenseMergeOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(803))
	for trial := 0; trial < 200; trial++ {
		st := randomBroadcastState(t, rng, 4+rng.Intn(8), 0.25+0.4*rng.Float64())
		for _, alpha := range []float64{1.1, 1.5, 2, 3} {
			tag := fmt.Sprintf("trial %d α=%v", trial, alpha)
			got, err := SolveBroadcastLPApprox(st, alpha)
			if err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
			want, err := solveApproxDenseMerge(st, alpha)
			if err != nil {
				t.Fatalf("%s: oracle: %v", tag, err)
			}
			if !numeric.AlmostEqualTol(got.Cost, want.Cost, 1e-9) {
				t.Fatalf("%s: cost %v, oracle %v", tag, got.Cost, want.Cost)
			}
			if !IsApproxEquilibrium(st, got.Subsidy, alpha) {
				t.Fatalf("%s: answer not α-enforcing", tag)
			}
		}
	}
}

// onRootSide reports whether tree edge id lies on the path from x to the
// root (the segment shared by T_u and T_v when x = lca(u,v)).
func onRootSide(st *broadcast.State, id, x int) bool {
	e := st.BG.G.Edge(id)
	// The deeper endpoint identifies the edge's position; shared edges
	// are those whose deeper endpoint is an ancestor-or-self of x.
	child := e.U
	if st.Tree.Depth[e.V] > st.Tree.Depth[child] {
		child = e.V
	}
	return st.Tree.LCA(child, x) == child
}

// solveApproxDenseMerge is an independent α-approximate LP (3): it emits
// each row as two full root paths merged through a dense coefficient
// array, rather than the three disjoint segments of
// buildBroadcastLPInto, and it is the oracle SolveBroadcastLPApprox is
// held to at α > 1.
func solveApproxDenseMerge(st *broadcast.State, alpha float64) (*Result, error) {
	if alpha < 1 {
		return nil, fmt.Errorf("sne: approximation factor %v must be ≥ 1", alpha)
	}
	g := st.BG.G
	model := lp.NewModel()
	varOf := make([]int, g.M())
	for i := range varOf {
		varOf[i] = -1
	}
	for _, id := range st.Tree.EdgeIDs {
		varOf[id] = model.AddVar(1, g.Weight(id))
	}
	up0 := st.CostsToRoot(nil)
	// Dense coefficient scratch (indexed by LP variable) plus a touched
	// list: unlike the α = 1 rows, the two path walks overlap above the
	// LCA, so coefficients must be merged before vacuousness is judged.
	coef := make([]float64, model.NumVars())
	touched := make([]int, 0, 16)
	cols := make([]int, 0, 16)
	vals := make([]float64, 0, 16)
	for _, e := range g.Edges() {
		if st.Tree.Contains(e.ID) {
			continue
		}
		for _, dir := range [2][2]int{{e.U, e.V}, {e.V, e.U}} {
			u, v := dir[0], dir[1]
			if u == st.BG.Root {
				continue
			}
			x := st.Tree.LCA(u, v)
			// Row: Σ_{T_u} b/n − α·Σ_{T_v} b/den ≥ up0[u] − α·dev0.
			touched = touched[:0]
			for _, id := range st.Tree.PathToRoot(u) {
				j := varOf[id]
				if coef[j] == 0 {
					touched = append(touched, j)
				}
				coef[j] += 1 / float64(st.NA[id])
			}
			dev0 := e.W
			for _, id := range st.Tree.PathToRoot(v) {
				den := float64(st.NA[id] + 1)
				if onRootSide(st, id, x) {
					den = float64(st.NA[id])
				}
				j := varOf[id]
				if coef[j] == 0 {
					touched = append(touched, j)
				}
				coef[j] -= alpha / den
				dev0 += g.Weight(id) / den
			}
			rhs := up0[u] - alpha*dev0
			cols, vals = cols[:0], vals[:0]
			for _, j := range touched {
				if coef[j] != 0 {
					cols = append(cols, j)
					vals = append(vals, coef[j])
				}
				coef[j] = 0
			}
			// Drop vacuous rows (no support after coefficient merging).
			if len(cols) > 0 || rhs > 0 {
				model.AddRow(cols, vals, lp.GE, rhs)
			}
		}
	}
	sol, err := model.Solve()
	if err != nil {
		return nil, err
	}
	if sol.Status != lp.Optimal {
		return nil, fmt.Errorf("sne: approximate LP status %v", sol.Status)
	}
	b := game.ZeroSubsidy(g)
	for _, id := range st.Tree.EdgeIDs {
		b[id] = sol.X[varOf[id]]
	}
	snap(b, g)
	res := &Result{Subsidy: b, Cost: b.Cost(), Iterations: 1, Pivots: sol.Pivots}
	if !IsApproxEquilibrium(st, b, alpha) {
		return nil, fmt.Errorf("sne: approximate LP produced a non-enforcing assignment")
	}
	return res, nil
}

func TestApproxCostMonotoneInAlpha(t *testing.T) {
	st := cycleInstance(t, 16)
	prev := st.Weight() + 1
	for _, alpha := range []float64{1, 1.1, 1.3, 1.6, 2, 3} {
		r, err := SolveBroadcastLPApprox(st, alpha)
		if err != nil {
			t.Fatalf("alpha %v: %v", alpha, err)
		}
		if r.Cost > prev+1e-9 {
			t.Fatalf("cost not monotone: alpha %v cost %v > previous %v", alpha, r.Cost, prev)
		}
		prev = r.Cost
		if !IsApproxEquilibrium(st, r.Subsidy, alpha) {
			t.Fatalf("alpha %v: result not α-enforcing", alpha)
		}
	}
}

func TestStabilityFactor(t *testing.T) {
	// On the cycle, the worst player is the far one: cost H_n against a
	// deviation of exactly 1, so the stability factor is H_n.
	for _, n := range []int{4, 8, 16} {
		st := cycleInstance(t, n)
		want := numeric.Harmonic(n)
		if got := StabilityFactor(st); !numeric.AlmostEqualTol(got, want, 1e-9) {
			t.Errorf("n=%d: stability factor %v, want H_n = %v", n, got, want)
		}
		// At α = StabilityFactor the tree is free to enforce.
		r, err := SolveBroadcastLPApprox(st, want)
		if err != nil {
			t.Fatal(err)
		}
		if r.Cost > 1e-7 {
			t.Errorf("n=%d: cost %v at the stability factor, want 0", n, r.Cost)
		}
		// Just below it, a positive subsidy is required.
		r2, err := SolveBroadcastLPApprox(st, want*0.95)
		if err != nil {
			t.Fatal(err)
		}
		if r2.Cost <= 0 {
			t.Errorf("n=%d: zero cost below the stability factor", n)
		}
	}
}

func TestStabilityFactorOneOnEquilibrium(t *testing.T) {
	rng := rand.New(rand.NewSource(802))
	for trial := 0; trial < 30; trial++ {
		st := randomBroadcastState(t, rng, 3+rng.Intn(5), 0.5)
		sf := StabilityFactor(st)
		if sf < 1 {
			t.Fatalf("trial %d: stability factor %v < 1", trial, sf)
		}
		if st.IsEquilibrium(nil) != (sf <= 1+1e-9) {
			t.Fatalf("trial %d: equilibrium %v vs stability factor %v", trial,
				st.IsEquilibrium(nil), sf)
		}
		// The factor is always enforceable for free; anything ≥ it too.
		r, err := SolveBroadcastLPApprox(st, sf+1e-6)
		if err != nil {
			t.Fatal(err)
		}
		if r.Cost > 1e-6 {
			t.Fatalf("trial %d: cost %v at stability factor", trial, r.Cost)
		}
	}
}

func TestApproxPanicsAndErrors(t *testing.T) {
	st := cycleInstance(t, 4)
	if _, err := SolveBroadcastLPApprox(st, 0.5); err == nil {
		t.Error("alpha < 1 accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("IsApproxEquilibrium with alpha < 1 should panic")
		}
	}()
	IsApproxEquilibrium(st, nil, 0.9)
}
