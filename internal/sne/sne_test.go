package sne

import (
	"math"
	"math/rand"
	"testing"

	"netdesign/internal/broadcast"
	"netdesign/internal/game"
	"netdesign/internal/graph"
	"netdesign/internal/numeric"
)

// cycleInstance builds the Theorem-11 instance: unit cycle on n+1 nodes
// rooted at 0 with target tree = the full path (missing edge (n,0)).
func cycleInstance(t testing.TB, n int) *broadcast.State {
	t.Helper()
	g := graph.Cycle(n, 1)
	bg, err := broadcast.NewGame(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	tree := make([]int, n)
	for i := range tree {
		tree[i] = i
	}
	st, err := broadcast.NewState(bg, tree)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestFullSubsidyEnforces(t *testing.T) {
	st := cycleInstance(t, 8)
	r := FullSubsidy(st)
	if err := VerifyBroadcast(st, r.Subsidy); err != nil {
		t.Fatal(err)
	}
	if r.Cost != 8 {
		t.Errorf("full subsidy cost = %v", r.Cost)
	}
}

func TestBroadcastLPOnEquilibrium(t *testing.T) {
	// A tree that is already an equilibrium needs zero subsidies.
	g := graph.Cycle(2, 1)
	bg, _ := broadcast.NewGame(g, 0)
	st, err := broadcast.NewState(bg, []int{0, 2}) // star at root
	if err != nil {
		t.Fatal(err)
	}
	r, err := SolveBroadcastLP(st)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cost > 1e-9 {
		t.Errorf("equilibrium tree should need 0 subsidies, got %v", r.Cost)
	}
}

func TestBroadcastLPCycleBounds(t *testing.T) {
	// Theorem 11's analysis: enforcing the path needs at least
	// (n+1)/e − 2 and (by Theorem 6) at most wgt(T)/e = n/e.
	for _, n := range []int{4, 8, 16, 32, 64} {
		st := cycleInstance(t, n)
		r, err := SolveBroadcastLP(st)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if err := VerifyBroadcast(st, r.Subsidy); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		lo := float64(n+1)/math.E - 2
		hi := float64(n) / math.E
		if r.Cost < lo-1e-6 || r.Cost > hi+1e-6 {
			t.Errorf("n=%d: LP cost %v outside [%v, %v]", n, r.Cost, lo, hi)
		}
	}
}

func TestBroadcastLPCycleFractionConvergesToInvE(t *testing.T) {
	st := cycleInstance(t, 200)
	r, err := SolveBroadcastLP(st)
	if err != nil {
		t.Fatal(err)
	}
	frac := r.Cost / st.Weight()
	if math.Abs(frac-numeric.InvE) > 0.01 {
		t.Errorf("subsidy fraction %v, want ≈ 1/e = %v", frac, numeric.InvE)
	}
}

// randomBroadcastState builds a random broadcast game and picks a random
// spanning tree as the enforcement target.
func randomBroadcastState(t testing.TB, rng *rand.Rand, n int, p float64) *broadcast.State {
	t.Helper()
	g := graph.RandomConnected(rng, n, p, 0.2, 3)
	bg, err := broadcast.NewGame(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	var trees [][]int
	if _, err := graph.EnumerateSpanningTrees(g, 2000, func(tr []int) bool {
		trees = append(trees, tr)
		return true
	}); err != nil {
		// Too many trees: just use the MST.
		mst, merr := graph.MST(g)
		if merr != nil {
			t.Fatal(merr)
		}
		trees = [][]int{mst}
	}
	st, err := broadcast.NewState(bg, trees[rng.Intn(len(trees))])
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestThreeFormulationsAgree is the Theorem-1 cross-check: LP (3), LP (2)
// and row generation are three independent formulations of the same
// optimization problem and must return the same optimal cost.
func TestThreeFormulationsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(300))
	for trial := 0; trial < 25; trial++ {
		st := randomBroadcastState(t, rng, 3+rng.Intn(4), 0.5)
		r3, err := SolveBroadcastLP(st)
		if err != nil {
			t.Fatalf("trial %d LP(3): %v", trial, err)
		}
		_, gst, err := st.ToGeneral(50)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := SolveGeneralLP(gst)
		if err != nil {
			t.Fatalf("trial %d LP(2): %v", trial, err)
		}
		r1, err := SolveRowGeneration(gst, 0)
		if err != nil {
			t.Fatalf("trial %d rowgen: %v", trial, err)
		}
		if !numeric.AlmostEqualTol(r3.Cost, r2.Cost, 1e-6) {
			t.Errorf("trial %d: LP(3) %v vs LP(2) %v", trial, r3.Cost, r2.Cost)
		}
		if !numeric.AlmostEqualTol(r3.Cost, r1.Cost, 1e-6) {
			t.Errorf("trial %d: LP(3) %v vs rowgen %v", trial, r3.Cost, r1.Cost)
		}
	}
}

func TestRowGenerationMulticommodity(t *testing.T) {
	// A genuinely multi-commodity instance (not broadcast): two players
	// with different sources and sinks sharing a middle edge.
	g := graph.New(4)
	g.AddEdge(0, 1, 4) // trunk
	g.AddEdge(1, 2, 4)
	g.AddEdge(0, 3, 1)
	g.AddEdge(3, 2, 1)
	gm, err := game.New(g, []game.Terminal{{S: 0, T: 2}, {S: 1, T: 2}})
	if err != nil {
		t.Fatal(err)
	}
	// Target: player 0 via trunk 0-1-2, player 1 via 1-2.
	st, err := game.NewState(gm, [][]int{{0, 1}, {1}})
	if err != nil {
		t.Fatal(err)
	}
	r, err := SolveRowGeneration(st, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyGeneral(st, r.Subsidy); err != nil {
		t.Fatal(err)
	}
	// Player 0 pays 4 + 2 = 6 unsubsidized but could go 0-3-2 for 2: the
	// state is not an equilibrium for free, so subsidies are positive.
	if r.Cost <= 0 {
		t.Errorf("expected positive subsidies, got %v", r.Cost)
	}
	r2, err := SolveGeneralLP(st)
	if err != nil {
		t.Fatal(err)
	}
	if !numeric.AlmostEqualTol(r.Cost, r2.Cost, 1e-6) {
		t.Errorf("rowgen %v vs LP(2) %v", r.Cost, r2.Cost)
	}
}

// bruteForceAON exhaustively scans all 2^k subsidized subsets of tree
// edges with the independent Lemma-2 checker. The oracle for SolveAON.
func bruteForceAON(t *testing.T, st *broadcast.State) float64 {
	t.Helper()
	g := st.BG.G
	edges := st.Tree.EdgeIDs
	if len(edges) > 16 {
		t.Fatalf("brute force AON on %d edges too large", len(edges))
	}
	best := math.Inf(1)
	for mask := 0; mask < 1<<len(edges); mask++ {
		b := game.ZeroSubsidy(g)
		cost := 0.0
		for i, id := range edges {
			if mask&(1<<i) != 0 {
				b[id] = g.Weight(id)
				cost += b[id]
			}
		}
		if cost >= best {
			continue
		}
		if st.IsEquilibrium(b) {
			best = cost
		}
	}
	return best
}

func TestAONAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(500))
	for trial := 0; trial < 20; trial++ {
		st := randomBroadcastState(t, rng, 3+rng.Intn(5), 0.5)
		want := bruteForceAON(t, st)
		r, err := SolveAON(st, AONOptions{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !numeric.AlmostEqualTol(r.Cost, want, 1e-7) {
			t.Fatalf("trial %d: AON %v vs brute force %v", trial, r.Cost, want)
		}
		if !r.Subsidy.IsAllOrNothing(st.BG.G) {
			t.Fatalf("trial %d: result is not all-or-nothing", trial)
		}
	}
}

func TestAONCycle(t *testing.T) {
	// On the Theorem-11 cycle the AON optimum must be at least the
	// fractional optimum and at most full subsidy.
	st := cycleInstance(t, 10)
	frac, err := SolveBroadcastLP(st)
	if err != nil {
		t.Fatal(err)
	}
	aon, err := SolveAON(st, AONOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if aon.Cost < frac.Cost-1e-9 {
		t.Errorf("AON %v below fractional optimum %v", aon.Cost, frac.Cost)
	}
	if aon.Cost > st.Weight() {
		t.Errorf("AON %v exceeds full subsidy", aon.Cost)
	}
}

func TestGreedyAON(t *testing.T) {
	rng := rand.New(rand.NewSource(600))
	for trial := 0; trial < 25; trial++ {
		st := randomBroadcastState(t, rng, 3+rng.Intn(5), 0.5)
		gr, err := GreedyAON(st)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := VerifyBroadcast(st, gr.Subsidy); err != nil {
			t.Fatalf("trial %d greedy invalid: %v", trial, err)
		}
		if !gr.Subsidy.IsAllOrNothing(st.BG.G) {
			t.Fatalf("trial %d: greedy not all-or-nothing", trial)
		}
		opt, err := SolveAON(st, AONOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if gr.Cost < opt.Cost-1e-9 {
			t.Fatalf("trial %d: greedy %v beats exact optimum %v", trial, gr.Cost, opt.Cost)
		}
	}
}

func TestAONAtLeastFractional(t *testing.T) {
	rng := rand.New(rand.NewSource(700))
	for trial := 0; trial < 15; trial++ {
		st := randomBroadcastState(t, rng, 3+rng.Intn(4), 0.6)
		frac, err := SolveBroadcastLP(st)
		if err != nil {
			t.Fatal(err)
		}
		aon, err := SolveAON(st, AONOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if aon.Cost < frac.Cost-1e-7 {
			t.Fatalf("trial %d: integral %v < fractional %v", trial, aon.Cost, frac.Cost)
		}
	}
}

func TestAONNodeBudget(t *testing.T) {
	st := cycleInstance(t, 14)
	if _, err := SolveAON(st, AONOptions{MaxNodes: 1}); err != ErrAONBudget {
		t.Errorf("err = %v, want ErrAONBudget", err)
	}
}

func TestVerifyRejectsBadSubsidy(t *testing.T) {
	st := cycleInstance(t, 5)
	b := game.ZeroSubsidy(st.BG.G)
	if err := VerifyBroadcast(st, b); err == nil {
		t.Error("unsubsidized non-equilibrium passed verification")
	}
	b[0] = 99
	if err := VerifyBroadcast(st, b); err == nil {
		t.Error("out-of-range subsidy passed verification")
	}
}

func BenchmarkBroadcastLP32(b *testing.B) {
	st := cycleInstance(b, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveBroadcastLP(st); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAONCycle16(b *testing.B) {
	st := cycleInstance(b, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveAON(st, AONOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestAONOrderingAblationSameOptimum(t *testing.T) {
	// Both edge orderings must reach the same optimal cost — the
	// ordering is a performance knob, never a correctness one.
	rng := rand.New(rand.NewSource(904))
	for trial := 0; trial < 12; trial++ {
		st := randomBroadcastState(t, rng, 4+rng.Intn(5), 0.5)
		heavy, err := SolveAON(st, AONOptions{})
		if err != nil {
			t.Fatal(err)
		}
		light, err := SolveAON(st, AONOptions{LightestFirst: true})
		if err != nil {
			t.Fatal(err)
		}
		if !numeric.AlmostEqualTol(heavy.Cost, light.Cost, 1e-7) {
			t.Fatalf("trial %d: orderings disagree: %v vs %v", trial, heavy.Cost, light.Cost)
		}
	}
}

func TestBindingDeviations(t *testing.T) {
	// On the Theorem-11 cycle the binding threat is the far player's
	// bypass via the closing edge.
	st := cycleInstance(t, 10)
	binding, res, err := BindingDeviations(st)
	if err != nil {
		t.Fatal(err)
	}
	if len(binding) == 0 {
		t.Fatal("expected binding deviations on the cycle")
	}
	closing := 10 // the (n,0) edge of graph.Cycle(10, 1)
	top := binding[0]
	if top.ViaEdge != closing {
		t.Errorf("top threat via edge %d, want the closing edge %d", top.ViaEdge, closing)
	}
	if top.ShadowPrice <= 0 {
		t.Errorf("shadow price %v", top.ShadowPrice)
	}
	// The returned enforcement must match the plain LP solve.
	plain, err := SolveBroadcastLP(st)
	if err != nil {
		t.Fatal(err)
	}
	if !numeric.AlmostEqualTol(res.Cost, plain.Cost, 1e-7) {
		t.Errorf("costs differ: %v vs %v", res.Cost, plain.Cost)
	}
	// An already-stable tree has no binding rows.
	g2 := graph.Cycle(2, 1)
	bg2, _ := broadcast.NewGame(g2, 0)
	star, err := broadcast.NewState(bg2, []int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	b2, r2, err := BindingDeviations(star)
	if err != nil {
		t.Fatal(err)
	}
	if len(b2) != 0 || r2.Cost > 1e-9 {
		t.Errorf("stable tree reported binding rows %v cost %v", b2, r2.Cost)
	}
}

func TestBindingDeviationsAreTight(t *testing.T) {
	// Complementary slackness: every row with a positive shadow price
	// must be exactly tight at the optimum — the deviating player is
	// indifferent between her tree path and the threat.
	rng := rand.New(rand.NewSource(905))
	for trial := 0; trial < 10; trial++ {
		st := randomBroadcastState(t, rng, 4+rng.Intn(5), 0.5)
		binding, res, err := BindingDeviations(st)
		if err != nil {
			t.Fatal(err)
		}
		bl := buildBroadcastLPInto(st, nil, 1)
		for _, bd := range binding {
			for i := 0; i < bl.model.NumConstraints(); i++ {
				if bl.rowU[i] != bd.Node || bl.rowEdge[i] != bd.ViaEdge || bl.rowV[i] != bd.EntryNode {
					continue
				}
				cols, vals, _, rhs := bl.model.Row(i)
				lhs := 0.0
				for k, j := range cols {
					lhs += vals[k] * res.Subsidy.At(bl.edgeOf[j])
				}
				if !numeric.AlmostEqualTol(lhs, rhs, 1e-6) {
					t.Fatalf("trial %d: binding row (%d via %d) has slack: %v vs %v",
						trial, bd.Node, bd.ViaEdge, lhs, rhs)
				}
			}
		}
	}
}
