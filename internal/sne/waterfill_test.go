package sne

import (
	"math"
	"math/rand"
	"testing"

	"netdesign/internal/broadcast"
	"netdesign/internal/graph"
	"netdesign/internal/numeric"
)

// TestWaterFillAllocsRegression pins the heuristic's allocation count on
// a many-iteration instance: with the A-side orderings hoisted out of the
// pour loop, allocations come from row construction and the result only,
// not from the per-visit sort the original performed.
func TestWaterFillAllocsRegression(t *testing.T) {
	// Scan deterministic random MST instances for one the heuristic
	// needs several pour iterations on (B-side pours reopening rows).
	rng := rand.New(rand.NewSource(1))
	var st *broadcast.State
	var res *Result
	for trial := 0; trial < 30 && st == nil; trial++ {
		n := 8 + rng.Intn(16)
		g := graph.RandomConnected(rng, n, 0.3, 0.5, 2)
		bg, err := broadcast.NewGame(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		mst, err := graph.MST(g)
		if err != nil {
			t.Fatal(err)
		}
		cand, err := broadcast.NewState(bg, mst)
		if err != nil {
			t.Fatal(err)
		}
		r, err := WaterFill(cand)
		if err != nil {
			t.Fatal(err)
		}
		if r.Iterations >= 5 {
			st, res = cand, r
		}
	}
	if st == nil {
		t.Fatal("no multi-iteration instance found; adjust the scan")
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := WaterFill(st); err != nil {
			t.Fatal(err)
		}
	})
	// Construction allocates O(rows); the pour loop must add nothing,
	// so the count cannot scale with iterations × A-side size.
	rows := buildBroadcastLPInto(st, nil, 1).model.NumConstraints()
	ceiling := float64(12*rows + 64)
	if allocs > ceiling {
		t.Fatalf("WaterFill allocated %.0f times per run (%d rows, %d iterations), want ≤ %.0f",
			allocs, rows, res.Iterations, ceiling)
	}

	// With a pooled workspace the per-call count must collapse to a small
	// constant — result, subsidy vector, per-visited-row sort overhead —
	// independent of the row count (E11's hot loop).
	ws := NewWaterFillWorkspace()
	if _, err := WaterFillWith(st, ws); err != nil { // warm the buffers
		t.Fatal(err)
	}
	pooled := testing.AllocsPerRun(10, func() {
		if _, err := WaterFillWith(st, ws); err != nil {
			t.Fatal(err)
		}
	})
	if pooled > 48 {
		t.Fatalf("pooled WaterFillWith allocated %.0f times per run (%d rows), want ≤ 48", pooled, rows)
	}
	if pooled > allocs {
		t.Fatalf("workspace made things worse: %.0f pooled vs %.0f fresh", pooled, allocs)
	}

	// The workspace must not change results: same state, same subsidy.
	fresh, err := WaterFill(st)
	if err != nil {
		t.Fatal(err)
	}
	reused, err := WaterFillWith(st, ws)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Cost != reused.Cost || fresh.Iterations != reused.Iterations {
		t.Fatalf("workspace drifted: fresh cost %v/%d iters vs pooled %v/%d",
			fresh.Cost, fresh.Iterations, reused.Cost, reused.Iterations)
	}
}

// TestWaterFillWorkspaceAcrossInstances reuses one workspace over many
// different states and checks each result against the fresh path — the
// reuse pattern E11 and sweeps run.
func TestWaterFillWorkspaceAcrossInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(907))
	ws := NewWaterFillWorkspace()
	for trial := 0; trial < 30; trial++ {
		st := randomBroadcastState(t, rng, 3+rng.Intn(8), 0.5)
		pooled, err := WaterFillWith(st, ws)
		if err != nil {
			t.Fatalf("trial %d: pooled: %v", trial, err)
		}
		fresh, err := WaterFill(st)
		if err != nil {
			t.Fatalf("trial %d: fresh: %v", trial, err)
		}
		if pooled.Cost != fresh.Cost || pooled.Iterations != fresh.Iterations {
			t.Fatalf("trial %d: pooled %v/%d vs fresh %v/%d",
				trial, pooled.Cost, pooled.Iterations, fresh.Cost, fresh.Iterations)
		}
		if err := VerifyBroadcast(st, pooled.Subsidy); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestWaterFillEnforcesAndBoundsLP(t *testing.T) {
	rng := rand.New(rand.NewSource(901))
	for trial := 0; trial < 40; trial++ {
		st := randomBroadcastState(t, rng, 3+rng.Intn(6), 0.5)
		wf, err := WaterFill(st)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := VerifyBroadcast(st, wf.Subsidy); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		lp, err := SolveBroadcastLP(st)
		if err != nil {
			t.Fatal(err)
		}
		if wf.Cost < lp.Cost-1e-7 {
			t.Fatalf("trial %d: water-fill %v beats the LP optimum %v", trial, wf.Cost, lp.Cost)
		}
	}
}

func TestWaterFillOptimalOnCycle(t *testing.T) {
	// On the Theorem-11 cycle the binding constraint is the far player's,
	// and least-crowded packing is exactly the optimal structure: the
	// heuristic should match the LP optimum.
	for _, n := range []int{8, 16, 32} {
		st := cycleInstance(t, n)
		wf, err := WaterFill(st)
		if err != nil {
			t.Fatal(err)
		}
		lp, err := SolveBroadcastLP(st)
		if err != nil {
			t.Fatal(err)
		}
		if !numeric.AlmostEqualTol(wf.Cost, lp.Cost, 1e-6) {
			t.Errorf("n=%d: water-fill %v vs LP %v", n, wf.Cost, lp.Cost)
		}
	}
}

func TestWaterFillZeroOnEquilibrium(t *testing.T) {
	g := graph.Cycle(2, 1)
	bg, err := broadcast.NewGame(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	st, err := broadcast.NewState(bg, []int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	wf, err := WaterFill(st)
	if err != nil {
		t.Fatal(err)
	}
	if wf.Cost != 0 {
		t.Errorf("equilibrium tree got %v subsidies", wf.Cost)
	}
}

func TestWaterFillNeverExceedsFullSubsidy(t *testing.T) {
	rng := rand.New(rand.NewSource(902))
	for trial := 0; trial < 20; trial++ {
		st := randomBroadcastState(t, rng, 4+rng.Intn(5), 0.6)
		wf, err := WaterFill(st)
		if err != nil {
			t.Fatal(err)
		}
		if wf.Cost > st.Weight()+1e-9 {
			t.Fatalf("trial %d: water-fill spent %v > wgt(T) %v", trial, wf.Cost, st.Weight())
		}
	}
}

func TestWaterFillGapIsBounded(t *testing.T) {
	// Measure the heuristic/optimal ratio across a family; it must stay
	// finite and is recorded by experiment E11. Here we only assert it
	// never exceeds the trivial wgt(T)/LP bound when LP > 0.
	rng := rand.New(rand.NewSource(903))
	worst := 1.0
	for trial := 0; trial < 25; trial++ {
		st := randomBroadcastState(t, rng, 4+rng.Intn(4), 0.5)
		lp, err := SolveBroadcastLP(st)
		if err != nil {
			t.Fatal(err)
		}
		if lp.Cost < 1e-9 {
			continue
		}
		wf, err := WaterFill(st)
		if err != nil {
			t.Fatal(err)
		}
		ratio := wf.Cost / lp.Cost
		if ratio > worst {
			worst = ratio
		}
		if math.IsInf(ratio, 1) || math.IsNaN(ratio) {
			t.Fatal("degenerate ratio")
		}
	}
	t.Logf("worst water-fill/LP ratio observed: %.4f", worst)
}
