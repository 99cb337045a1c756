package lp

import "testing"

// Allocation regression pins. The sparse solver's steady state (pooled
// workspace, warmed arenas) spends exactly the Solution-export
// allocations per solve — 6 today; the Forrest–Tomlin path must not add
// any, since its whole point is absorbing pivots into reused factor
// storage.

func TestSolveAllocsForrestTomlin(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by race instrumentation")
	}
	defer func(v int) { ftMinRows = v }(ftMinRows)
	ftMinRows = 0
	m := buildSparseLP(200)
	for i := 0; i < 3; i++ { // warm the pool and the factor arenas
		if _, err := m.Solve(); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := m.Solve(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 8 {
		t.Errorf("FT-path solve allocates %.1f/op, want ≤ 8 (Solution export only)", allocs)
	}
}
