package sweep

import (
	"strings"
	"testing"
)

// TestSweepSNELPWarmMatchesCold pins the warm-start chain to the cold
// path: on a jittered nearby-instance family, a warm (chained) serial run
// must produce the same table as the cold run in every column except the
// pivot counts — the optimum is the optimum no matter which basis the
// solver started from.
func TestSweepSNELPWarmMatchesCold(t *testing.T) {
	base := Spec{Scenario: "sne-lp", Seed: 11, Count: 12, Size: 24,
		Params: map[string]float64{"jitter": 0.15}}
	warm := Spec{Scenario: "sne-lp", Seed: 11, Count: 12, Size: 24,
		Params: map[string]float64{"jitter": 0.15, "warm": 1}}
	cold, err := RunSerial(base)
	if err != nil {
		t.Fatal(err)
	}
	hot, err := RunSerial(warm)
	if err != nil {
		t.Fatal(err)
	}
	if len(cold.Rows) != len(hot.Rows) || len(cold.Rows) != base.Count {
		t.Fatalf("row counts: cold %d hot %d want %d", len(cold.Rows), len(hot.Rows), base.Count)
	}
	// Headers: n, edges, wgt(T), LP cost, frac, pivots — everything up to
	// the pivot column must agree exactly (same instances, same optimum).
	pivotCol := len(cold.Headers) - 1
	if cold.Headers[pivotCol] != "pivots" {
		t.Fatalf("pivot column moved: headers %v", cold.Headers)
	}
	for i := range cold.Rows {
		for c := 0; c < pivotCol; c++ {
			if cold.Rows[i][c] != hot.Rows[i][c] {
				t.Fatalf("row %d col %d (%s): cold %q vs warm %q",
					i, c, cold.Headers[c], cold.Rows[i][c], hot.Rows[i][c])
			}
		}
	}
}

// TestSweepSNELPWarmUnrelatedIsCold: on the default (non-jitter) family
// every instance is a different graph, so the warm chain never finds the
// structure it last solved and each instance solves cold. The warm=1
// table must then equal the warm=0 table byte for byte, pivot column
// included: no basis crosses from one unrelated graph to the next.
func TestSweepSNELPWarmUnrelatedIsCold(t *testing.T) {
	spec := func(warm float64) Spec {
		return Spec{Scenario: "sne-lp", Seed: 1, Count: 300, Size: 48,
			Params: map[string]float64{"spread": 1, "warm": warm}}
	}
	render := func(s Spec) string {
		tb, err := RunSerial(s)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		tb.Render(&sb)
		return sb.String()
	}
	cold, warm := strings.Split(render(spec(0)), "\n"), strings.Split(render(spec(1)), "\n")
	for i := range cold {
		if i >= len(warm) || cold[i] != warm[i] {
			t.Fatalf("warm=1 table differs from warm=0 at line %d:\n%q\nvs\n%q", i, warm[min(i, len(warm)-1)], cold[i])
		}
	}
	if len(warm) != len(cold) {
		t.Fatalf("warm=1 table has %d lines, warm=0 %d", len(warm), len(cold))
	}
}

// TestSweepSNELPWarmShardedStillMerges: a warm sharded run must still
// satisfy the merge completeness contract and agree with the cold serial
// oracle on all non-pivot columns — warm starts may not leak across the
// determinism boundary into the instance family itself.
func TestSweepSNELPWarmShardedStillMerges(t *testing.T) {
	spec := Spec{Scenario: "sne-lp", Seed: 7, Count: 10, Size: 20,
		Params: map[string]float64{"jitter": 0.2, "warm": 1}}
	coldSpec := spec
	coldSpec.Params = map[string]float64{"jitter": 0.2}
	cold, err := RunSerial(coldSpec)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	got, err := Run(spec, dir, 3, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != len(cold.Rows) {
		t.Fatalf("merged %d rows, cold %d", len(got.Rows), len(cold.Rows))
	}
	pivotCol := len(cold.Headers) - 1
	for i := range cold.Rows {
		for c := 0; c < pivotCol; c++ {
			if cold.Rows[i][c] != got.Rows[i][c] {
				t.Fatalf("row %d col %d: cold %q vs warm-sharded %q", i, c, cold.Rows[i][c], got.Rows[i][c])
			}
		}
	}
}

// TestSweepSNELPJitterDeterministic: the jitter family must stay a pure
// function of (spec, idx) — two serial runs render identical tables.
func TestSweepSNELPJitterDeterministic(t *testing.T) {
	spec := Spec{Scenario: "sne-lp", Seed: 5, Count: 6, Size: 18,
		Params: map[string]float64{"jitter": 0.3}}
	a, err := RunSerial(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSerial(spec)
	if err != nil {
		t.Fatal(err)
	}
	var sa, sb strings.Builder
	a.Render(&sa)
	b.Render(&sb)
	if sa.String() != sb.String() {
		t.Fatalf("jitter family not deterministic:\n%s\nvs\n%s", sa.String(), sb.String())
	}
}
