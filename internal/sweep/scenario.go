package sweep

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"netdesign/internal/table"
)

// Scenario is a registered instance family: per-index generation plus the
// table shape its records merge into. Run must be deterministic given
// (spec, idx) — rng is already seeded with InstanceSeed(spec.Seed, idx)
// and must be the run's only randomness source — and must not retain rng
// or the record's slices across calls. TableID carries the
// internal/experiments registry ID of the table the scenario emits, so
// merged sweep output drops into the same registry-order report.
type Scenario struct {
	Name    string
	TableID string
	Title   string
	Claim   string
	Headers []string

	// Run computes instance idx. A record with no Cells contributes no
	// row (its Notes still surface), so every index yields exactly one
	// record and shard merges can verify completeness.
	Run func(spec Spec, idx int, rng *rand.Rand) (Record, error)

	// RunChained (optional) is Run plus an opaque carry value threaded
	// through the consecutive instances one worker executes — the hook
	// warm starts (an LP chain's basis) ride on. carry is
	// nil for a worker's first instance; the returned carry reaches the
	// next instance on the same worker and is dropped at chunk
	// boundaries. The carry must be an accelerator only: any output field
	// the differential harness pins byte-for-byte has to stay a pure
	// function of (spec, idx), so scenarios whose chained path perturbs
	// such fields (pivot counts, say) must gate it behind an opt-in
	// param that the goldens and resume differentials leave off.
	RunChained func(spec Spec, idx int, rng *rand.Rand, carry any) (Record, any, error)

	// Finalize (optional) appends aggregate notes derived from the full
	// record set — it runs after every per-record note and must be a pure
	// function of (spec, recs).
	Finalize func(spec Spec, recs []Record, tb *table.Table)
}

// runInstance dispatches one instance through RunChained when the
// scenario supports carry threading, or Run otherwise (carry passes
// through untouched so a mixed registry composes).
func (sc *Scenario) runInstance(spec Spec, idx int, rng *rand.Rand, carry any) (Record, any, error) {
	if sc.RunChained != nil {
		return sc.RunChained(spec, idx, rng, carry)
	}
	rec, err := sc.Run(spec, idx, rng)
	return rec, carry, err
}

var (
	scenarioMu  sync.RWMutex
	scenarioReg = map[string]*Scenario{}
)

// Register adds a scenario to the registry. It panics on duplicate or
// invalid names — registration is an init-time act.
func Register(sc *Scenario) {
	if sc.Name == "" || sc.Run == nil || len(sc.Headers) == 0 {
		panic(fmt.Sprintf("sweep: scenario %q incompletely defined", sc.Name))
	}
	scenarioMu.Lock()
	defer scenarioMu.Unlock()
	if _, dup := scenarioReg[sc.Name]; dup {
		panic(fmt.Sprintf("sweep: scenario %q registered twice", sc.Name))
	}
	scenarioReg[sc.Name] = sc
}

// GetScenario resolves a registered scenario by name.
func GetScenario(name string) (*Scenario, bool) {
	scenarioMu.RLock()
	defer scenarioMu.RUnlock()
	sc, ok := scenarioReg[name]
	return sc, ok
}

// ScenarioNames lists registered scenarios in sorted order.
func ScenarioNames() []string {
	scenarioMu.RLock()
	defer scenarioMu.RUnlock()
	names := make([]string, 0, len(scenarioReg))
	for name := range scenarioReg {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// BuildTable assembles the scenario's table from a complete record set:
// exactly one record per index in [0, spec.Count). Rows and per-record
// notes land in index order, then Finalize appends aggregates — the same
// construction whether records came from an in-process serial run or
// were merged back from shard checkpoints, which is what makes the two
// byte-identical.
func BuildTable(spec Spec, recs []Record) (*table.Table, error) {
	sc, ok := GetScenario(spec.Scenario)
	if !ok {
		return nil, fmt.Errorf("sweep: unknown scenario %q", spec.Scenario)
	}
	if len(recs) != spec.Count {
		return nil, fmt.Errorf("sweep: %d records for count %d", len(recs), spec.Count)
	}
	sorted := append([]Record(nil), recs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Index < sorted[j].Index })
	for i, rec := range sorted {
		if rec.Index != i {
			return nil, fmt.Errorf("sweep: record set not a permutation of [0,%d): saw index %d at position %d", spec.Count, rec.Index, i)
		}
	}
	tb := &table.Table{
		ID:      sc.TableID,
		Title:   sc.Title,
		Claim:   sc.Claim,
		Headers: sc.Headers,
	}
	for _, rec := range sorted {
		if len(rec.Cells) > 0 {
			if len(rec.Cells) != len(sc.Headers) {
				return nil, fmt.Errorf("sweep: record %d has %d cells for %d headers", rec.Index, len(rec.Cells), len(sc.Headers))
			}
			tb.Rows = append(tb.Rows, rec.Cells)
		}
		tb.Notes = append(tb.Notes, rec.Notes...)
	}
	if sc.Finalize != nil {
		sc.Finalize(spec, sorted, tb)
	}
	return tb, nil
}
