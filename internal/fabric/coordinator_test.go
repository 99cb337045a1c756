package fabric

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"netdesign/internal/sweep"
)

func testSpec() sweep.Spec {
	return sweep.Spec{Scenario: "enforce", Seed: 17, Count: 6, Size: 5, Params: map[string]float64{"spread": 3}}
}

// testCoordinator builds a coordinator over a temp DirBackend with a
// hand-advanced clock. Tests drive time explicitly; nothing ticks on its
// own.
func testCoordinator(t *testing.T, cfg Config) (*Coordinator, *time.Time, Store) {
	t.Helper()
	now := time.Unix(1_000_000, 0)
	store := sweep.NewDirBackend(t.TempDir())
	if cfg.Spec.Scenario == "" {
		cfg.Spec = testSpec()
	}
	if cfg.Shards == 0 {
		cfg.Shards = 2
	}
	cfg.Store = store
	cfg.Clock = func() time.Time { return now }
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c, &now, store
}

// mustGrant acquires and fails the test unless a grant comes back.
func mustGrant(t *testing.T, c *Coordinator, worker string) *Grant {
	t.Helper()
	res, err := c.Acquire(worker)
	if err != nil {
		t.Fatalf("acquire %s: %v", worker, err)
	}
	if res.Grant == nil {
		t.Fatalf("acquire %s: no grant (done=%v wait=%d)", worker, res.Done, res.WaitMS)
	}
	return res.Grant
}

// runGrant computes the granted shard straight into the coordinator's
// store (bypassing HTTP — storage semantics are covered by the contract
// suite).
func runGrant(t *testing.T, c *Coordinator, store Store, g *Grant) {
	t.Helper()
	if _, err := sweep.RunShardFileOn(store, c.spec, g.File, g.Shard, g.Shards, sweep.Options{Workers: 1}); err != nil {
		t.Fatalf("running shard %d into %s: %v", g.Shard, g.File, err)
	}
}

func TestLeaseExpiryReassignsShard(t *testing.T) {
	c, now, _ := testCoordinator(t, Config{LeaseTTL: 10 * time.Second})
	g1 := mustGrant(t, c, "w1")
	g2 := mustGrant(t, c, "w2")
	if g1.Shard == g2.Shard {
		t.Fatalf("both grants on shard %d", g1.Shard)
	}
	// Everything leased, nothing straggling: third worker is told to wait.
	res, err := c.Acquire("w3")
	if err != nil || res.Grant != nil || res.Done {
		t.Fatalf("third acquire: res=%+v err=%v, want wait hint", res, err)
	}
	if res.WaitMS <= 0 {
		t.Fatal("wait hint missing")
	}
	// Heartbeats inside the TTL keep a lease alive indefinitely.
	*now = now.Add(9 * time.Second)
	if err := c.Heartbeat(g1.Lease); err != nil {
		t.Fatalf("heartbeat within TTL: %v", err)
	}
	*now = now.Add(9 * time.Second)
	if err := c.Heartbeat(g1.Lease); err != nil {
		t.Fatalf("heartbeat after extension: %v", err)
	}
	// g2 never heartbeat: 18s elapsed > 10s TTL, so it is gone and its
	// shard is pending again.
	if err := c.Heartbeat(g2.Lease); !errors.Is(err, ErrLeaseGone) {
		t.Fatalf("heartbeat on expired lease: %v, want ErrLeaseGone", err)
	}
	g3 := mustGrant(t, c, "w3")
	if g3.Shard != g2.Shard {
		t.Fatalf("reassigned shard %d, want %d", g3.Shard, g2.Shard)
	}
	// The zombie's checkpoint writes are fenced even though it is alive.
	if err := c.fenceCheck(g2.Lease, g2.File); !errors.Is(err, ErrLeaseGone) {
		t.Fatalf("zombie write admitted: %v", err)
	}
	if err := c.fenceCheck(g3.Lease, g3.File); err != nil {
		t.Fatalf("successor write fenced: %v", err)
	}
}

func TestCompleteRejectsIncompleteShard(t *testing.T) {
	c, _, store := testCoordinator(t, Config{})
	g := mustGrant(t, c, "w1")
	// One record of the shard, not all of them.
	if _, err := sweep.RunShardFileOn(store, c.spec, g.File, g.Shard, g.Shards, sweep.Options{Workers: 1, StopAfter: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Complete(g.Lease); err == nil {
		t.Fatal("incomplete shard completed")
	}
	// The lease is fenced but the shard stays recoverable.
	g2 := mustGrant(t, c, "w2")
	if g2.Shard != g.Shard {
		t.Fatalf("shard %d granted, want recovered %d", g2.Shard, g.Shard)
	}
}

func TestSweepCompletesAndMergesIdentical(t *testing.T) {
	c, now, store := testCoordinator(t, Config{})
	for i := 0; i < 2; i++ {
		g := mustGrant(t, c, "w")
		runGrant(t, c, store, g)
		*now = now.Add(time.Second)
		res, err := c.Complete(g.Lease)
		if err != nil || !res.Winner {
			t.Fatalf("complete shard %d: res=%+v err=%v", g.Shard, res, err)
		}
	}
	res, err := c.Acquire("w")
	if err != nil || !res.Done {
		t.Fatalf("acquire after completion: res=%+v err=%v, want done", res, err)
	}
	select {
	case <-c.Done():
	default:
		t.Fatal("Done channel not closed")
	}
	got, err := c.Merge()
	if err != nil {
		t.Fatal(err)
	}
	want, err := sweep.RunSerial(c.spec)
	if err != nil {
		t.Fatal(err)
	}
	var gotText, wantText bytes.Buffer
	got.Render(&gotText)
	want.Render(&wantText)
	if gotText.String() != wantText.String() {
		t.Fatalf("fabric merge differs from serial oracle:\n%s\nvs\n%s", gotText.String(), wantText.String())
	}
}

// completeOneShard drives one shard to completion, advancing the clock
// by took so the coordinator has a completion-time baseline.
func completeOneShard(t *testing.T, c *Coordinator, store Store, now *time.Time, took time.Duration) *Grant {
	t.Helper()
	g := mustGrant(t, c, "fast")
	runGrant(t, c, store, g)
	*now = now.Add(took)
	if res, err := c.Complete(g.Lease); err != nil || !res.Winner {
		t.Fatalf("complete: res=%+v err=%v", res, err)
	}
	return g
}

func TestStragglerSpeculationWinnerPromoted(t *testing.T) {
	c, now, store := testCoordinator(t, Config{
		LeaseTTL:        time.Hour, // the straggler is alive, just slow
		StragglerMin:    2 * time.Second,
		StragglerFactor: 3,
	})
	gSlow := mustGrant(t, c, "slow")
	completeOneShard(t, c, store, now, time.Second) // median = 1s → threshold = 3s
	// Not past the threshold yet: no speculation.
	*now = now.Add(1500 * time.Millisecond) // gSlow age: 2.5s
	if res, _ := c.Acquire("spec"); res.Grant != nil {
		t.Fatalf("speculative grant before threshold: %+v", res.Grant)
	}
	*now = now.Add(time.Second) // gSlow age: 3.5s
	gSpec := mustGrant(t, c, "spec")
	if !gSpec.Speculative || gSpec.Shard != gSlow.Shard {
		t.Fatalf("grant %+v, want speculative copy of shard %d", gSpec, gSlow.Shard)
	}
	if gSpec.File == gSlow.File || !strings.HasPrefix(gSpec.File, "attempt-") {
		t.Fatalf("speculative file %q collides with primary %q", gSpec.File, gSlow.File)
	}
	// MaxAttempts caps the copies: no third attempt.
	if res, _ := c.Acquire("spec2"); res.Grant != nil {
		t.Fatalf("third attempt granted: %+v", res.Grant)
	}
	// The speculative copy finishes first and wins; its staging file is
	// promoted to the canonical checkpoint.
	runGrant(t, c, store, gSpec)
	res, err := c.Complete(gSpec.Lease)
	if err != nil || !res.Winner {
		t.Fatalf("speculative complete: res=%+v err=%v", res, err)
	}
	recs, _, err := store.ReadShard(sweep.ShardName(gSlow.Shard, 2))
	if err != nil || len(recs) == 0 {
		t.Fatalf("canonical checkpoint after promotion: %d recs, %v", len(recs), err)
	}
	// The fenced primary learns it lost on its next call.
	if err := c.Heartbeat(gSlow.Lease); !errors.Is(err, ErrLeaseGone) {
		t.Fatalf("loser heartbeat: %v, want ErrLeaseGone", err)
	}
	if _, err := c.Merge(); err != nil {
		t.Fatalf("merge after speculative win: %v", err)
	}
}

func TestDuplicateLoserVerifiedAndDiscarded(t *testing.T) {
	c, now, store := testCoordinator(t, Config{
		LeaseTTL:        time.Hour,
		StragglerMin:    2 * time.Second,
		StragglerFactor: 3,
	})
	gSlow := mustGrant(t, c, "slow")
	completeOneShard(t, c, store, now, time.Second)
	*now = now.Add(4 * time.Second)
	gSpec := mustGrant(t, c, "spec")
	// This time the primary finishes first.
	runGrant(t, c, store, gSlow)
	if res, err := c.Complete(gSlow.Lease); err != nil || !res.Winner {
		t.Fatalf("primary complete: res=%+v err=%v", res, err)
	}
	// The speculative copy finishes too — identical content, so it is
	// verified and discarded without poisoning the run.
	runGrant(t, c, store, gSpec)
	res, err := c.Complete(gSpec.Lease)
	if err != nil {
		t.Fatalf("identical loser rejected: %v", err)
	}
	if res.Winner {
		t.Fatal("loser reported as winner")
	}
	// Its staging file is gone.
	if recs, _, err := store.ReadShard(gSpec.File); err != nil || len(recs) != 0 {
		t.Fatalf("staging file survives: %d recs, %v", len(recs), err)
	}
	if c.Err() != nil {
		t.Fatalf("run poisoned by identical duplicate: %v", c.Err())
	}
}

func TestDivergentDuplicatePoisonsRun(t *testing.T) {
	c, now, store := testCoordinator(t, Config{
		LeaseTTL:        time.Hour,
		StragglerMin:    2 * time.Second,
		StragglerFactor: 3,
	})
	gSlow := mustGrant(t, c, "slow")
	completeOneShard(t, c, store, now, time.Second)
	*now = now.Add(4 * time.Second)
	gSpec := mustGrant(t, c, "spec")
	runGrant(t, c, store, gSlow)
	if res, err := c.Complete(gSlow.Lease); err != nil || !res.Winner {
		t.Fatalf("primary complete: res=%+v err=%v", res, err)
	}
	// Forge a diverged speculative copy: same index set, one value off —
	// the shape of a real nondeterminism bug.
	recs, _, err := store.ReadShard(sweep.ShardName(gSlow.Shard, 2))
	if err != nil {
		t.Fatal(err)
	}
	w, err := store.OpenShard(gSpec.File, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range recs {
		if i == 1 && len(rec.Vals) > 0 {
			rec.Vals = append([]float64(nil), rec.Vals...)
			rec.Vals[0] += 1
		}
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Complete(gSpec.Lease); err == nil {
		t.Fatal("diverged duplicate accepted")
	}
	if !errors.Is(c.Err(), ErrPoisoned) {
		t.Fatalf("run not poisoned: %v", c.Err())
	}
	// A poisoned coordinator hands out no more work and refuses to merge.
	if _, err := c.Acquire("w"); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("acquire on poisoned run: %v", err)
	}
	if _, err := c.Merge(); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("merge on poisoned run: %v", err)
	}
}

func TestBootScanResumesStore(t *testing.T) {
	dir := t.TempDir()
	store := sweep.NewDirBackend(dir)
	spec := testSpec()
	// Shard 0 complete, shard 1 half-done — as left by a crashed fleet.
	if _, err := sweep.RunShardOn(store, spec, 0, 2, sweep.Options{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := sweep.RunShardOn(store, spec, 1, 2, sweep.Options{Workers: 1, StopAfter: 1}); err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1_000_000, 0)
	c, err := New(Config{Spec: spec, Shards: 2, Store: store, Clock: func() time.Time { return now }})
	if err != nil {
		t.Fatal(err)
	}
	st := c.Status()
	if st.Completed != 1 || st.Pending != 1 {
		t.Fatalf("boot status %+v, want 1 completed 1 pending", st)
	}
	// Only the partial shard is handed out, and it resumes rather than
	// recomputes: completing it finishes the sweep.
	g := mustGrant(t, c, "w")
	if g.Shard != 1 {
		t.Fatalf("granted shard %d, want 1", g.Shard)
	}
	runGrant(t, c, store, g)
	if res, err := c.Complete(g.Lease); err != nil || !res.Winner {
		t.Fatalf("complete: res=%+v err=%v", res, err)
	}
	got, err := c.Merge()
	if err != nil {
		t.Fatal(err)
	}
	want, err := sweep.RunSerial(spec)
	if err != nil {
		t.Fatal(err)
	}
	var gotText, wantText bytes.Buffer
	got.Render(&gotText)
	want.Render(&wantText)
	if gotText.String() != wantText.String() {
		t.Fatal("resumed merge differs from serial oracle")
	}
}

func TestCostModelEstimates(t *testing.T) {
	var m costModel
	m.init(8)
	if got := m.estimate(3); got != 1 {
		t.Fatalf("empty-model estimate %d, want 1", got)
	}
	m.observe(sweep.Record{Index: 2, WallNS: 100})
	m.observe(sweep.Record{Index: 5, WallNS: 900})
	cases := []struct {
		idx  int
		want int64
	}{
		{2, 100}, // own observation
		{0, 100}, // nearest is 2
		{3, 100}, // 2 at distance 1
		{4, 900}, // 5 at distance 1 beats 2 at 2? no — lo checked first at d=1: idx 3 unobserved, hi 5 observed
		{7, 900}, // nearest is 5
	}
	for _, tc := range cases {
		if got := m.estimate(tc.idx); got != tc.want {
			t.Fatalf("estimate(%d) = %d, want %d", tc.idx, got, tc.want)
		}
	}
}

func TestSchedulerPrefersHeaviestShard(t *testing.T) {
	c, _, _ := testCoordinator(t, Config{Shards: 2})
	// Mark shard 0's indices observed (cheap): its remaining cost is 0,
	// shard 1 keeps positive remaining cost and is granted first.
	c.costs.observe(sweep.Record{Index: 0, WallNS: 1})
	c.costs.observe(sweep.Record{Index: 2, WallNS: 1})
	c.costs.observe(sweep.Record{Index: 4, WallNS: 1})
	g := mustGrant(t, c, "w")
	if g.Shard != 1 {
		t.Fatalf("granted shard %d, want heavier shard 1", g.Shard)
	}
}
