package fabric

import (
	"bytes"
	"fmt"
	"sort"
	"sync"
	"time"

	"netdesign/internal/sweep"
	"netdesign/internal/table"
)

// Store is what the coordinator needs from its durable checkpoint
// storage: the sweep Backend contract plus attempt promotion. DirBackend
// satisfies it; the coordinator's store is always local — workers reach
// it through the HTTP surface, never directly.
type Store interface {
	sweep.Backend
	Promote(src, dst string) error
	Remove(name string) error
}

// Config shapes a Coordinator.
type Config struct {
	Spec   sweep.Spec
	Shards int
	Store  Store

	// LeaseTTL is how long a lease survives without a heartbeat.
	// Default 15s.
	LeaseTTL time.Duration

	// StragglerFactor: a lease held longer than this multiple of the
	// median shard-completion time is a straggler eligible for
	// speculative re-execution. Default 3.
	StragglerFactor float64

	// StragglerMin floors the straggler age — no speculation before a
	// lease is at least this old, so short sweeps don't double-compute.
	// Default 10s.
	StragglerMin time.Duration

	// MaxAttempts caps concurrently active attempts per shard (primary +
	// speculative copies). Default 2.
	MaxAttempts int

	// Clock substitutes the time source; nil means time.Now. The chaos
	// harness injects a hand-advanced clock here, which is what makes
	// lease expiry and straggler detection deterministically testable.
	Clock func() time.Time
}

func (c Config) withDefaults() Config {
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = DefaultLeaseTTL
	}
	if c.StragglerFactor <= 0 {
		c.StragglerFactor = DefaultStragglerFactor
	}
	if c.StragglerMin <= 0 {
		c.StragglerMin = DefaultStragglerMin
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = DefaultMaxAttempts
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}

// Lease lifecycle states.
const (
	leaseActive = iota
	leaseExpired
	leaseLost   // fenced because another attempt won the shard
	leaseWinner // completed first
	leaseSuperseded
)

type lease struct {
	id          int64
	shard       int
	file        string
	worker      string
	speculative bool
	granted     time.Time
	deadline    time.Time
	state       int
}

type shardState struct {
	done        bool
	attempts    []*lease // active attempts only
	attemptSeq  int      // attempts ever granted (names speculative files)
	records     int      // records known present in the canonical checkpoint
	completedIn time.Duration
}

// Coordinator owns one sweep manifest: the pinned spec, the shard plan,
// per-shard completion state, the lease table, and the server side of
// the checkpoint store. All state transitions happen under one lock and
// are driven purely by API calls and the injected clock — no background
// goroutines — which keeps the fault-injection harness deterministic.
type Coordinator struct {
	cfg  Config
	spec sweep.Spec

	mu        sync.Mutex
	shards    []shardState
	leases    map[int64]*lease
	nextLease int64
	attempts  int
	doneCount int
	poisoned  error
	doneCh    chan struct{}

	// ckpts is the server side of the checkpoint store: it owns the open
	// per-name writers and serves them over HTTP, consulting this
	// coordinator's lease table (fenceCheck) before every mutation.
	ckpts *storeServer

	costs costModel
}

// New builds a Coordinator over cfg.Store, pinning the spec and scanning
// existing canonical checkpoints so a restarted coordinator resumes
// where the store left off (completed shards stay completed, partial
// ones resume, recorded WallNS costs seed the scheduler).
func New(cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	if cfg.Store == nil {
		return nil, fmt.Errorf("fabric: Config.Store is required")
	}
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("fabric: shards %d < 1", cfg.Shards)
	}
	if err := cfg.Spec.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Store.PinSpec(cfg.Spec); err != nil {
		return nil, err
	}
	if err := cfg.Store.CheckLayout(cfg.Shards); err != nil {
		return nil, err
	}
	c := &Coordinator{
		cfg:    cfg,
		spec:   cfg.Spec,
		shards: make([]shardState, cfg.Shards),
		leases: map[int64]*lease{},
		doneCh: make(chan struct{}),
	}
	c.ckpts = newStoreServer(cfg.Store)
	c.ckpts.fence = c.fenceCheck
	c.ckpts.onAppend = c.observeAppend
	c.costs.init(cfg.Spec.Count)
	for shard := range c.shards {
		recs, _, err := cfg.Store.ReadShard(sweep.ShardName(shard, cfg.Shards))
		if err != nil {
			return nil, fmt.Errorf("fabric: scanning shard %d: %w", shard, err)
		}
		c.shards[shard].records = len(recs)
		for _, rec := range recs {
			c.costs.observe(rec)
		}
		if len(recs) == c.shardSize(shard) {
			c.shards[shard].done = true
			c.doneCount++
		}
	}
	if c.doneCount == len(c.shards) {
		close(c.doneCh)
	}
	return c, nil
}

// shardSize is the number of instances shard owns under the round-robin
// partition.
func (c *Coordinator) shardSize(shard int) int {
	n := c.spec.Count / c.cfg.Shards
	if shard < c.spec.Count%c.cfg.Shards {
		n++
	}
	return n
}

// Done returns a channel closed when every shard has completed.
func (c *Coordinator) Done() <-chan struct{} { return c.doneCh }

// Err reports the poisoned state, if any.
func (c *Coordinator) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.poisoned
}

// expireLocked fences every lease whose deadline has passed. An expired
// primary returns its shard to the pending pool (the canonical
// checkpoint keeps the records it durably holds; the next attempt
// resumes it). Expired speculative attempts just vanish — their staging
// files are superseded garbage.
func (c *Coordinator) expireLocked(now time.Time) {
	for _, l := range c.leases {
		if l.state == leaseActive && now.After(l.deadline) {
			c.fenceLocked(l, leaseExpired)
		}
	}
}

// fenceLocked removes l from its shard's active attempts and closes any
// server-side writer it held open, so no further byte reaches its
// checkpoint.
func (c *Coordinator) fenceLocked(l *lease, state int) {
	l.state = state
	st := &c.shards[l.shard]
	for i, a := range st.attempts {
		if a == l {
			st.attempts = append(st.attempts[:i], st.attempts[i+1:]...)
			break
		}
	}
	c.ckpts.closeOwned(l.file, l.id)
}

// Acquire hands out the next lease: a primary attempt at the heaviest
// pending shard, else a speculative attempt at the most overdue
// straggler, else a wait hint. worker is a diagnostic label.
func (c *Coordinator) Acquire(worker string) (*AcquireResult, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.poisoned != nil {
		return nil, c.poisoned
	}
	now := c.cfg.Clock()
	c.expireLocked(now)
	if c.doneCount == len(c.shards) {
		return &AcquireResult{Done: true}, nil
	}
	if shard, ok := c.pickPendingLocked(); ok {
		return &AcquireResult{Grant: c.grantLocked(worker, shard, sweep.ShardName(shard, c.cfg.Shards), false, now)}, nil
	}
	if shard, ok := c.pickStragglerLocked(now); ok {
		st := &c.shards[shard]
		st.attemptSeq++
		name := speculativeName(st.attemptSeq, shard, c.cfg.Shards)
		return &AcquireResult{Grant: c.grantLocked(worker, shard, name, true, now)}, nil
	}
	return &AcquireResult{WaitMS: DefaultWaitHint.Milliseconds()}, nil
}

func (c *Coordinator) grantLocked(worker string, shard int, file string, speculative bool, now time.Time) *Grant {
	c.nextLease++
	c.attempts++
	st := &c.shards[shard]
	if !speculative {
		st.attemptSeq++
	}
	l := &lease{
		id:          c.nextLease,
		shard:       shard,
		file:        file,
		worker:      worker,
		speculative: speculative,
		granted:     now,
		deadline:    now.Add(c.cfg.LeaseTTL),
		state:       leaseActive,
	}
	c.leases[l.id] = l
	st.attempts = append(st.attempts, l)
	return &Grant{
		Lease:       l.id,
		Shard:       shard,
		Shards:      c.cfg.Shards,
		File:        file,
		TTLMS:       c.cfg.LeaseTTL.Milliseconds(),
		Speculative: speculative,
	}
}

// pickStragglerLocked finds the leased, unfinished shard whose oldest
// active attempt is furthest past the straggler threshold and still has
// attempt headroom.
func (c *Coordinator) pickStragglerLocked(now time.Time) (int, bool) {
	threshold := c.stragglerThresholdLocked()
	best, bestAge := -1, time.Duration(0)
	for shard := range c.shards {
		st := &c.shards[shard]
		if st.done || len(st.attempts) == 0 || len(st.attempts) >= c.cfg.MaxAttempts {
			continue
		}
		oldest := st.attempts[0].granted
		for _, a := range st.attempts[1:] {
			if a.granted.Before(oldest) {
				oldest = a.granted
			}
		}
		age := now.Sub(oldest)
		if age >= threshold && age > bestAge {
			best, bestAge = shard, age
		}
	}
	return best, best >= 0
}

// stragglerThresholdLocked derives the speculation cutoff from the
// median completion time of finished shards, floored at StragglerMin.
// With no completions yet there is no baseline, so nothing straggles.
func (c *Coordinator) stragglerThresholdLocked() time.Duration {
	var done []time.Duration
	for i := range c.shards {
		if c.shards[i].done && c.shards[i].completedIn > 0 {
			done = append(done, c.shards[i].completedIn)
		}
	}
	if len(done) == 0 {
		return time.Duration(1<<63 - 1)
	}
	sort.Slice(done, func(i, j int) bool { return done[i] < done[j] })
	med := done[len(done)/2]
	th := time.Duration(c.cfg.StragglerFactor * float64(med))
	if th < c.cfg.StragglerMin {
		th = c.cfg.StragglerMin
	}
	return th
}

// Heartbeat extends a lease's deadline. ErrLeaseGone means the worker
// has been fenced and must abandon the attempt.
func (c *Coordinator) Heartbeat(id int64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.Clock()
	c.expireLocked(now)
	l, ok := c.leases[id]
	if !ok || l.state != leaseActive {
		return ErrLeaseGone
	}
	l.deadline = now.Add(c.cfg.LeaseTTL)
	return nil
}

// Complete finishes an attempt. The coordinator verifies the attempt's
// checkpoint holds the shard's full index set, then either crowns it the
// winner (fencing rival attempts, promoting a speculative file to
// canonical) or — when a rival already won — verifies this copy is
// record-for-record bit-identical to the winner before discarding it.
func (c *Coordinator) Complete(id int64) (*CompleteResult, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.Clock()
	c.expireLocked(now)
	l, ok := c.leases[id]
	if !ok {
		return nil, ErrLeaseGone
	}
	switch l.state {
	case leaseWinner:
		return &CompleteResult{Winner: true, Done: c.doneLocked()}, nil // idempotent retry
	case leaseSuperseded:
		return &CompleteResult{Winner: false, Done: c.doneLocked()}, nil
	case leaseExpired:
		return nil, ErrLeaseGone
	case leaseLost:
		// The attempt finished, but a rival's complete arrived first.
		// Before discarding the loser, hold it to the determinism
		// contract: both full copies of the shard must agree bit for bit.
		if err := c.verifyDuplicateLocked(l); err != nil {
			c.poisonLocked(err)
			return nil, err
		}
		l.state = leaseSuperseded
		return &CompleteResult{Winner: false, Done: c.doneLocked()}, nil
	}
	// Active: close its writer so every appended byte is flushed, then
	// verify completeness against the store.
	if err := c.ckpts.closeOwned(l.file, l.id); err != nil {
		return nil, err
	}
	recs, _, err := c.cfg.Store.ReadShard(l.file)
	if err != nil {
		return nil, err
	}
	if err := c.verifyShardSet(l.shard, recs); err != nil {
		// Incomplete or foreign: the worker lied or died weirdly. Fence
		// the attempt; the shard stays recoverable.
		c.fenceLocked(l, leaseExpired)
		return nil, fmt.Errorf("fabric: complete rejected: %w", err)
	}
	st := &c.shards[l.shard]
	if st.done {
		// A rival completed between this worker's last append and its
		// complete call; it was never fenced only because expiry hadn't
		// run. Same duplicate guard as leaseLost.
		if err := c.verifyDuplicateLocked(l); err != nil {
			c.poisonLocked(err)
			return nil, err
		}
		c.fenceLocked(l, leaseSuperseded)
		return &CompleteResult{Winner: false, Done: c.doneLocked()}, nil
	}
	// Crown the winner: fence rivals first (closing their writers), then
	// install the winning checkpoint as canonical.
	for _, rival := range append([]*lease(nil), st.attempts...) {
		if rival != l {
			c.fenceLocked(rival, leaseLost)
		}
	}
	canonical := sweep.ShardName(l.shard, c.cfg.Shards)
	if l.file != canonical {
		if err := c.cfg.Store.Promote(l.file, canonical); err != nil {
			return nil, fmt.Errorf("fabric: promoting winning attempt: %w", err)
		}
	}
	c.fenceLocked(l, leaseWinner)
	st.done = true
	st.records = len(recs)
	st.completedIn = now.Sub(l.granted)
	c.doneCount++
	if c.doneCount == len(c.shards) {
		close(c.doneCh)
	}
	return &CompleteResult{Winner: true, Done: c.doneLocked()}, nil
}

// doneLocked reports sweep completion; callers hold c.mu.
func (c *Coordinator) doneLocked() bool { return c.doneCount == len(c.shards) }

// verifyShardSet checks recs is exactly shard's index set.
func (c *Coordinator) verifyShardSet(shard int, recs []sweep.Record) error {
	want := c.shardSize(shard)
	if len(recs) != want {
		return fmt.Errorf("shard %d attempt holds %d records, want %d", shard, len(recs), want)
	}
	seen := map[int]bool{}
	for _, rec := range recs {
		if rec.Index >= c.spec.Count || sweep.ShardOf(rec.Index, c.cfg.Shards) != shard {
			return fmt.Errorf("shard %d attempt holds foreign index %d", shard, rec.Index)
		}
		if seen[rec.Index] {
			return fmt.Errorf("shard %d attempt duplicates index %d", shard, rec.Index)
		}
		seen[rec.Index] = true
	}
	return nil
}

// verifyDuplicateLocked compares a completed losing attempt against the
// canonical (winning) checkpoint: every record must be bit-identical
// after zeroing the wall-time stamp, which is execution state, not
// instance content. Any divergence is a determinism violation.
func (c *Coordinator) verifyDuplicateLocked(l *lease) error {
	canonical := sweep.ShardName(l.shard, c.cfg.Shards)
	wantRecs, _, err := c.cfg.Store.ReadShard(canonical)
	if err != nil {
		return err
	}
	gotRecs, _, err := c.cfg.Store.ReadShard(l.file)
	if err != nil {
		return err
	}
	want, err := encodeByIndex(wantRecs)
	if err != nil {
		return err
	}
	got, err := encodeByIndex(gotRecs)
	if err != nil {
		return err
	}
	if len(got) != len(want) {
		return fmt.Errorf("fabric: shard %d duplicate attempt holds %d records, winner %d", l.shard, len(got), len(want))
	}
	for idx, line := range want {
		if !bytes.Equal(got[idx], line) {
			return fmt.Errorf("fabric: shard %d diverged at index %d:\nwinner %s\nloser  %s", l.shard, idx, line, got[idx])
		}
	}
	// Identity held; the staging copy is redundant.
	if l.file != canonical {
		c.cfg.Store.Remove(l.file)
	}
	return nil
}

// encodeByIndex renders records (WallNS zeroed) keyed by index.
func encodeByIndex(recs []sweep.Record) (map[int][]byte, error) {
	m := make(map[int][]byte, len(recs))
	for _, rec := range recs {
		rec.WallNS = 0
		line, err := sweep.EncodeRecord(rec)
		if err != nil {
			return nil, err
		}
		m[rec.Index] = line
	}
	return m, nil
}

func (c *Coordinator) poisonLocked(err error) {
	if c.poisoned == nil {
		c.poisoned = fmt.Errorf("%w: %v", ErrPoisoned, err)
	}
}

// Merge assembles the completed sweep's table from the canonical
// checkpoints — byte-identical to the serial oracle, or an error.
func (c *Coordinator) Merge() (*table.Table, error) {
	c.mu.Lock()
	poisoned := c.poisoned
	done := c.doneCount == len(c.shards)
	c.mu.Unlock()
	if poisoned != nil {
		return nil, poisoned
	}
	if !done {
		return nil, fmt.Errorf("fabric: sweep incomplete")
	}
	return sweep.MergeOn(c.cfg.Store, c.spec, c.cfg.Shards)
}

// Status snapshots the manifest for operators and tests.
func (c *Coordinator) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked(c.cfg.Clock())
	st := Status{
		Scenario: c.spec.Scenario,
		Shards:   c.cfg.Shards,
		Done:     c.doneCount == len(c.shards),
		Attempts: c.attempts,
	}
	if c.poisoned != nil {
		st.Poisoned = c.poisoned.Error()
	}
	for shard := range c.shards {
		s := &c.shards[shard]
		info := ShardStatus{Shard: shard, Attempts: len(s.attempts), Records: s.records}
		switch {
		case s.done:
			info.State = "done"
			st.Completed++
		case len(s.attempts) > 0:
			info.State = "leased"
			st.Leased++
		default:
			info.State = "pending"
			st.Pending++
		}
		st.Records += s.records
		st.ShardInfo = append(st.ShardInfo, info)
	}
	return st
}
