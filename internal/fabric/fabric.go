// Package fabric is the distributed sweep layer, the one way a sweep is
// split across processes: a coordinator that owns a sweep manifest (spec
// + shard plan + completion state) and leases shards to workers over HTTP.
//
// The design is fault-first. Workers die mid-shard, heartbeats vanish,
// the network partitions — and none of it may show in the merged table,
// which stays byte-identical to the serial oracle (the safety net
// inherited from internal/sweep's differential harness). The mechanisms:
//
//   - Leases. A worker acquires a shard lease, heartbeats it, and
//     completes it; a lease that misses heartbeats past its TTL expires
//     and the shard is reassigned. Every checkpoint write carries its
//     lease ID, and the coordinator fences writes from expired or
//     superseded leases — a zombie worker (alive but partitioned past its
//     TTL) cannot corrupt a checkpoint a successor has taken over.
//   - Checkpoints through the coordinator. Workers read and append shard
//     checkpoints over the same HTTP surface (an implementation of
//     sweep.Backend), so the coordinator's local store is the single
//     durable truth, fencing is enforceable, and the append-only JSONL
//     contract — fsync windows, torn-tail recovery — is exactly the one
//     the local-dir backend honors (pinned by the shared contract suite
//     in internal/sweep/backendtest).
//   - Speculative re-execution. A shard whose lease is held far past the
//     median completion time is a straggler: the coordinator grants a
//     second, speculative attempt that recomputes the shard into its own
//     staging checkpoint. First completed copy wins; the loser is
//     verified record-for-record bit-identical (WallNS excluded) against
//     the winner before being discarded — a speculative divergence is a
//     determinism bug and poisons the run loudly instead of merging
//     silently.
//   - Adaptive scheduling. Pending shards are granted heaviest-first,
//     weighted by recorded per-record WallNS costs (nearest observed
//     index, falling back to the running mean) instead of raw instance
//     count, so a resumed or cost-skewed sweep keeps its stragglers
//     short.
//   - Retries. All worker→coordinator calls retry transient failures
//     (transport errors, 5xx) with exponential backoff and jitter;
//     checkpoint appends are idempotent (offset-checked), so a retry
//     after a lost response cannot double-append.
//
// Deterministic fault injection for all of the above lives in
// internal/fabric/chaos. cmd/sweepd runs the coordinator; cmd/sweep
// -coordinator runs a worker; cmd/sweep -spawn runs both on one host, a
// loopback coordinator and one worker child process per shard.
package fabric

import (
	"errors"
	"fmt"
	"time"
)

// Defaults for Config knobs left zero.
const (
	DefaultLeaseTTL        = 15 * time.Second
	DefaultStragglerFactor = 3.0
	DefaultStragglerMin    = 10 * time.Second
	DefaultMaxAttempts     = 2
	DefaultWaitHint        = 500 * time.Millisecond
)

// Sentinel errors of the worker→coordinator protocol.
var (
	// ErrLeaseGone: the lease was expired, fenced, or never existed; the
	// worker must abandon the attempt (its checkpoint writes are already
	// being rejected) and acquire fresh work.
	ErrLeaseGone = errors.New("fabric: lease gone")

	// ErrPoisoned: the coordinator detected a determinism violation (two
	// completed attempts of one shard disagreed) and refuses to hand out
	// further work; the run must not be merged.
	ErrPoisoned = errors.New("fabric: sweep poisoned by attempt divergence")
)

// Grant is one shard lease as handed to a worker.
type Grant struct {
	Lease       int64  `json:"lease"`
	Shard       int    `json:"shard"`
	Shards      int    `json:"shards"`
	File        string `json:"file"` // checkpoint name this attempt owns
	TTLMS       int64  `json:"ttl_ms"`
	Speculative bool   `json:"speculative"`
}

// TTL returns the lease's heartbeat deadline window.
func (g *Grant) TTL() time.Duration { return time.Duration(g.TTLMS) * time.Millisecond }

// AcquireResult is the coordinator's answer to an acquire call: exactly
// one of Done, WaitMS or Grant is meaningful.
type AcquireResult struct {
	Done   bool   `json:"done,omitempty"`
	WaitMS int64  `json:"wait_ms,omitempty"`
	Grant  *Grant `json:"grant,omitempty"`
}

// Wait returns the coordinator's back-off hint as a duration.
func (r *AcquireResult) Wait() time.Duration { return time.Duration(r.WaitMS) * time.Millisecond }

// CompleteResult reports how a completed attempt landed: the winner of
// its shard, or superseded by an identical earlier copy. Done piggybacks
// the sweep's completion so the worker that finishes the final shard
// learns it immediately — a -once coordinator may exit before that
// worker's next Acquire could ask.
type CompleteResult struct {
	Winner bool `json:"winner"`
	Done   bool `json:"done,omitempty"`
}

// appendResponse acknowledges a checkpoint append with the new length,
// which doubles as the idempotency cursor for retries.
type appendResponse struct {
	Len int64 `json:"len"`
}

// Status is the coordinator's observable state, served on /fabric/v1/status.
type Status struct {
	Scenario  string        `json:"scenario"`
	Shards    int           `json:"shards"`
	Done      bool          `json:"done"`
	Poisoned  string        `json:"poisoned,omitempty"`
	Pending   int           `json:"pending"`
	Leased    int           `json:"leased"`
	Completed int           `json:"completed"`
	Records   int           `json:"records"`
	Attempts  int           `json:"attempts"` // leases ever granted
	ShardInfo []ShardStatus `json:"shard_info,omitempty"`
}

// ShardStatus is one shard's line in Status.
type ShardStatus struct {
	Shard    int    `json:"shard"`
	State    string `json:"state"` // pending | leased | done
	Attempts int    `json:"attempts"`
	Records  int    `json:"records"`
}

// speculativeName is the staging checkpoint of attempt seq at a shard —
// deliberately outside the shard-*-of-*.jsonl layout glob so stale
// attempts can never be mistaken for canonical checkpoints by a merge.
func speculativeName(seq, shard, shards int) string {
	return fmt.Sprintf("attempt-%03d-shard-%03d-of-%03d.jsonl", seq, shard, shards)
}
