package sweep

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"netdesign/internal/parallel"
	"netdesign/internal/table"
)

// Options tunes one shard execution.
type Options struct {
	// Workers is the number of goroutines working the shard (≤ 0: one
	// per CPU). Records are checkpointed in completion order; merge
	// ordering never depends on it.
	Workers int

	// StopAfter, when > 0, stops the run after that many new records:
	// the bounded-budget knob, and the kill switch the resume
	// differential tests use to interrupt a shard mid-sweep.
	StopAfter int

	// SyncEvery controls checkpoint durability: the shard file is fsynced
	// after every SyncEvery appended records and on close, so records
	// acknowledged as done survive a host crash, not just a process kill.
	// 0 means DefaultSyncEvery (durability on); negative disables fsync
	// entirely (benchmark mode — a host crash may then lose acknowledged
	// records, which resume would silently recompute differently-ordered).
	SyncEvery int

	// Interrupt, when non-nil, is polled before each instance; returning
	// true stops the shard cleanly (no error — the partial checkpoint is a
	// valid crash state resume recovers from). Fabric workers park lease
	// loss here so a fenced worker stops computing instead of burning CPU
	// on records the coordinator will refuse.
	Interrupt func() bool
}

// ShardOf returns the shard owning instance idx under a round-robin
// partition into shards parts. Allocation-free.
func ShardOf(idx, shards int) int { return idx % shards }

// ShardPath returns the checkpoint path of one shard of a run directory.
func ShardPath(dir string, shard, shards int) string {
	return filepath.Join(dir, ShardName(shard, shards))
}

// specFileName pins the sweep spec inside its run directory so resumed
// runs, merges and the fabric coordinator verify they extend one sweep.
const specFileName = "spec.sweep"

// SpecPath returns the run directory's pinned spec path.
func SpecPath(dir string) string { return filepath.Join(dir, specFileName) }

// WriteRunSpec pins spec under dir (creating it), or verifies the
// already-pinned spec matches — mixing sweeps in one directory is the
// classic way to corrupt a resumed run, so it is an error. The pin is
// claimed atomically (write a unique temp file, hard-link it into
// place), so concurrent first-time workers racing on a fresh directory
// cannot both install their spec: exactly one link wins and the loser
// falls through to the mismatch check.
func WriteRunSpec(dir string, spec Spec) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := SpecPath(dir)
	verify := func() error {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		pinned, perr := ParseSpec(f)
		f.Close()
		if perr != nil {
			return fmt.Errorf("sweep: unreadable pinned spec %s: %w", path, perr)
		}
		if !pinned.Equal(spec) {
			return fmt.Errorf("sweep: run dir %s holds a different sweep (pinned %+v)", dir, pinned)
		}
		return nil
	}
	if _, err := os.Stat(path); err == nil {
		return verify()
	}
	// CreateTemp gives every claimant — including same-process
	// goroutines — its own temp file; a shared name would let one racer
	// truncate another's in-flight write before the link.
	f, err := os.CreateTemp(dir, specFileName+".tmp.*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if err := WriteSpec(f, spec); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	linkErr := os.Link(tmp, path)
	os.Remove(tmp)
	if linkErr == nil {
		return nil
	}
	if os.IsExist(linkErr) {
		return verify() // lost the race; the winner's pin is complete
	}
	return linkErr
}

// checkLayout refuses to touch a run directory already checkpointed
// under a different shard count: the spec pin fixes the instance family
// but not the partition, and mixing partitions in one directory would
// silently recompute the sweep into a parallel checkpoint set.
func checkLayout(dir string, shards int) error {
	matches, err := filepath.Glob(filepath.Join(dir, "shard-*-of-*.jsonl"))
	if err != nil {
		return err
	}
	for _, match := range matches {
		base := filepath.Base(match)
		var s, total int
		if _, err := fmt.Sscanf(base, "shard-%d-of-%d.jsonl", &s, &total); err != nil {
			continue
		}
		if total != shards {
			return fmt.Errorf("sweep: run dir %s is already sharded %d-wise (found %s); rerun with shards=%d or use a fresh dir", dir, total, base, total)
		}
	}
	return nil
}

// LoadRunSpec reads the spec pinned under dir.
func LoadRunSpec(dir string) (Spec, error) {
	f, err := os.Open(SpecPath(dir))
	if err != nil {
		return Spec{}, err
	}
	defer f.Close()
	return ParseSpec(f)
}

// doneSet is a bitset over instance indices: allocation-free membership
// on the resume hot path.
type doneSet []uint64

func newDoneSet(n int) doneSet { return make(doneSet, (n+63)/64) }

func (d doneSet) has(i int) bool { return d[i>>6]&(1<<(uint(i)&63)) != 0 }

// add marks i and reports whether it was newly added.
func (d doneSet) add(i int) bool {
	if d.has(i) {
		return false
	}
	d[i>>6] |= 1 << (uint(i) & 63)
	return true
}

// runIndices executes the scenario on the given instance indices with up
// to workers goroutines, handing each completed record to sink (which
// must be safe for concurrent use). Each worker owns one reseeded rng
// source, so per-instance dispatch allocates nothing beyond what the
// scenario itself does. stopAfter > 0 caps the number of records
// produced; which indices complete under an early stop depends on worker
// scheduling (any subset is a valid crash state — resume recomputes the
// rest). Returns the number of records handed to sink.
func runIndices(sc *Scenario, spec Spec, indices []int, workers, stopAfter int, interrupt func() bool, sink func(Record) error) (int, error) {
	if len(indices) == 0 {
		return 0, nil
	}
	var reserved, produced atomic.Int64
	var stop atomic.Bool
	errs := make([]error, parallel.Workers(workers))
	parallel.ForEachChunk(len(indices), workers, func(k, lo, hi int) {
		rng := rand.New(rand.NewSource(1))
		// Per-worker carry for chained scenarios (warm starts): starts
		// nil each chunk, flows instance to instance within the chunk.
		var carry any
		for _, idx := range indices[lo:hi] {
			if stop.Load() {
				return
			}
			if interrupt != nil && interrupt() {
				stop.Store(true)
				return
			}
			if stopAfter > 0 && reserved.Add(1) > int64(stopAfter) {
				return
			}
			// Seed through the Rand, not the Source: Rand.Seed also
			// resets the buffered Read state, so a scenario calling
			// rng.Read cannot leak bytes across instances and break the
			// order-independence contract.
			rng.Seed(InstanceSeed(spec.Seed, idx))
			t0 := time.Now()
			rec, next, err := sc.runInstance(spec, idx, rng, carry)
			carry = next
			if err != nil {
				errs[k] = fmt.Errorf("sweep: %s[%d]: %w", spec.Scenario, idx, err)
				stop.Store(true)
				return
			}
			rec.Index = idx
			// Wall-time stamp for adaptive shard balancing; merge and
			// table assembly ignore it, so determinism is untouched.
			rec.WallNS = time.Since(t0).Nanoseconds()
			if err := sink(rec); err != nil {
				errs[k] = err
				stop.Store(true)
				return
			}
			produced.Add(1)
		}
	})
	for _, err := range errs {
		if err != nil {
			return int(produced.Load()), err
		}
	}
	return int(produced.Load()), nil
}

// runOneIndex computes a single instance exactly as the workers do: a
// fresh rng seeded with InstanceSeed, index stamped on the record.
func runOneIndex(sc *Scenario, spec Spec, idx int) (Record, error) {
	t0 := time.Now()
	rec, _, err := sc.runInstance(spec, idx, rand.New(rand.NewSource(InstanceSeed(spec.Seed, idx))), nil)
	if err != nil {
		return Record{}, err
	}
	rec.Index = idx
	rec.WallNS = time.Since(t0).Nanoseconds()
	return rec, nil
}

// RunTable runs the whole family in process — no checkpoints — and
// assembles the scenario's table. The result is independent of the
// worker count: records are reassembled in index order.
func RunTable(spec Spec, workers int) (*table.Table, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	sc, ok := GetScenario(spec.Scenario)
	if !ok {
		return nil, fmt.Errorf("sweep: unknown scenario %q", spec.Scenario)
	}
	indices := make([]int, spec.Count)
	for i := range indices {
		indices[i] = i
	}
	recs := make([]Record, 0, spec.Count)
	var mu sync.Mutex
	_, err := runIndices(sc, spec, indices, workers, 0, nil, func(rec Record) error {
		mu.Lock()
		recs = append(recs, rec)
		mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return BuildTable(spec, recs)
}

// RunSerial is the single-worker oracle path: every instance in index
// order on one goroutine, no sharding, no files. The differential tests
// hold every shard/resume execution to byte-identical output against it.
func RunSerial(spec Spec) (*table.Table, error) { return RunTable(spec, 1) }

// RunShard executes one shard of the sweep under dir, resuming from its
// checkpoint: indices already on disk are skipped, a torn final line from
// a killed writer is truncated and recomputed, and every newly completed
// instance is appended as one JSONL line. Returns the number of new
// records written. Safe to re-run after any interruption; concurrent
// writers on the *same* shard are not supported (give each worker its
// own shard).
func RunShard(spec Spec, dir string, shard, shards int, opt Options) (int, error) {
	return RunShardOn(NewDirBackend(dir), spec, shard, shards, opt)
}

// RunShardOn is RunShard over any checkpoint Backend: the canonical
// shard checkpoint (ShardName) is read, torn-tail-truncated, and extended
// with every newly completed instance.
func RunShardOn(b Backend, spec Spec, shard, shards int, opt Options) (int, error) {
	if shards < 1 || shard < 0 || shard >= shards {
		return 0, fmt.Errorf("sweep: shard %d/%d out of range", shard, shards)
	}
	return RunShardFileOn(b, spec, ShardName(shard, shards), shard, shards, opt)
}

// RunShardFileOn runs shard shard/shards of the sweep against the named
// checkpoint instead of the canonical one — the hook speculative
// re-execution rides on: a second attempt at a straggling shard computes
// the same index set into its own staging checkpoint, so the primary's
// writer is never shared. Resume semantics are per name: indices already
// present in that checkpoint are skipped.
func RunShardFileOn(b Backend, spec Spec, name string, shard, shards int, opt Options) (int, error) {
	if err := spec.Validate(); err != nil {
		return 0, err
	}
	sc, ok := GetScenario(spec.Scenario)
	if !ok {
		return 0, fmt.Errorf("sweep: unknown scenario %q", spec.Scenario)
	}
	if shards < 1 || shard < 0 || shard >= shards {
		return 0, fmt.Errorf("sweep: shard %d/%d out of range", shard, shards)
	}
	if err := b.PinSpec(spec); err != nil {
		return 0, err
	}
	if err := b.CheckLayout(shards); err != nil {
		return 0, err
	}
	recs, validLen, err := b.ReadShard(name)
	if err != nil {
		return 0, err
	}
	done := newDoneSet(spec.Count)
	for _, rec := range recs {
		if rec.Index >= spec.Count || ShardOf(rec.Index, shards) != shard {
			return 0, fmt.Errorf("sweep: checkpoint %s holds foreign index %d", name, rec.Index)
		}
		if !done.add(rec.Index) {
			return 0, fmt.Errorf("sweep: checkpoint %s duplicates index %d", name, rec.Index)
		}
	}
	var remaining []int
	for idx := shard; idx < spec.Count; idx += shards {
		if !done.has(idx) {
			remaining = append(remaining, idx)
		}
	}
	if len(remaining) == 0 {
		return 0, nil
	}
	w, err := b.OpenShard(name, validLen, resolveSyncEvery(opt.SyncEvery))
	if err != nil {
		return 0, err
	}
	n, runErr := runIndices(sc, spec, remaining, opt.Workers, opt.StopAfter, opt.Interrupt, w.Append)
	if cerr := w.Close(); runErr == nil {
		runErr = cerr
	}
	return n, runErr
}

// Merge reassembles the table from all shard checkpoints of a completed
// run. It verifies the records form exactly one record per index — a
// killed, resumed, resharded-nowhere run merges bit-identically to
// RunSerial or it errors.
func Merge(spec Spec, dir string, shards int) (*table.Table, error) {
	return MergeOn(NewDirBackend(dir), spec, shards)
}

// MergeOn is Merge over any checkpoint Backend.
func MergeOn(b Backend, spec Spec, shards int) (*table.Table, error) {
	if shards < 1 {
		return nil, fmt.Errorf("sweep: shards %d < 1", shards)
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	pinned, err := b.LoadSpec()
	switch {
	case errors.Is(err, os.ErrNotExist):
		// No pin (checkpoints assembled by hand); BuildTable's
		// completeness check is the only guard left.
	case err != nil:
		return nil, fmt.Errorf("sweep: unreadable pinned spec: %w", err)
	case !pinned.Equal(spec):
		return nil, fmt.Errorf("sweep: checkpoint store holds a different sweep")
	}
	if err := b.CheckLayout(shards); err != nil {
		return nil, err
	}
	var recs []Record
	for shard := 0; shard < shards; shard++ {
		rs, _, err := b.ReadShard(ShardName(shard, shards))
		if err != nil {
			return nil, err
		}
		recs = append(recs, rs...)
	}
	return BuildTable(spec, recs)
}

// Run executes every shard in process (each with opt.Workers goroutines)
// and merges: the one-command local path cmd/sweep defaults to.
func Run(spec Spec, dir string, shards int, opt Options) (*table.Table, error) {
	if shards < 1 {
		return nil, fmt.Errorf("sweep: shards %d < 1", shards)
	}
	for shard := 0; shard < shards; shard++ {
		if _, err := RunShard(spec, dir, shard, shards, opt); err != nil {
			return nil, err
		}
	}
	return Merge(spec, dir, shards)
}
