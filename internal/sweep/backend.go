package sweep

import (
	"fmt"
	"os"
	"path/filepath"
)

// ShardWriter appends completed records to one shard checkpoint, one
// fully formed JSONL line per record, durably within the writer's sync
// window. Append must be safe for concurrent use (the engine's worker
// goroutines share one writer); Close flushes and releases the
// checkpoint.
type ShardWriter interface {
	Append(Record) error
	Close() error
}

// Backend is the pluggable checkpoint store behind a sweep run: the
// local run directory today (DirBackend), the coordinator-served HTTP
// store in internal/fabric tomorrow — both honoring the same contract:
//
//   - PinSpec is write-or-verify: the first pin installs the spec, every
//     later pin of a different spec errors (mixing sweeps in one store is
//     how resumed runs get corrupted).
//   - ReadShard returns the records of the named checkpoint plus the byte
//     length of its decodable prefix; a torn final line from a killed
//     writer is dropped (its length excluded), a missing checkpoint reads
//     as empty, and corruption before the final line errors.
//   - OpenShard opens the named checkpoint for appending after truncating
//     it to validLen (the resume point ReadShard reported); syncEvery is
//     the durability window in records (see Options.SyncEvery; pass the
//     already-resolved value).
//
// The contract is pinned by the shared suite in
// internal/sweep/backendtest, which every implementation must pass.
type Backend interface {
	PinSpec(Spec) error
	LoadSpec() (Spec, error)
	CheckLayout(shards int) error
	ReadShard(name string) ([]Record, int64, error)
	OpenShard(name string, validLen int64, syncEvery int) (ShardWriter, error)
}

// ShardName is the canonical checkpoint name of one shard of an m-way
// run. Backends key checkpoints by these names; DirBackend maps them to
// files under its run directory.
func ShardName(shard, shards int) string {
	return fmt.Sprintf("shard-%03d-of-%03d.jsonl", shard, shards)
}

// DecodeCheckpoint parses an append-only checkpoint buffer, tolerating a
// torn final line (dropped; its bytes excluded from validLen). This is
// the client half of the Backend contract: remote backends ship raw
// checkpoint bytes and the reader recovers locally, exactly as
// ReadCheckpointFile does for local files.
func DecodeCheckpoint(data []byte) (recs []Record, validLen int64, err error) {
	rs, n, err := readCheckpoint(data)
	return rs, int64(n), err
}

// DirBackend is the local-directory checkpoint store: one file per
// checkpoint name under Dir, the spec pinned as spec.sweep. It is the
// storage layer cmd/sweep has always used, now behind the Backend
// interface so the engine cannot tell it from a remote store.
type DirBackend struct{ Dir string }

// NewDirBackend returns the Backend rooted at dir.
func NewDirBackend(dir string) DirBackend { return DirBackend{Dir: dir} }

func (b DirBackend) PinSpec(spec Spec) error      { return WriteRunSpec(b.Dir, spec) }
func (b DirBackend) LoadSpec() (Spec, error)      { return LoadRunSpec(b.Dir) }
func (b DirBackend) CheckLayout(shards int) error { return checkLayout(b.Dir, shards) }

func (b DirBackend) ReadShard(name string) ([]Record, int64, error) {
	return ReadCheckpointFile(filepath.Join(b.Dir, name))
}

func (b DirBackend) OpenShard(name string, validLen int64, syncEvery int) (ShardWriter, error) {
	return openCheckpoint(filepath.Join(b.Dir, name), validLen, syncEvery)
}

// Promote atomically renames checkpoint src over dst — the coordinator
// uses it to install a winning speculative attempt as the canonical
// shard checkpoint.
func (b DirBackend) Promote(src, dst string) error {
	return os.Rename(filepath.Join(b.Dir, src), filepath.Join(b.Dir, dst))
}

// Remove deletes a checkpoint; a missing one is not an error (losing
// attempts may already have been promoted away).
func (b DirBackend) Remove(name string) error {
	err := os.Remove(filepath.Join(b.Dir, name))
	if os.IsNotExist(err) {
		return nil
	}
	return err
}
