package sweep

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"netdesign/internal/table"
)

// testScenario is a cheap deterministic scenario for engine tests: cells
// derived from the per-index rng, a note-only record every fifth index,
// and an aggregate-sum finalize note that exercises Vals round-tripping.
func testScenario() *Scenario {
	return &Scenario{
		Name:    "test-sum",
		TableID: "T1",
		Title:   "engine test scenario",
		Claim:   "none",
		Headers: []string{"idx", "draw", "double"},
		Run: func(spec Spec, idx int, rng *rand.Rand) (Record, error) {
			draw := rng.Float64()*spec.Param("scale", 10) + float64(spec.Size)
			if idx%5 == 4 {
				return Record{Notes: []string{fmt.Sprintf("idx %d skipped (draw %.4f)", idx, draw)}}, nil
			}
			return Record{
				Cells: table.FormatCells(idx, draw, 2*draw),
				Vals:  []float64{draw},
			}, nil
		},
		Finalize: func(spec Spec, recs []Record, tb *table.Table) {
			sum := 0.0
			for _, rec := range recs {
				for _, v := range rec.Vals {
					sum += v
				}
			}
			tb.Note("sum of draws: %.6f", sum)
		},
	}
}

func init() { Register(testScenario()) }

func testSpec(count int) Spec {
	return Spec{Scenario: "test-sum", Seed: 42, Count: count, Size: 3, Params: map[string]float64{"scale": 7.5}}
}

func renderTable(t *testing.T, tb *table.Table) string {
	t.Helper()
	var buf bytes.Buffer
	tb.Render(&buf)
	return buf.String()
}

func TestSpecRoundTrip(t *testing.T) {
	specs := []Spec{
		{Scenario: "pos-trees", Seed: 1, Count: 8, Size: 4},
		{Scenario: "x", Seed: -77, Count: 1, Size: 0, Params: map[string]float64{"a": 0.1, "zz": math.Inf(1), "mid": -3e-300}},
		testSpec(10),
	}
	for _, s := range specs {
		var buf bytes.Buffer
		if err := WriteSpec(&buf, s); err != nil {
			t.Fatalf("write %+v: %v", s, err)
		}
		back, err := ParseSpec(&buf)
		if err != nil {
			t.Fatalf("parse %+v: %v", s, err)
		}
		if !back.Equal(s) {
			t.Fatalf("round trip changed spec: %+v → %+v", s, back)
		}
	}
}

func TestSpecParseErrors(t *testing.T) {
	cases := []string{
		"",
		"sweep x\n",                     // missing count
		"count 3\n",                     // missing sweep
		"sweep x\ncount 0\n",            // bad count
		"sweep x\ncount 2\nsize -1\n",   // bad size
		"sweep x\ncount 2\nseed a\n",    // bad seed
		"sweep x\ncount 2\nparam p\n",   // short param
		"sweep x\ncount 2\nparam p q\n", // bad value
		"sweep x\ncount 2\nparam p 1\nparam p 2\n", // duplicate param
		"bogus 1\n", // unknown directive
	}
	for _, in := range cases {
		if _, err := ParseSpec(strings.NewReader(in)); err == nil {
			t.Errorf("ParseSpec accepted %q", in)
		}
	}
	// Comments, blank lines and repeated scalars are fine.
	s, err := ParseSpec(strings.NewReader("# hi\n\nsweep x\nseed 1\nseed 2\ncount 3\n"))
	if err != nil || s.Seed != 2 || s.Count != 3 {
		t.Fatalf("lenient parse failed: %+v, %v", s, err)
	}
}

func TestInstanceSeedDistinct(t *testing.T) {
	seen := map[int64]bool{}
	for _, seed := range []int64{0, 1, -9, 1 << 40} {
		for idx := 0; idx < 1000; idx++ {
			s := InstanceSeed(seed, idx)
			if seen[s] {
				t.Fatalf("seed collision at base %d idx %d", seed, idx)
			}
			seen[s] = true
		}
	}
	if InstanceSeed(7, 3) != InstanceSeed(7, 3) {
		t.Fatal("InstanceSeed not deterministic")
	}
}

func TestRecordCodecRoundTrip(t *testing.T) {
	recs := []Record{
		{Index: 0},
		{Index: 3, Cells: []string{"a", "", "0.1250"}, Vals: []float64{0.1, math.Inf(1), math.Inf(-1), math.NaN(), -0.0}, Notes: []string{"n1", "n2"}},
		{Index: 1 << 30, Cells: []string{"x"}},
		{Index: 5, Cells: []string{"y"}, WallNS: 123456789},
	}
	for _, rec := range recs {
		line, err := EncodeRecord(rec)
		if err != nil {
			t.Fatalf("encode %+v: %v", rec, err)
		}
		if bytes.IndexByte(line, '\n') >= 0 {
			t.Fatalf("encoded record contains newline: %s", line)
		}
		back, err := DecodeRecord(line)
		if err != nil {
			t.Fatalf("decode %s: %v", line, err)
		}
		if back.Index != rec.Index || len(back.Cells) != len(rec.Cells) ||
			len(back.Vals) != len(rec.Vals) || len(back.Notes) != len(rec.Notes) ||
			back.WallNS != rec.WallNS {
			t.Fatalf("round trip changed shape: %+v → %+v", rec, back)
		}
		for i := range rec.Cells {
			if back.Cells[i] != rec.Cells[i] {
				t.Fatalf("cell %d changed: %q → %q", i, rec.Cells[i], back.Cells[i])
			}
		}
		for i := range rec.Vals {
			if math.Float64bits(back.Vals[i]) != math.Float64bits(rec.Vals[i]) {
				t.Fatalf("val %d not bit-identical: %x → %x", i, rec.Vals[i], back.Vals[i])
			}
		}
	}
	if _, err := EncodeRecord(Record{Index: -1}); err == nil {
		t.Error("negative index encoded")
	}
	if _, err := EncodeRecord(Record{Index: 1, WallNS: -5}); err == nil {
		t.Error("negative wall time encoded")
	}
	for _, bad := range []string{"", "{", `{"i":-2}`, `{"i":1,"v":["zzz"]}`, `{"i":1,"bogus":2}`, `{"i":1} extra`, `{"i":1,"w":-9}`} {
		if _, err := DecodeRecord([]byte(bad)); err == nil {
			t.Errorf("DecodeRecord accepted %q", bad)
		}
	}
	// Backward compatibility: pre-wall-time lines (no "w" key) decode
	// with WallNS 0 and re-encode byte-identically (omitempty), so old
	// checkpoint files resume cleanly under the new codec.
	old := []byte(`{"i":9,"c":["r"],"v":["0x1p-01"]}`)
	back, err := DecodeRecord(old)
	if err != nil || back.WallNS != 0 {
		t.Fatalf("old-format line: %+v %v", back, err)
	}
	again, err := EncodeRecord(back)
	if err != nil || !bytes.Equal(again, old) {
		t.Fatalf("old-format line not a fixed point: %s vs %s (%v)", again, old, err)
	}
}

// TestRunShardCheckpointsWallTime: every checkpointed record of a real
// shard run must carry a positive wall-time stamp, and the merged table
// must be identical to a serial run regardless (merge ignores timing).
func TestRunShardCheckpointsWallTime(t *testing.T) {
	spec := Spec{Scenario: "enforce", Seed: 3, Count: 6, Size: 8}
	dir := t.TempDir()
	if _, err := RunShard(spec, dir, 0, 1, Options{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	recs, _, err := ReadCheckpointFile(ShardPath(dir, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != spec.Count {
		t.Fatalf("checkpointed %d records, want %d", len(recs), spec.Count)
	}
	for _, rec := range recs {
		if rec.WallNS <= 0 {
			t.Errorf("record %d has wall time %dns, want > 0", rec.Index, rec.WallNS)
		}
	}
}

func TestReadCheckpointTornTail(t *testing.T) {
	l0, _ := EncodeRecord(Record{Index: 0, Cells: []string{"a"}})
	l1, _ := EncodeRecord(Record{Index: 7, Cells: []string{"b"}})
	valid := string(l0) + "\n" + string(l1) + "\n"

	cases := []struct {
		data string
		want int // records recovered
	}{
		{valid, 2},
		{valid + `{"i":9,"c":["tor`, 2}, // unterminated torn line
		{valid + "garbage\n", 2},        // terminated garbage tail
		{valid + string(l0)[:4], 2},     // torn mid-record
		{"", 0},
		{`{"i":0`, 0}, // nothing but a torn line
	}
	for _, c := range cases {
		recs, n, err := readCheckpoint([]byte(c.data))
		if err != nil {
			t.Fatalf("readCheckpoint(%q): %v", c.data, err)
		}
		if len(recs) != c.want {
			t.Fatalf("readCheckpoint(%q): %d records, want %d", c.data, len(recs), c.want)
		}
		if want := len(valid); c.want == 2 && n != want {
			t.Fatalf("validLen %d, want %d", n, want)
		}
	}
	// Mid-file corruption is an error, not a torn tail.
	if _, _, err := readCheckpoint([]byte("junk\n" + valid)); err == nil {
		t.Error("mid-file corruption accepted")
	}
}

func TestShardPartition(t *testing.T) {
	count, shards := 103, 7
	seen := make([]bool, count)
	for s := 0; s < shards; s++ {
		for idx := s; idx < count; idx += shards {
			if ShardOf(idx, shards) != s {
				t.Fatalf("ShardOf(%d,%d) = %d, want %d", idx, shards, ShardOf(idx, shards), s)
			}
			if seen[idx] {
				t.Fatalf("index %d in two shards", idx)
			}
			seen[idx] = true
		}
	}
	for idx, ok := range seen {
		if !ok {
			t.Fatalf("index %d unassigned", idx)
		}
	}
}

func TestRunTableWorkerCountInvariant(t *testing.T) {
	spec := testSpec(23)
	want, err := RunSerial(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 5} {
		got, err := RunTable(spec, workers)
		if err != nil {
			t.Fatal(err)
		}
		if renderTable(t, got) != renderTable(t, want) {
			t.Fatalf("workers=%d output differs from serial", workers)
		}
	}
}

func TestRunShardRejectsBadInput(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(10)
	if _, err := RunShard(spec, dir, 3, 3, Options{}); err == nil {
		t.Error("out-of-range shard accepted")
	}
	if _, err := RunShard(Spec{Scenario: "nope", Seed: 1, Count: 2}, dir, 0, 1, Options{}); err == nil {
		t.Error("unknown scenario accepted")
	}
	// A run dir pinned to a different spec refuses new shards.
	if _, err := RunShard(spec, dir, 0, 2, Options{}); err != nil {
		t.Fatal(err)
	}
	other := spec
	other.Seed++
	if _, err := RunShard(other, dir, 1, 2, Options{}); err == nil {
		t.Error("spec mismatch accepted")
	}
}

func TestRunShardResumeIsIdempotent(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(17)
	n, err := RunShard(spec, dir, 0, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n != 9 { // indices 0,2,...,16
		t.Fatalf("first run wrote %d records, want 9", n)
	}
	n, err = RunShard(spec, dir, 0, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("re-run recomputed %d records, want 0", n)
	}
}

func TestMergeRejectsIncompleteRun(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(12)
	if _, err := RunShard(spec, dir, 0, 3, Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := Merge(spec, dir, 3); err == nil {
		t.Error("merge of incomplete run succeeded")
	}
	// A shard count below 1 names itself, not the empty record set it
	// would otherwise read.
	for _, shards := range []int{0, -2} {
		if _, err := Merge(spec, dir, shards); err == nil || !strings.Contains(err.Error(), "shards") {
			t.Errorf("merge over %d shards: err %v, want a shard-count error", shards, err)
		}
	}
}

func TestCheckpointFilesAreJSONL(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(6)
	if _, err := RunShard(spec, dir, 0, 1, Options{}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(ShardPath(dir, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) != 6 {
		t.Fatalf("%d JSONL lines for 6 instances", len(lines))
	}
	for _, ln := range lines {
		if _, err := DecodeRecord([]byte(ln)); err != nil {
			t.Fatalf("non-JSONL checkpoint line %q: %v", ln, err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, specFileName)); err != nil {
		t.Fatalf("run dir has no pinned spec: %v", err)
	}
}

func TestMergeGuardsPinnedSpec(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(6)
	if _, err := Run(spec, dir, 1, Options{}); err != nil {
		t.Fatal(err)
	}
	// Intact pin, wrong spec: refused.
	other := spec
	other.Seed++
	if _, err := Merge(other, dir, 1); err == nil {
		t.Error("merge under a different spec accepted")
	}
	// Corrupt pin: refused rather than silently unguarded.
	if err := os.WriteFile(SpecPath(dir), []byte("not a spec\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Merge(spec, dir, 1); err == nil {
		t.Error("merge with a corrupt pinned spec accepted")
	}
	// Missing pin (hand-assembled checkpoints): completeness check only.
	if err := os.Remove(SpecPath(dir)); err != nil {
		t.Fatal(err)
	}
	if _, err := Merge(spec, dir, 1); err != nil {
		t.Errorf("merge without a pinned spec failed: %v", err)
	}
}

// TestWriteRunSpecConcurrentClaim races two different specs onto fresh
// run dirs: the atomic pin must let exactly one through and reject the
// other, never silently installing both.
func TestWriteRunSpecConcurrentClaim(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		dir := t.TempDir()
		a, b := testSpec(5), testSpec(5)
		b.Seed++
		errA := make(chan error, 1)
		go func() { errA <- WriteRunSpec(dir, a) }()
		errB := WriteRunSpec(dir, b)
		eA := <-errA
		wins := 0
		if eA == nil {
			wins++
		}
		if errB == nil {
			wins++
		}
		if wins != 1 {
			t.Fatalf("trial %d: %d winners (a: %v, b: %v)", trial, wins, eA, errB)
		}
		// The pinned spec is whichever won, intact.
		pinned, err := LoadRunSpec(dir)
		if err != nil {
			t.Fatal(err)
		}
		if !pinned.Equal(a) && !pinned.Equal(b) {
			t.Fatalf("trial %d: pinned spec matches neither racer: %+v", trial, pinned)
		}
	}
}

// TestLayoutGuard: one run directory, one shard count — resharding a
// checkpointed dir must be refused, not silently recomputed in parallel.
func TestLayoutGuard(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(9)
	if _, err := RunShard(spec, dir, 0, 3, Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := RunShard(spec, dir, 0, 2, Options{}); err == nil {
		t.Error("resharding 3→2 accepted")
	}
	if _, err := RunShard(spec, dir, 0, 1, Options{}); err == nil {
		t.Error("resharding 3→1 accepted")
	}
	if _, err := Merge(spec, dir, 1); err == nil {
		t.Error("merge under the wrong shard count accepted")
	}
	// Same layout continues fine.
	for shard := 0; shard < 3; shard++ {
		if _, err := RunShard(spec, dir, shard, 3, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Merge(spec, dir, 3); err != nil {
		t.Fatal(err)
	}
}
