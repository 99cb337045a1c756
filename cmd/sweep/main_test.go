package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"netdesign/internal/sweep"
)

// TestMain doubles as the worker-process entry point: when the spawn
// tests re-execute this test binary with SWEEP_WORKER_PROCESS=1, it runs
// realMain on the worker argv instead of the test suite — the standard
// os/exec helper-process pattern, here proving that -spawn really
// computes in separate -coordinator worker processes.
func TestMain(m *testing.M) {
	if os.Getenv("SWEEP_WORKER_PROCESS") == "1" {
		if err := realMain(os.Args[1:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "sweep:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// specArgs is a small, fast sweep family used by every CLI test.
func specArgs() []string {
	return []string{"-scenario", "enforce", "-seed", "11", "-count", "6", "-size", "5", "-param", "spread=3"}
}

func runCLI(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var buf bytes.Buffer
	err := realMain(args, &buf)
	return buf.String(), err
}

func serialOutput(t *testing.T) string {
	t.Helper()
	out, err := runCLI(t, append(specArgs(), "-serial")...)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "== E21:") {
		t.Fatalf("serial output missing table header:\n%s", out)
	}
	return out
}

func TestRunAndMergeMatchSerial(t *testing.T) {
	want := serialOutput(t)
	dir := t.TempDir()
	out, err := runCLI(t, append(specArgs(), "-dir", dir, "-shards", "3")...)
	if err != nil {
		t.Fatal(err)
	}
	if out != want {
		t.Errorf("sharded run differs from serial:\n--- serial ---\n%s--- sharded ---\n%s", want, out)
	}
	// -merge re-renders from checkpoints alone; the pinned spec suffices.
	out, err = runCLI(t, "-dir", dir, "-shards", "3", "-merge")
	if err != nil {
		t.Fatal(err)
	}
	if out != want {
		t.Errorf("merge-only differs from serial:\n%s", out)
	}
}

func TestResumeGuard(t *testing.T) {
	dir := t.TempDir()
	if _, err := runCLI(t, append(specArgs(), "-dir", dir, "-shards", "2")...); err != nil {
		t.Fatal(err)
	}
	if _, err := runCLI(t, append(specArgs(), "-dir", dir, "-shards", "2")...); err == nil {
		t.Fatal("restart over non-empty checkpoints accepted without -resume")
	}
	want := serialOutput(t)
	out, err := runCLI(t, append(specArgs(), "-dir", dir, "-shards", "2", "-resume")...)
	if err != nil {
		t.Fatal(err)
	}
	if out != want {
		t.Errorf("resumed run differs from serial:\n%s", out)
	}
}

// TestKillResumeCLI tears a checkpoint the way a killed writer would and
// resumes through the CLI: the merged table must match the serial oracle
// byte for byte.
func TestKillResumeCLI(t *testing.T) {
	want := serialOutput(t)
	dir := t.TempDir()
	if _, err := runCLI(t, append(specArgs(), "-dir", dir, "-shards", "2")...); err != nil {
		t.Fatal(err)
	}
	path := sweep.ShardPath(dir, 0, 2)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-len(data)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := runCLI(t, "-dir", dir, "-shards", "2", "-merge"); err == nil {
		t.Fatal("merge of torn run accepted")
	}
	if _, err := runCLI(t, "-dir", dir, "-shards", "2", "-resume"); err != nil {
		t.Fatal(err)
	}
	out, err := runCLI(t, "-dir", dir, "-shards", "2", "-merge")
	if err != nil {
		t.Fatal(err)
	}
	if out != want {
		t.Errorf("CLI kill/resume differs from serial:\n--- serial ---\n%s--- resumed ---\n%s", want, out)
	}
}

// spawnVia reroutes -spawn's children through this test binary (see
// TestMain) for the rest of the test, passing each child's index and
// argv through edit first.
func spawnVia(t *testing.T, edit func(child int, args []string) []string) {
	t.Helper()
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	orig := execCommand
	children := 0
	execCommand = func(name string, args ...string) *exec.Cmd {
		cmd := exec.Command(name, edit(children, args)...)
		children++
		cmd.Env = append(os.Environ(), "SWEEP_WORKER_PROCESS=1")
		return cmd
	}
	t.Cleanup(func() { execCommand = orig })
}

// TestSpawnWorkerProcesses exercises -spawn end to end with real child
// processes (the test binary re-entered via TestMain): every child is a
// -coordinator worker of the parent's local coordinator, the printed
// table is the serial oracle's, and every canonical shard checkpoint
// lands in -dir.
func TestSpawnWorkerProcesses(t *testing.T) {
	var argvs [][]string
	spawnVia(t, func(_ int, args []string) []string {
		argvs = append(argvs, args)
		return args
	})

	want := serialOutput(t)
	dir := t.TempDir()
	out, err := runCLI(t, append(specArgs(), "-dir", dir, "-shards", "3", "-spawn")...)
	if err != nil {
		t.Fatal(err)
	}
	if out != want {
		t.Errorf("spawned run differs from serial:\n--- serial ---\n%s--- spawned ---\n%s", want, out)
	}
	if len(argvs) != 3 {
		t.Fatalf("spawned %d children, want 3", len(argvs))
	}
	for i, args := range argvs {
		if len(args) < 2 || args[0] != "-coordinator" || !strings.HasPrefix(args[1], "http://127.0.0.1:") {
			t.Errorf("child %d argv %q: want a -coordinator worker of a loopback coordinator", i, args)
		}
	}
	for shard := 0; shard < 3; shard++ {
		if _, err := os.Stat(sweep.ShardPath(dir, shard, 3)); err != nil {
			t.Errorf("shard %d checkpoint missing: %v", shard, err)
		}
	}
}

// TestSpawnSurvivesFailedChild fails child 0 before it takes a lease:
// the coordinator, not the children's exit codes, decides the run, so
// the surviving children finish its shard and the table still matches
// the serial oracle.
func TestSpawnSurvivesFailedChild(t *testing.T) {
	spawnVia(t, func(child int, args []string) []string {
		if child == 0 {
			// -coordinator refuses -dir before contacting the
			// coordinator, so this child exits 1 holding no lease.
			return append(args, "-dir", "refused")
		}
		return args
	})

	want := serialOutput(t)
	out, err := runCLI(t, append(specArgs(), "-dir", t.TempDir(), "-shards", "3", "-spawn")...)
	if err != nil {
		t.Fatal(err)
	}
	if out != want {
		t.Errorf("run with a failed child differs from serial:\n--- serial ---\n%s--- spawned ---\n%s", want, out)
	}
}

func TestSpecFileAndMarkdown(t *testing.T) {
	dir := t.TempDir()
	specPath := filepath.Join(dir, "fam.sweep")
	if err := os.WriteFile(specPath, []byte("sweep enforce\nseed 11\ncount 6\nsize 5\nparam spread 3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	want := serialOutput(t)
	out, err := runCLI(t, "-spec", specPath, "-serial")
	if err != nil {
		t.Fatal(err)
	}
	if out != want {
		t.Errorf("-spec file run differs from flag-built spec:\n%s", out)
	}
	md, err := runCLI(t, "-spec", specPath, "-serial", "-markdown")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(md, "### E21:") || !strings.Contains(md, "| n |") {
		t.Errorf("markdown output malformed:\n%s", md)
	}
}

func TestListScenarios(t *testing.T) {
	out, err := runCLI(t, "-list")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"pos-trees", "pos-swap", "enforce"} {
		if !strings.Contains(out, name) {
			t.Errorf("-list missing scenario %q:\n%s", name, out)
		}
	}
}

func TestFlagErrors(t *testing.T) {
	cases := [][]string{
		{},                               // no spec source
		{"-scenario", "nope", "-serial"}, // unknown scenario (caught at run)
		{"-scenario", "enforce"},         // no -dir and not -serial
		// -shards < 1, refused before any mode runs
		{"-scenario", "enforce", "-count", "4", "-size", "5", "-dir", "x", "-shards", "0", "-spawn"},
		{"-scenario", "enforce", "-count", "4", "-size", "5", "-dir", "x", "-shards", "-2", "-spawn"},
		{"-scenario", "enforce", "-count", "4", "-size", "5", "-dir", "x", "-shards", "0", "-merge"},
		{"-scenario", "enforce", "-param", "broken", "-serial"},
		{"-merge", "-scenario", "enforce"}, // -merge without -dir
		{"-spec", "/nonexistent/spec"},
	}
	for _, args := range cases {
		if _, err := runCLI(t, args...); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}
