// Command sweep runs sharded, checkpointed scenario sweeps: the
// distribution layer over the per-instance equilibrium engines. A sweep
// is a Spec — a registered scenario plus base seed, instance count and
// size — partitioned round-robin into m shards; every completed instance
// appends one JSONL record to its shard's checkpoint under the run
// directory, and merging the shards reproduces the serial table byte for
// byte (see internal/sweep's differential tests).
//
// Usage:
//
//	sweep -scenario enforce -seed 1 -count 1000 -size 24 -dir run/         # run + merge locally
//	sweep -dir run/ -shard 3/8 -resume                                     # one worker process
//	sweep -dir run/ -shards 8 -spawn                                       # spawn 8 worker processes, merge
//	sweep -dir run/ -shards 8 -merge                                       # merge completed shards only
//	sweep -coordinator http://host:8633                                    # fabric worker: lease shards until done
//	sweep -scenario pos-swap -count 16 -size 40 -serial                    # serial oracle, no files
//	sweep -list                                                            # registered scenarios
//
// With -coordinator the process is a fabric worker (see internal/fabric
// and cmd/sweepd): it acquires shard leases over HTTP, computes through
// the coordinator-served checkpoint store, heartbeats each lease, and
// exits 0 when the coordinator reports the sweep complete. The spec
// comes from the coordinator; no -dir or spec flags are needed.
// -throttle sleeps that long before every instance — a deliberate
// straggler knob the fault-injection smoke tests use to force
// speculative re-execution.
//
// The spec is pinned inside the run directory (spec.sweep), so resumed
// and spawned workers need only -dir. Restarting over a non-empty
// checkpoint requires -resume: completed indices are skipped, a torn
// final line from a killed writer is truncated and recomputed.
//
// Checkpoints are fsynced every -syncevery records (default window; close
// always syncs), so acknowledged records survive host crashes, not just
// process kills. -syncevery -1 disables fsync for throughput experiments.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"

	"netdesign/internal/fabric"
	"netdesign/internal/sweep"
	"netdesign/internal/table"
)

func main() {
	if err := realMain(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
}

// execCommand builds worker subprocesses; tests substitute it to reroute
// spawning through the test binary.
var execCommand = exec.Command

func realMain(argv []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	var (
		dir      = fs.String("dir", "", "run directory for shard checkpoints")
		shards   = fs.Int("shards", 1, "number of shards")
		shardArg = fs.String("shard", "", "run a single shard, formatted i/m (worker mode)")
		workers  = fs.Int("workers", 0, "worker goroutines per shard (0 = one per CPU)")
		syncEv   = fs.Int("syncevery", 0, "fsync the shard checkpoint every N records (0 = default window, <0 disables fsync)")
		resume   = fs.Bool("resume", false, "continue from existing shard checkpoints")
		spawn    = fs.Bool("spawn", false, "execute each shard in a spawned worker process")
		merge    = fs.Bool("merge", false, "merge completed shards and print; run nothing")
		serial   = fs.Bool("serial", false, "run the serial in-process oracle; no checkpoints")
		markdown = fs.Bool("markdown", false, "emit a markdown table")
		list     = fs.Bool("list", false, "list registered scenarios")

		coordinator = fs.String("coordinator", "", "fabric coordinator URL; run as a leased worker until the sweep completes")
		workerID    = fs.String("id", "", "worker label reported to the coordinator (default host-pid)")
		throttle    = fs.Duration("throttle", 0, "sleep this long before each instance (deliberate straggler for fault tests)")
	)
	var specFlags sweep.SpecFlags
	specFlags.Register(fs)
	if err := fs.Parse(argv); err != nil {
		return err
	}
	if *list {
		for _, name := range sweep.ScenarioNames() {
			sc, _ := sweep.GetScenario(name)
			fmt.Fprintf(stdout, "%-12s %s: %s\n", name, sc.TableID, sc.Title)
		}
		return nil
	}
	if *coordinator != "" {
		// Worker mode takes the spec — and the checkpoint store — from the
		// coordinator; a local spec source would be silently ignored, so
		// refuse it outright.
		if specFlags.Path != "" || specFlags.Scenario != "" || *dir != "" {
			return fmt.Errorf("-coordinator is exclusive with -spec/-scenario/-dir: the coordinator owns the spec and store")
		}
		return runWorker(*coordinator, *workerID, *workers, *syncEv, *throttle)
	}

	spec, err := specFlags.Resolve(*dir)
	if err != nil {
		return err
	}

	render := func(tb *table.Table) error {
		if *markdown {
			_, err := io.WriteString(stdout, tb.Markdown())
			return err
		}
		tb.Render(stdout)
		return nil
	}

	switch {
	case *serial:
		tb, err := sweep.RunSerial(spec)
		if err != nil {
			return err
		}
		return render(tb)

	case *merge:
		if *dir == "" {
			return fmt.Errorf("-merge needs -dir")
		}
		tb, err := sweep.Merge(spec, *dir, *shards)
		if err != nil {
			return err
		}
		return render(tb)

	case *shardArg != "": // worker mode: one shard, no merge, quiet stdout
		shard, m, err := parseShard(*shardArg)
		if err != nil {
			return err
		}
		if *dir == "" {
			return fmt.Errorf("-shard needs -dir")
		}
		if err := guardResume(spec, *dir, shard, m, *resume); err != nil {
			return err
		}
		n, err := sweep.RunShard(spec, *dir, shard, m, sweep.Options{Workers: *workers, SyncEvery: *syncEv})
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "sweep: shard %d/%d: %d new records\n", shard, m, n)
		return nil

	case *spawn:
		if *dir == "" {
			return fmt.Errorf("-spawn needs -dir")
		}
		// Pin the spec first so workers need only -dir.
		if err := sweep.WriteRunSpec(*dir, spec); err != nil {
			return err
		}
		for shard := 0; shard < *shards; shard++ {
			if err := guardResume(spec, *dir, shard, *shards, *resume); err != nil {
				return err
			}
		}
		// All shard processes run at once: an unset -workers must divide
		// the CPUs between them, not hand each one the whole machine.
		perWorker := *workers
		if perWorker <= 0 {
			if perWorker = runtime.NumCPU() / *shards; perWorker < 1 {
				perWorker = 1
			}
		}
		if err := spawnShards(*dir, *shards, perWorker, *syncEv); err != nil {
			return err
		}
		tb, err := sweep.Merge(spec, *dir, *shards)
		if err != nil {
			return err
		}
		return render(tb)

	default: // run every shard in-process, then merge
		if *dir == "" {
			return fmt.Errorf("-dir is required (or use -serial for a checkpoint-free run)")
		}
		for shard := 0; shard < *shards; shard++ {
			if err := guardResume(spec, *dir, shard, *shards, *resume); err != nil {
				return err
			}
		}
		tb, err := sweep.Run(spec, *dir, *shards, sweep.Options{Workers: *workers, SyncEvery: *syncEv})
		if err != nil {
			return err
		}
		return render(tb)
	}
}

// runWorker is fabric worker mode: lease shards from the coordinator and
// compute them through its checkpoint store until the sweep is done.
func runWorker(url, id string, workers, syncEvery int, throttle time.Duration) error {
	if id == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		id = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	w := &fabric.Worker{
		Client:  &fabric.Client{URL: strings.TrimSuffix(url, "/")},
		ID:      id,
		Options: sweep.Options{Workers: workers, SyncEvery: syncEvery},
	}
	if throttle > 0 {
		w.Interrupt = func() bool {
			time.Sleep(throttle)
			return false
		}
	}
	if err := w.Run(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "sweep: worker %s: sweep complete\n", id)
	return nil
}

// parseShard parses "i/m" worker assignments.
func parseShard(s string) (shard, m int, err error) {
	a, b, ok := strings.Cut(s, "/")
	if !ok {
		return 0, 0, fmt.Errorf("want -shard i/m, got %q", s)
	}
	shard, err1 := strconv.Atoi(a)
	m, err2 := strconv.Atoi(b)
	if err1 != nil || err2 != nil || m < 1 || shard < 0 || shard >= m {
		return 0, 0, fmt.Errorf("bad -shard %q", s)
	}
	return shard, m, nil
}

// guardResume refuses to extend a non-empty shard checkpoint unless
// -resume was given: silently reusing stale checkpoints is how two
// different sweeps end up merged. A stat suffices — RunShard does the
// actual record scan, and doing it here too would read every checkpoint
// twice on large resumed runs.
func guardResume(spec sweep.Spec, dir string, shard, m int, resume bool) error {
	if resume {
		return nil
	}
	info, err := os.Stat(sweep.ShardPath(dir, shard, m))
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	if info.Size() > 0 {
		return fmt.Errorf("shard %d/%d has a non-empty checkpoint (%d bytes); pass -resume to continue it", shard, m, info.Size())
	}
	return nil
}

// spawnShards runs every shard as a separate worker process of this
// binary, all concurrently (shard counts are small; each worker's
// internal parallelism is -workers). Worker stderr passes through.
func spawnShards(dir string, shards, workers, syncEvery int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	cmds := make([]*exec.Cmd, shards)
	for shard := 0; shard < shards; shard++ {
		cmd := execCommand(exe, workerArgs(dir, shard, shards, workers, syncEvery)...)
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return fmt.Errorf("spawn shard %d/%d: %w", shard, shards, err)
		}
		cmds[shard] = cmd
	}
	var firstErr error
	for shard, cmd := range cmds {
		if err := cmd.Wait(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("worker shard %d/%d: %w", shard, shards, err)
		}
	}
	return firstErr
}

// workerArgs is the argv a spawned shard worker runs with: the pinned
// spec in -dir is the source of truth, and -resume lets relaunched
// fleets pick up checkpoints.
func workerArgs(dir string, shard, shards, workers, syncEvery int) []string {
	return []string{
		"-dir", dir,
		"-shard", fmt.Sprintf("%d/%d", shard, shards),
		"-workers", strconv.Itoa(workers),
		"-syncevery", strconv.Itoa(syncEvery),
		"-resume",
	}
}
