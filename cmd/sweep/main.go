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
//	sweep -dir run/ -shards 8 -spawn                                       # one-host fabric: 8 worker processes, merge
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
// speculative re-execution. -spawn is the same fabric on one host: a
// coordinator over -dir on a loopback port and one -coordinator worker
// process per shard. The coordinator decides success, so a worker that
// dies leaves its shards to the others.
//
// The spec is pinned inside the run directory (spec.sweep), so -merge
// and resumed runs need only -dir. Restarting over a non-empty
// checkpoint requires -resume: completed indices are skipped, a torn
// final line from a killed writer is truncated and recomputed.
//
// Checkpoints are fsynced every -syncevery records (default window; close
// always syncs), so acknowledged records survive host crashes, not just
// process kills. -syncevery -1 disables fsync for throughput experiments.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
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
		workers  = fs.Int("workers", 0, "worker goroutines per shard (0 = one per CPU)")
		syncEv   = fs.Int("syncevery", 0, "fsync the shard checkpoint every N records (0 = default window, <0 disables fsync)")
		resume   = fs.Bool("resume", false, "continue from existing shard checkpoints")
		spawn    = fs.Bool("spawn", false, "serve a local coordinator and spawn one worker process per shard")
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
	if *shards < 1 {
		return fmt.Errorf("-shards %d < 1", *shards)
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

	case *spawn:
		if *dir == "" {
			return fmt.Errorf("-spawn needs -dir")
		}
		for shard := 0; shard < *shards; shard++ {
			if err := guardResume(spec, *dir, shard, *shards, *resume); err != nil {
				return err
			}
		}
		// All worker processes run at once: an unset -workers must divide
		// the CPUs between them, not hand each one the whole machine.
		perWorker := *workers
		if perWorker <= 0 {
			if perWorker = runtime.NumCPU() / *shards; perWorker < 1 {
				perWorker = 1
			}
		}
		tb, err := spawnFabric(spec, *dir, *shards, perWorker, *syncEv)
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

// spawnFabric runs the sweep as a one-host fabric: a coordinator over
// dir, served on a loopback port, and one -coordinator worker process of
// this binary per shard. Worker stderr passes through. The coordinator
// alone decides success — a worker that fails leaves its shards to the
// others — so the run errors only if the sweep is incomplete once every
// worker has exited.
func spawnFabric(spec sweep.Spec, dir string, shards, workers, syncEvery int) (*table.Table, error) {
	coord, err := fabric.New(fabric.Config{Spec: spec, Shards: shards, Store: sweep.NewDirBackend(dir)})
	if err != nil {
		return nil, err
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: coord.Handler(), ReadHeaderTimeout: 5 * time.Second}
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.Serve(ln) // returns http.ErrServerClosed once the workers are gone
	}()
	defer func() {
		srv.Close()
		<-served
	}()

	args := []string{
		"-coordinator", "http://" + ln.Addr().String(),
		"-workers", strconv.Itoa(workers),
		"-syncevery", strconv.Itoa(syncEvery),
	}
	var failed []error
	var cmds []*exec.Cmd
	for range shards {
		cmd := execCommand(exe, args...)
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			failed = append(failed, fmt.Errorf("spawn worker: %w", err))
			continue
		}
		cmds = append(cmds, cmd)
	}
	for _, cmd := range cmds {
		if err := cmd.Wait(); err != nil {
			failed = append(failed, fmt.Errorf("worker pid %d: %w", cmd.Process.Pid, err))
		}
	}
	tb, err := coord.Merge()
	if err != nil {
		return nil, errors.Join(append([]error{err}, failed...)...)
	}
	for _, err := range failed {
		fmt.Fprintf(os.Stderr, "sweep: %v (the sweep completed without it)\n", err)
	}
	return tb, nil
}
