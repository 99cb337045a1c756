// Command sweepd is the sweep fabric coordinator daemon: it owns one
// sweep manifest — the pinned spec, the shard plan, per-shard completion
// state — and hands out shard leases over HTTP to `sweep -coordinator`
// worker processes (see internal/fabric).
//
// Usage:
//
//	sweepd -scenario enforce -seed 1 -count 1000 -size 24 -dir run/ -shards 16 -addr :8633
//	sweepd -dir run/ -shards 16 -addr :8633 -once        # resume a crashed run, exit after merge
//
// The run directory is the durable truth: workers read and append shard
// checkpoints through the coordinator (lease-fenced, idempotent
// appends), so killing any worker — or the whole fleet — loses at most
// one fsync window of compute. Restarting sweepd over the same -dir
// resumes: completed shards stay completed, partial ones are handed out
// for resumption.
//
// Leases expire after -ttl without a heartbeat and the shard is
// reassigned. A shard held far past the median completion time is
// speculatively re-executed (-stragglerfactor, -stragglermin,
// -maxattempts); the first completed copy wins and any completed loser
// is verified bit-identical before being discarded.
//
// With -once the daemon exits after the sweep completes, printing the
// merged table to stdout — byte-identical to `sweep -serial` on the
// same spec, whatever faults the fleet suffered. Without -once it keeps
// serving /fabric/v1/status after completion. SIGINT/SIGTERM exit
// cleanly; all sweep state is already on disk.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"netdesign/internal/fabric"
	"netdesign/internal/sweep"
	"netdesign/internal/table"
)

func main() {
	if err := realMain(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "sweepd:", err)
		os.Exit(1)
	}
}

// listening, when non-nil, observes the bound address; tests use it to
// dial a daemon started on :0.
var listening func(net.Addr)

func realMain(argv []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("sweepd", flag.ContinueOnError)
	var (
		dir    = fs.String("dir", "", "run directory: the coordinator's durable checkpoint store")
		shards = fs.Int("shards", 1, "number of shards in the plan")
		addr   = fs.String("addr", ":8633", "listen address (host:port; :0 picks a free port)")

		ttl         = fs.Duration("ttl", fabric.DefaultLeaseTTL, "lease TTL: a worker silent this long is fenced and its shard reassigned")
		factor      = fs.Float64("stragglerfactor", fabric.DefaultStragglerFactor, "speculate on leases held this multiple of the median shard completion time")
		minStrag    = fs.Duration("stragglermin", fabric.DefaultStragglerMin, "never speculate before a lease is this old")
		maxAttempts = fs.Int("maxattempts", fabric.DefaultMaxAttempts, "concurrent attempts per shard (primary + speculative)")

		once     = fs.Bool("once", false, "exit after the sweep completes, printing the merged table to stdout")
		markdown = fs.Bool("markdown", false, "emit a markdown table (with -once)")
	)
	var specFlags sweep.SpecFlags
	specFlags.Register(fs)
	if err := fs.Parse(argv); err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("-dir is required")
	}
	spec, err := specFlags.Resolve(*dir)
	if err != nil {
		return err
	}

	coord, err := fabric.New(fabric.Config{
		Spec:            spec,
		Shards:          *shards,
		Store:           sweep.NewDirBackend(*dir),
		LeaseTTL:        *ttl,
		StragglerFactor: *factor,
		StragglerMin:    *minStrag,
		MaxAttempts:     *maxAttempts,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// The bound address goes to stderr so scripts starting `sweepd -addr
	// :0` can discover the port without racing the log stream.
	fmt.Fprintf(stderr, "sweepd: coordinating %s (%d shards) on %s\n", spec.Scenario, *shards, ln.Addr())
	if listening != nil {
		listening(ln.Addr())
	}
	hs := &http.Server{Handler: coord.Handler(), ReadHeaderTimeout: 5 * time.Second}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	defer func() {
		// Shut down gracefully: the complete that finished the sweep is
		// still writing its response, whose Done flag tells its worker to
		// stop. Cut off, the worker would retry against a closed listener
		// and fail.
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if hs.Shutdown(ctx) != nil {
			hs.Close()
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	if !*once {
		select {
		case got := <-sig:
			fmt.Fprintf(stderr, "sweepd: %s — exiting (sweep state is durable in %s)\n", got, *dir)
			return nil
		case err := <-serveErr:
			return err
		}
	}

	select {
	case <-coord.Done():
	case got := <-sig:
		return fmt.Errorf("interrupted by %s before the sweep completed", got)
	case err := <-serveErr:
		return err
	}
	tb, err := coord.Merge()
	if err != nil {
		return err
	}
	// The attempt ledger goes to the log: attempts above the shard count
	// are the faults the fabric absorbed (expired leases reassigned,
	// stragglers speculated) — what the CI smoke asserts on.
	st := coord.Status()
	fmt.Fprintf(stderr, "sweepd: sweep complete: %d shards, %d attempts, %d records\n", st.Shards, st.Attempts, st.Records)
	return render(tb, stdout, *markdown)
}

func render(tb *table.Table, stdout io.Writer, markdown bool) error {
	if markdown {
		_, err := io.WriteString(stdout, tb.Markdown())
		return err
	}
	tb.Render(stdout)
	return nil
}
