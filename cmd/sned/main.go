// Command sned is the subsidy-serving daemon: a long-lived HTTP server
// answering equilibrium-check, PoS-estimate and subsidy/enforcement
// queries over submitted broadcast instances.
//
// Usage:
//
//	sned [-addr :8533] [-timeout 30s] [-maxbody 1048576] [-maxinflight 0] [-drain 15s]
//
// Endpoints: POST /v1/check, /v1/sne, /v1/snd, /v1/pos (JSON bodies with
// the instance in the CLI text format); POST /v2/check, /v2/sne,
// /v2/snd, /v2/pos (the compact binary protocol of internal/serve/wire —
// length-prefixed frames, bit-identical answers to /v1 at a fraction of
// the cost; cmd/snedload speaks it); GET /healthz, /metrics. Responses
// are bit-identical to the sne/snd batch CLIs on the same instances;
// an lp request re-solves warm from its pooled solver chain's basis when
// that chain last solved exactly its structure (see internal/serve).
//
// Liveness and readiness are separate probes: /healthz answers ok for
// as long as the process runs, while /readyz answers 503 before the
// listener is warm and again the moment a shutdown drain begins — the
// signal a load balancer needs to stop routing here without declaring
// the process dead. -maxinflight caps concurrently served solves; past
// it /v1 sheds with 503 + Retry-After and /v2 with an unavailable
// frame, counted by sned_shed_requests_total in /metrics.
//
// -timeout is each request's budget, on /v1 and /v2 alike. It does not
// stop a running solve: a request whose solve returns past it answers
// 503 "request timed out" then (/v2: an unavailable frame), and counts
// against -maxinflight until then.
//
// SIGINT/SIGTERM trigger a graceful shutdown: the listener closes,
// in-flight solves drain for up to -drain, then the process exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"netdesign/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8533", "listen address (host:port; :0 picks a free port)")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request budget; a solve that returns past it answers 503 \"request timed out\"")
	maxBody := flag.Int64("maxbody", 1<<20, "request body size cap in bytes")
	maxInflight := flag.Int("maxinflight", 0, "shed requests past this many concurrent solves (0 = unlimited)")
	drain := flag.Duration("drain", 15*time.Second, "graceful-shutdown drain budget")
	flag.Parse()

	if err := run(*addr, *timeout, *maxBody, *maxInflight, *drain); err != nil {
		fmt.Fprintln(os.Stderr, "sned:", err)
		os.Exit(1)
	}
}

func run(addr string, timeout time.Duration, maxBody int64, maxInflight int, drain time.Duration) error {
	// Catch the stop signals before announcing the address: a supervisor
	// may send SIGTERM as soon as it reads the "listening on" line, and
	// that must drain the daemon, not kill it.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	srv := serve.New(serve.Config{
		MaxBodyBytes: maxBody,
		Timeout:      timeout,
		MaxInflight:  maxInflight,
	})
	bound, err := srv.Start(addr)
	if err != nil {
		return err
	}
	// The bound address goes to stderr so scripts starting `sned -addr :0`
	// can discover the port without racing the log stream.
	fmt.Fprintf(os.Stderr, "sned: listening on %s\n", bound)

	got := <-sig
	fmt.Fprintf(os.Stderr, "sned: %s — draining in-flight requests (budget %s)\n", got, drain)
	ctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	fmt.Fprintln(os.Stderr, "sned: drained, bye")
	return nil
}
