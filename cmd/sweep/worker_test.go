package main

import (
	"bytes"
	"net/http/httptest"
	"testing"
	"time"

	"netdesign/internal/fabric"
	"netdesign/internal/sweep"
)

// testCoordinator boots an in-process fabric coordinator over the CLI
// test spec family so -coordinator mode can be driven without a daemon.
func testCoordinator(t *testing.T, shards int) (*fabric.Coordinator, *httptest.Server) {
	t.Helper()
	spec := sweep.Spec{Scenario: "enforce", Seed: 11, Count: 6, Size: 5, Params: map[string]float64{"spread": 3}}
	c, err := fabric.New(fabric.Config{Spec: spec, Shards: shards, Store: sweep.NewDirBackend(t.TempDir())})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	t.Cleanup(srv.Close)
	return c, srv
}

// TestCoordinatorWorkerMode drives a sweep entirely through the CLI's
// -coordinator mode: the worker fetches the spec over HTTP, leases both
// shards in turn, and the coordinator's merged table matches the serial
// oracle byte for byte.
func TestCoordinatorWorkerMode(t *testing.T) {
	want := serialOutput(t)
	c, srv := testCoordinator(t, 2)
	if _, err := runCLI(t, "-coordinator", srv.URL, "-id", "cli-test"); err != nil {
		t.Fatal(err)
	}
	if st := c.Status(); !st.Done || st.Completed != 2 {
		t.Fatalf("after worker run: %+v, want 2 completed", st)
	}
	tb, err := c.Merge()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tb.Render(&buf)
	if buf.String() != want {
		t.Errorf("fabric worker merge differs from serial:\n--- serial ---\n%s--- fabric ---\n%s", want, buf.String())
	}
}

// TestCoordinatorThrottle makes sure the -throttle straggler knob still
// completes the sweep: it only slows record production, never blocks it.
// One engine worker runs the throttle sleeps one after another whatever
// the core count, so their sum is a lower bound on the elapsed time.
func TestCoordinatorThrottle(t *testing.T) {
	c, srv := testCoordinator(t, 1)
	start := time.Now()
	if _, err := runCLI(t, "-coordinator", srv.URL, "-throttle", "5ms", "-workers", "1"); err != nil {
		t.Fatal(err)
	}
	if st := c.Status(); !st.Done {
		t.Fatalf("throttled worker did not finish: %+v", st)
	}
	// 6 instances × ≥5ms throttle each, run sequentially.
	if elapsed := time.Since(start); elapsed < 30*time.Millisecond {
		t.Errorf("throttle had no effect: sweep took %s", elapsed)
	}
}

// TestCoordinatorRejectsSpecFlags pins the flag contract: worker mode
// takes its spec from the coordinator, so combining -coordinator with a
// local spec source is an error, not a silent ignore.
func TestCoordinatorRejectsSpecFlags(t *testing.T) {
	_, srv := testCoordinator(t, 1)
	for _, args := range [][]string{
		{"-coordinator", srv.URL, "-scenario", "enforce"},
		{"-coordinator", srv.URL, "-spec", "fam.sweep"},
		{"-coordinator", srv.URL, "-dir", "x"},
	} {
		if _, err := runCLI(t, args...); err == nil {
			t.Errorf("args %v accepted; worker mode must reject local spec flags", args)
		}
	}
}
