package serve

import (
	"bytes"
	"context"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"netdesign/internal/serve/wire"
)

// TestOverloadShed holds one solve in flight on a MaxInflight=1 server
// and checks both protocols shed the surplus: /v1 with 503 +
// Retry-After, /v2 with an HTTP 503 carrying a StatusUnavailable frame.
// The admitted request must still answer 200 once released.
func TestOverloadShed(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInflight: 1})
	release := make(chan struct{})
	var released bool
	defer func() { // unblock the held solve even when an assertion bails out
		if !released {
			close(release)
		}
	}()
	// entered is the handshake that the admitted request holds its slot:
	// the inflight gauge rises before preSolve runs.
	entered := make(chan struct{}, 1)
	s.preSolve = func(context.Context) {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-release
	}

	type result struct {
		code int
		body []byte
	}
	first := make(chan result, 1)
	go func() {
		resp, body := post(t, ts, "/v1/check", instanceRequest{Instance: cycle5})
		first <- result{resp.StatusCode, body}
	}()
	<-entered

	resp, body := post(t, ts, "/v1/check", instanceRequest{Instance: cycle5})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/v1 overload answered %d, want 503: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("/v1 shed response missing Retry-After")
	}

	// Body content is irrelevant: shed precedes frame parsing.
	binResp, err := http.Post(ts.URL+"/v2/check", "application/octet-stream", bytes.NewReader([]byte{0, 0, 0, 0}))
	if err != nil {
		t.Fatal(err)
	}
	var binBody bytes.Buffer
	binBody.ReadFrom(binResp.Body)
	binResp.Body.Close()
	if binResp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/v2 overload answered %d, want 503", binResp.StatusCode)
	}
	if raw := binBody.Bytes(); len(raw) < 5 || raw[4] != wire.StatusUnavailable {
		t.Fatalf("/v2 shed frame %v, want status byte %d", raw, wire.StatusUnavailable)
	}

	close(release)
	released = true
	got := <-first
	if got.code != http.StatusOK {
		t.Fatalf("admitted request answered %d: %s", got.code, got.body)
	}

	metResp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var met bytes.Buffer
	met.ReadFrom(metResp.Body)
	metResp.Body.Close()
	if !strings.Contains(met.String(), "sned_shed_requests_total 2\n") {
		t.Errorf("metrics missing shed counter:\n%s", met.String())
	}
}

// TestTimeoutHoldsInflightSlot: a /v1 request past its deadline keeps
// its inflight slot until its solve returns, so MaxInflight still counts
// it: with MaxInflight 1, a second request arriving while the timed-out
// solve runs is shed, and the first answers 503 "request timed out" only
// once its solve returns.
func TestTimeoutHoldsInflightSlot(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInflight: 1, Timeout: time.Millisecond})
	expired := make(chan struct{})
	release := make(chan struct{})
	var released bool
	defer func() {
		if !released {
			close(release)
		}
	}()
	var held atomic.Bool
	s.preSolve = func(ctx context.Context) {
		if !held.CompareAndSwap(false, true) {
			return // only the first request is held; a second must not get here
		}
		<-ctx.Done()
		close(expired)
		<-release
	}

	type result struct {
		code int
		body []byte
	}
	first := make(chan result, 1)
	go func() {
		resp, body := post(t, ts, "/v1/check", instanceRequest{Instance: cycle5})
		first <- result{resp.StatusCode, body}
	}()
	<-expired

	resp, body := post(t, ts, "/v1/check", instanceRequest{Instance: cycle5})
	if resp.StatusCode != http.StatusServiceUnavailable || decode[map[string]string](t, body)["error"] != "server overloaded, retry later" {
		t.Fatalf("request during a timed-out solve answered %d %s, want 503 server overloaded", resp.StatusCode, body)
	}
	select {
	case got := <-first:
		t.Fatalf("timed-out request answered %d %s before its solve returned", got.code, got.body)
	default:
	}

	close(release)
	released = true
	got := <-first
	if got.code != http.StatusServiceUnavailable || decode[map[string]string](t, got.body)["error"] != "request timed out" {
		t.Fatalf("timed-out request answered %d %s, want 503 request timed out", got.code, got.body)
	}
}

// TestReadyzTracksLifecycle pins the liveness/readiness split: a server
// that has not Started answers 503 on /readyz (while /healthz is 200),
// Start flips it ready, Shutdown flips it back before draining.
func TestReadyzTracksLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	get := func(path string) int {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get("/healthz"); code != http.StatusOK {
		t.Fatalf("healthz before warm: %d", code)
	}
	if code := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz before warm: %d, want 503", code)
	}

	s2 := New(Config{})
	addr, err := s2.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr.String() + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz after Start: %d, want 200", resp.StatusCode)
	}
	if err := s2.Shutdown(t.Context()); err != nil {
		t.Fatal(err)
	}
	if s2.ready.Load() {
		t.Fatal("Shutdown left the server ready")
	}
}
