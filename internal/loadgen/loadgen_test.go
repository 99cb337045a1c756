package loadgen

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"netdesign/internal/serve"
)

func newServer(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(serve.New(serve.Config{}).Handler())
	t.Cleanup(ts.Close)
	return ts
}

// TestRunBothProtocols drives a real server over every mix on both
// protocols with multiple workers and connections; every request must
// succeed and the report must be self-consistent.
func TestRunBothProtocols(t *testing.T) {
	ts := newServer(t)
	for _, binary := range []bool{false, true} {
		path := "/v1/sne"
		if binary {
			path = "/v2/sne"
		}
		for _, mix := range []string{MixJitter, MixAdversarial, MixMixed} {
			bodies, err := Bodies(mix, binary, 16, 6, 3)
			if err != nil {
				t.Fatal(err)
			}
			if len(bodies) != 6 {
				t.Fatalf("%s: %d bodies, want 6", mix, len(bodies))
			}
			res, err := Run(Config{
				URL:     ts.URL + path,
				Binary:  binary,
				Bodies:  bodies,
				Workers: 4,
				Conns:   4,
				Total:   40,
				// Generous wall bound so the total budget is what stops us.
				Duration:  30 * time.Second,
				DecodeSNE: true, // a malformed response must count as an error
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Errors != 0 {
				t.Fatalf("%s binary=%v: %d errors: %v", mix, binary, res.Errors, res)
			}
			if res.Requests != 40 {
				t.Fatalf("%s binary=%v: %d requests, want 40", mix, binary, res.Requests)
			}
			if res.ReqPerSec <= 0 || res.P50 <= 0 || res.P99 < res.P50 || res.P999 < res.P99 {
				t.Fatalf("%s binary=%v: implausible report %v", mix, binary, res)
			}
		}
	}
}

// TestRunCountsErrors: a mix aimed at a wrong path must be counted, not
// hidden.
func TestRunCountsErrors(t *testing.T) {
	ts := newServer(t)
	bodies, err := Bodies(MixJitter, true, 12, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		URL:      ts.URL + "/v1/sne", // binary frames at the JSON endpoint
		Binary:   true,
		Bodies:   bodies,
		Workers:  2,
		Total:    6,
		Duration: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != res.Requests || res.Errors == 0 {
		t.Fatalf("misdirected run: %d errors of %d requests", res.Errors, res.Requests)
	}
}

// TestDurationDrainsInFlight: a request still in flight at the Duration
// deadline runs to completion and counts as its answer says. The one
// worker's first request is held past the deadline (its handler starts
// after the run does and sleeps longer than the run lasts), so it is the
// only request of the run, and it succeeds.
func TestDurationDrainsInFlight(t *testing.T) {
	const window = 50 * time.Millisecond
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(window + 20*time.Millisecond)
		w.WriteHeader(http.StatusOK)
	}))
	t.Cleanup(ts.Close)
	res, err := Run(Config{URL: ts.URL, Bodies: [][]byte{[]byte("{}")}, Workers: 1, Duration: window})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 1 || res.Errors != 0 {
		t.Fatalf("%d requests, %d errors; want the blocked request counted and 0 errors", res.Requests, res.Errors)
	}
}

func TestBodiesUnknownMix(t *testing.T) {
	if _, err := Bodies("bogus", false, 8, 2, 1); err == nil {
		t.Fatal("unknown mix accepted")
	}
}

// TestRunPipelined: frame-batched binary load; counts are per frame and
// every frame must decode.
func TestRunPipelined(t *testing.T) {
	ts := newServer(t)
	bodies, err := Bodies(MixJitter, true, 16, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		URL:       ts.URL + "/v2/sne",
		Binary:    true,
		Bodies:    bodies,
		Workers:   4,
		Conns:     4,
		Total:     30,
		Pipeline:  3,
		DecodeSNE: true,
		Duration:  30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("pipelined run: %d errors: %v", res.Errors, res)
	}
	if res.Requests != 30 {
		t.Fatalf("pipelined run: %d requests, want 30", res.Requests)
	}
}
