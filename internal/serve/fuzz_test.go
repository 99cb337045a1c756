package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"netdesign/internal/serve/wire"
)

// FuzzHandler sends arbitrary bodies through the full route table to
// all eight solve routes, /v1 and /v2 of check, sne, snd and pos.
// Whatever the bytes, the handler must not panic and must answer a
// status from the allowed set; a /v2 body must be whole frames whose
// first status byte agrees with the HTTP status, a /v1 error must be a
// JSON {"error": ...}, and the inflight gauge must be back at 0.
// Requests whose work the body cap does not bound are skipped (see
// bounded).
func FuzzHandler(f *testing.F) {
	inst := parse(f, cycle5)
	for _, seed := range []struct {
		route uint8
		body  []byte
	}{
		{0, []byte(`{"instance":"nodes 5\nedge 0 1 1\nedge 1 2 1\nedge 2 3 1\nedge 3 4 1\nedge 4 0 1\nroot 0\n"}`)},
		{1, []byte(`{"instance":"nodes 3\nedge 0 1 1\nedge 1 2 1\nedge 0 2 5\nroot 0\n","method":"lp"}`)},
		{1, []byte(`{"instance":"nodes 2\nedge 0 1 2.5\nroot 1\nmult 0 3\ntree 0\n","method":"full"}`)},
		{1, []byte(`{"instance":"nodes 3\nedge 0 9 1\nroot 0\n"}`)},
		{0, []byte(`{"instance":"nodes 1000000000000\nroot 0\n"}`)}, // refused before any allocation
		{1, []byte(`{"instance":"","bogus":1}`)},
		{2, wire.AppendFrame(nil, wire.AppendCheckRequest(nil, inst))},
		{3, wire.AppendFrame(wire.AppendFrame(nil, wire.AppendSNERequest(nil, inst, wire.MethodLP)), []byte{42})},
		{3, wire.AppendFrame(nil, wire.AppendSNERequest(nil, inst, wire.MethodFull))},
		{3, []byte{9, 0, 0, 0, 1, 2}},
		{3, []byte{0xFF, 0xFF, 0xFF, 0xFF}},
		{4, []byte(`{"instance":"nodes 3\nedge 0 1 1\nedge 1 2 1\nedge 0 2 5\nroot 0\n","budget":1}`)},
		{4, []byte(`{"instance":"nodes 2\nedge 0 1 2.5\nroot 1\n","budget":-1}`)},
		{5, []byte(`{"instance":"nodes 5\nedge 0 1 1\nedge 1 2 1\nedge 2 3 1\nedge 3 4 1\nedge 4 0 1\nedge 0 2 1.5\nroot 0\n","starts":3,"maxsteps":40,"seed":7}`)},
		{6, wire.AppendFrame(nil, wire.AppendSNDRequest(nil, inst, 2, false, 0))},
		{7, wire.AppendFrame(wire.AppendFrame(nil, wire.AppendPoSRequest(nil, inst, 2, 40, 3)), []byte{1, 0})},
	} {
		f.Add(seed.route, seed.body)
	}

	routes := [...]string{"/v1/check", "/v1/sne", "/v2/check", "/v2/sne", "/v1/snd", "/v1/pos", "/v2/snd", "/v2/pos"}
	s := New(Config{MaxBodyBytes: fuzzMaxBody})
	h := s.Handler()
	f.Fuzz(func(t *testing.T, route uint8, body []byte) {
		path := routes[int(route)%len(routes)]
		v2 := strings.HasPrefix(path, "/v2/")
		if !bounded(path, body) {
			t.Skip()
		}

		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		code, raw := rec.Code, rec.Body.Bytes()
		switch code {
		case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusUnprocessableEntity:
		default:
			t.Fatalf("%s: status %d: %q", path, code, raw)
		}
		if v2 {
			frames := splitFrames(t, raw)
			if len(frames) == 0 {
				t.Fatalf("%s: HTTP %d with no response frame", path, code)
			}
			for i, fr := range frames {
				status, _, _, err := wire.DecodeStatus(fr[4:])
				if err != nil {
					t.Fatalf("%s: frame %d: %v", path, i, err)
				}
				if i == 0 && status != binStatusOf(code) {
					t.Fatalf("%s: HTTP %d but first frame status %d", path, code, status)
				}
			}
		} else if code != http.StatusOK {
			var e map[string]string
			dec := json.NewDecoder(bytes.NewReader(raw))
			if err := dec.Decode(&e); err != nil || e["error"] == "" || len(e) != 1 {
				t.Fatalf("%s: HTTP %d with body %q, want a JSON error", path, code, raw)
			}
			if _, err := dec.Token(); err != io.EOF {
				t.Fatalf("%s: trailing bytes after the JSON error: %q", path, raw)
			}
		}
		if n := s.met.inflight.Load(); n != 0 {
			t.Fatalf("inflight gauge %d after the request returned", n)
		}
	})
}

// fuzzMaxBody is the per-request body cap FuzzHandler serves with.
const fuzzMaxBody = 2048

// Caps on the PoS fields a fuzzed request may set: swap descent runs up
// to starts × maxsteps steps, whatever the body size.
const (
	fuzzMaxStarts = 8
	fuzzMaxSteps  = 256
)

// bounded reports whether every request in body asks only for work the
// body cap bounds. The sne methods that search (aon) or enumerate
// (theorem6, greedy) do not, nor does exact SND, which enumerates
// spanning trees, nor PoS descent with starts or maxsteps above the
// caps (maxsteps 0 means 100000). A request the route cannot decode is
// refused before any solve, so it counts as bounded.
func bounded(path string, body []byte) bool {
	if !strings.HasPrefix(path, "/v2/") {
		dec := json.NewDecoder(bytes.NewReader(body))
		switch path {
		case "/v1/sne":
			var req sneRequest
			return dec.Decode(&req) != nil || cheapMethod(req.Method)
		case "/v1/snd":
			var req sndRequest
			return dec.Decode(&req) != nil || !req.Exact
		case "/v1/pos":
			var req posRequest
			return dec.Decode(&req) != nil || cheapPoS(req.Starts, req.MaxSteps)
		}
		return true
	}
	var dec wire.ReqDecoder
	r := bytes.NewReader(body)
	for range maxPipelineFrames {
		payload, err := wire.ReadFrame(r, nil, fuzzMaxBody)
		if err != nil {
			return true
		}
		switch path {
		case "/v2/sne":
			if _, method, err := dec.SNE(payload); err == nil && !cheapMethod(method) {
				return false
			}
		case "/v2/snd":
			if _, _, exact, _, err := dec.SND(payload); err == nil && exact {
				return false
			}
		case "/v2/pos":
			if _, starts, steps, _, err := dec.PoS(payload); err == nil && !cheapPoS(starts, steps) {
				return false
			}
		}
	}
	return true
}

// cheapPoS reports whether a PoS request stays within the fuzz caps
// (starts ≤ 0 runs the served default of 4).
func cheapPoS(starts, maxSteps int) bool {
	return starts <= fuzzMaxStarts && maxSteps >= 1 && maxSteps <= fuzzMaxSteps
}

// cheapMethod reports whether an sne method is bounded by the instance
// size alone ("" is the lp default).
func cheapMethod(method string) bool {
	return method == "" || method == "lp" || method == "full"
}
