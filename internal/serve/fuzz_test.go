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
// /v1/check, /v1/sne, /v2/check and /v2/sne. Whatever the bytes, the
// handler must not panic and must answer a status from the allowed set;
// a /v2 body must be whole frames whose first status byte agrees with
// the HTTP status, a /v1 error must be a JSON {"error": ...}, and the
// inflight gauge must be back at 0. Requests for the sne methods that
// search (aon) or enumerate (theorem6, greedy) are skipped: only lp and
// full keep the work per input small.
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
	} {
		f.Add(seed.route, seed.body)
	}

	const maxBody = 2048
	routes := [...]string{"/v1/check", "/v1/sne", "/v2/check", "/v2/sne"}
	s := New(Config{MaxBodyBytes: maxBody})
	h := s.Handler()
	f.Fuzz(func(t *testing.T, route uint8, body []byte) {
		path := routes[int(route)%len(routes)]
		v2 := strings.HasPrefix(path, "/v2/")
		if path == "/v1/sne" {
			var req sneRequest
			if json.NewDecoder(bytes.NewReader(body)).Decode(&req) == nil && !cheapMethod(req.Method) {
				t.Skip()
			}
		}
		if path == "/v2/sne" {
			var dec wire.ReqDecoder
			r := bytes.NewReader(body)
			for range maxPipelineFrames {
				payload, err := wire.ReadFrame(r, nil, maxBody)
				if err != nil {
					break
				}
				if _, method, err := dec.SNE(payload); err == nil && !cheapMethod(method) {
					t.Skip()
				}
			}
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

// cheapMethod reports whether an sne method is bounded by the instance
// size alone ("" is the lp default).
func cheapMethod(method string) bool {
	return method == "" || method == "lp" || method == "full"
}
