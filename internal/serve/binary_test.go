package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"netdesign/internal/serve/wire"
)

// postBin sends one binary frame and returns the HTTP code plus the
// decoded response frame: status byte, OK body, error message.
func postBin(t testing.TB, ts *httptest.Server, path string, payload []byte) (int, byte, []byte, string) {
	t.Helper()
	frame := wire.AppendFrame(nil, payload)
	resp, err := http.Post(ts.URL+path, "application/octet-stream", bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if len(raw) < 4 {
		t.Fatalf("%s: response %d bytes, no frame header", path, len(raw))
	}
	n := binary.LittleEndian.Uint32(raw)
	if int(n) != len(raw)-4 {
		t.Fatalf("%s: frame length %d, body %d", path, n, len(raw)-4)
	}
	status, body, msg, err := wire.DecodeStatus(raw[4:])
	if err != nil {
		t.Fatalf("%s: response status decode: %v", path, err)
	}
	return resp.StatusCode, status, body, msg
}

// binStatusOf is the status byte the first response frame of a /v2
// answer with HTTP status code carries.
func binStatusOf(code int) byte {
	if code == http.StatusOK {
		return wire.StatusOK
	}
	return binStatus(code)
}

// jsonBytes marshals v the way writeJSON renders a /v1 response body, so
// a /v2-decoded struct can be held byte-for-byte against the /v1 wire
// bytes — the strongest form of the bit-identity contract (float bits
// included, since Go's JSON float encoding is deterministic in the
// bits).
func jsonBytes(t testing.TB, v any) []byte {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestBinaryDifferentialMatrix holds every /v2 endpoint bit-identical to
// its /v1 twin across the full method matrix. Each protocol has its own
// fresh server, so both see the same request sequence from identical
// state: a shared one would serve /v2 warm off the chain /v1 just left.
func TestBinaryDifferentialMatrix(t *testing.T) {
	_, tsJSON := newTestServer(t, Config{})
	_, tsBin := newTestServer(t, Config{})
	rng := rand.New(rand.NewSource(31))
	texts := []string{cycle5}
	for trial := 0; trial < 3; trial++ {
		texts = append(texts, jitterFamily(t, 10+rng.Intn(8), 1, rng.Int63(), 0.2)[0])
	}

	for k, text := range texts {
		inst := parse(t, text)

		// check
		_, rawV1 := post(t, tsJSON, "/v1/check", map[string]any{"instance": text})
		code, status, body, msg := postBin(t, tsBin, "/v2/check", wire.AppendCheckRequest(nil, inst))
		if code != 200 || status != wire.StatusOK {
			t.Fatalf("instance %d check: %d/%d %q", k, code, status, msg)
		}
		var cr checkResponse
		if err := wire.DecodeCheckResponse(body, &cr); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(jsonBytes(t, cr), bytes.TrimSpace(rawV1)) {
			t.Fatalf("instance %d check drifted:\n v1 %s\n v2 %s", k, bytes.TrimSpace(rawV1), jsonBytes(t, cr))
		}

		// sne, all five methods
		for method := byte(0); method < 5; method++ {
			name, _ := wire.MethodName(method)
			_, rawV1 := post(t, tsJSON, "/v1/sne", map[string]any{"instance": text, "method": name})
			code, status, body, msg := postBin(t, tsBin, "/v2/sne", wire.AppendSNERequest(nil, inst, method))
			if code != 200 || status != wire.StatusOK {
				t.Fatalf("instance %d sne %s: %d/%d %q", k, name, code, status, msg)
			}
			var sr sneResponse
			if err := wire.DecodeSNEResponse(body, &sr); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(jsonBytes(t, sr), bytes.TrimSpace(rawV1)) {
				t.Fatalf("instance %d sne %s drifted:\n v1 %s\n v2 %s", k, name, bytes.TrimSpace(rawV1), jsonBytes(t, sr))
			}
		}

		// pos, seeded
		_, rawV1 = post(t, tsJSON, "/v1/pos", map[string]any{"instance": text, "starts": 3, "seed": 17})
		code, status, body, msg = postBin(t, tsBin, "/v2/pos", wire.AppendPoSRequest(nil, inst, 3, 0, 17))
		if code != 200 || status != wire.StatusOK {
			t.Fatalf("instance %d pos: %d/%d %q", k, code, status, msg)
		}
		var pr posResponse
		if err := wire.DecodePoSResponse(body, &pr); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(jsonBytes(t, pr), bytes.TrimSpace(rawV1)) {
			t.Fatalf("instance %d pos drifted:\n v1 %s\n v2 %s", k, bytes.TrimSpace(rawV1), jsonBytes(t, pr))
		}
	}

	// snd: heuristic, exact, and the infeasible-budget error text.
	inst := parse(t, cycle5)
	for _, c := range []struct {
		name   string
		budget float64
		exact  bool
		limit  int
	}{
		{"heuristic", 2.0, false, 0},
		{"exact", 2.0, true, 100000},
	} {
		_, rawV1 := post(t, tsJSON, "/v1/snd", map[string]any{"instance": cycle5, "budget": c.budget, "exact": c.exact, "treelimit": c.limit})
		code, status, body, msg := postBin(t, tsBin, "/v2/snd", wire.AppendSNDRequest(nil, inst, c.budget, c.exact, c.limit))
		if code != 200 || status != wire.StatusOK {
			t.Fatalf("snd %s: %d/%d %q", c.name, code, status, msg)
		}
		var nr sndResponse
		if err := wire.DecodeSNDResponse(body, &nr); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(jsonBytes(t, nr), bytes.TrimSpace(rawV1)) {
			t.Fatalf("snd %s drifted:\n v1 %s\n v2 %s", c.name, bytes.TrimSpace(rawV1), jsonBytes(t, nr))
		}
	}
	_, rawV1 := post(t, tsJSON, "/v1/snd", map[string]any{"instance": cycle5, "budget": 1.0})
	code, status, _, msg := postBin(t, tsBin, "/v2/snd", wire.AppendSNDRequest(nil, inst, 1.0, false, 0))
	if code != http.StatusUnprocessableEntity || status != wire.StatusUnprocessable {
		t.Fatalf("snd infeasible: %d/%d", code, status)
	}
	e := decode[map[string]string](t, rawV1)
	if msg != e["error"] {
		t.Fatalf("snd infeasible error drifted: v1 %q, v2 %q", e["error"], msg)
	}
}

// TestBinaryDifferentialWarm replays the same jitter stream against two
// identically configured servers — one per protocol — so their chains
// evolve identically, and holds response k of the binary server
// byte-identical (as JSON) to response k of the JSON server, warm flags
// and pivot counts included.
func TestBinaryDifferentialWarm(t *testing.T) {
	family := jitterFamily(t, 18, 6, 23, 0.2)
	_, tsJSON := newTestServer(t, Config{})
	_, tsBin := newTestServer(t, Config{})
	for k, text := range family {
		inst := parse(t, text)
		_, rawV1 := post(t, tsJSON, "/v1/sne", map[string]any{"instance": text})
		code, status, body, msg := postBin(t, tsBin, "/v2/sne", wire.AppendSNERequest(nil, inst, wire.MethodLP))
		if code != 200 || status != wire.StatusOK {
			t.Fatalf("instance %d: %d/%d %q", k, code, status, msg)
		}
		var sr sneResponse
		if err := wire.DecodeSNEResponse(body, &sr); err != nil {
			t.Fatal(err)
		}
		if wantWarm := k > 0; sr.Warm != wantWarm {
			t.Fatalf("instance %d: warm=%v, want %v", k, sr.Warm, wantWarm)
		}
		if !bytes.Equal(jsonBytes(t, sr), bytes.TrimSpace(rawV1)) {
			t.Fatalf("instance %d drifted:\n v1 %s\n v2 %s", k, bytes.TrimSpace(rawV1), jsonBytes(t, sr))
		}
	}
}

// TestBinaryRejections exercises the /v2 failure paths: each must answer
// a well-formed error frame with the right HTTP and wire status.
func TestBinaryRejections(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 2048})
	inst := parse(t, cycle5)
	good := wire.AppendSNERequest(nil, inst, wire.MethodLP)

	cases := []struct {
		name       string
		payload    []byte
		wantHTTP   int
		wantStatus byte
	}{
		{"bad version", append([]byte{42}, good[1:]...), http.StatusBadRequest, wire.StatusBadRequest},
		{"unknown method code", append([]byte{wire.Version, 99}, good[2:]...), http.StatusBadRequest, wire.StatusBadRequest},
		{"truncated", good[:len(good)/2], http.StatusBadRequest, wire.StatusBadRequest},
		{"trailing bytes", append(append([]byte{}, good...), 0xFF), http.StatusBadRequest, wire.StatusBadRequest},
		{"empty payload", nil, http.StatusBadRequest, wire.StatusBadRequest},
		{"oversized frame", make([]byte, 4096), http.StatusRequestEntityTooLarge, wire.StatusTooLarge},
	}
	for _, c := range cases {
		code, status, _, msg := postBin(t, ts, "/v2/sne", c.payload)
		if code != c.wantHTTP || status != c.wantStatus {
			t.Errorf("%s: %d/%d %q, want %d/%d", c.name, code, status, msg, c.wantHTTP, c.wantStatus)
		}
	}

	// GET is rejected with a StatusBadRequest frame too.
	resp, err := http.Get(ts.URL + "/v2/sne")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var get bytes.Buffer
	get.ReadFrom(resp.Body)
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET: status %d, want 405", resp.StatusCode)
	}
	if frames := splitFrames(t, get.Bytes()); len(frames) != 1 || len(frames[0]) < 5 || frames[0][4] != wire.StatusBadRequest {
		t.Errorf("GET: body %v, want one StatusBadRequest frame", get.Bytes())
	}

	// A length prefix past the cap is refused without reading the body.
	hdr := binary.LittleEndian.AppendUint32(nil, 1<<30)
	resp2, err := http.Post(ts.URL+"/v2/sne", "application/octet-stream", bytes.NewReader(hdr))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("lying prefix: status %d, want 413", resp2.StatusCode)
	}
}

// TestBinaryTimeout: a /v2 solve that returns past the request's
// deadline is answered 503 with a StatusUnavailable "request timed out"
// frame and counted as an endpoint error, while the server stays healthy.
func TestBinaryTimeout(t *testing.T) {
	s, ts, slow := blockingServer(t)
	payload := wire.AppendSNERequest(nil, parse(t, cycle5), wire.MethodLP)
	for _, timedOut := range []bool{true, false} {
		slow.Store(timedOut)
		wantCode := http.StatusOK
		if timedOut {
			wantCode = http.StatusServiceUnavailable
		}
		code, status, _, msg := postBin(t, ts, "/v2/sne", payload)
		if code != wantCode || status != binStatusOf(code) {
			t.Fatalf("timedOut=%v: %d/%d %q, want HTTP %d", timedOut, code, status, msg, wantCode)
		}
		if timedOut && msg != "request timed out" {
			t.Fatalf("timeout message %q", msg)
		}
	}
	if got := s.met.errs[epSNEV2].Load(); got != 1 {
		t.Errorf("%s: %d errors counted, want the 1 timeout", endpointNames[epSNEV2], got)
	}
}

// TestMetricsV2AndRuntime: /v2 traffic lands on its own endpoint labels,
// endpoints with traffic export full cumulative histograms, and the
// runtime gauges are present.
func TestMetricsV2AndRuntime(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	inst := parse(t, cycle5)
	for i := 0; i < 3; i++ {
		if code, status, _, msg := postBin(t, ts, "/v2/sne", wire.AppendSNERequest(nil, inst, wire.MethodLP)); code != 200 {
			t.Fatalf("request %d: %d/%d %q", i, code, status, msg)
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var b bytes.Buffer
	b.ReadFrom(resp.Body)
	text := b.String()
	for _, want := range []string{
		`sned_requests_total{endpoint="sne_v2"} 3`,
		`sned_errors_total{endpoint="sne_v2"} 0`,
		`sned_latency_seconds_bucket{endpoint="sne_v2",le="+Inf"} 3`,
		`sned_latency_seconds_count{endpoint="sne_v2"} 3`,
		"sned_goroutines ",
		"sned_gc_runs_total ",
		"sned_gc_pause_seconds_total ",
		"sned_heap_alloc_bytes ",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
	// Idle endpoints export no bucket rows — the scrape stays compact.
	if strings.Contains(text, `sned_latency_seconds_bucket{endpoint="pos"`) {
		t.Error("idle endpoint exported histogram buckets")
	}
}

// TestMetricsZeroTraffic: a freshly started server must scrape cleanly —
// in particular the basis hit rate is 0, not NaN, with zero lp solves.
func TestMetricsZeroTraffic(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var b bytes.Buffer
	b.ReadFrom(resp.Body)
	text := b.String()
	if !strings.Contains(text, "sned_basis_cache_hit_rate 0\n") {
		t.Errorf("zero-traffic hit rate not 0:\n%s", text)
	}
	if strings.Contains(text, "NaN") {
		t.Errorf("zero-traffic scrape contains NaN:\n%s", text)
	}
}

// TestBinaryCycleAllocs pins the allocation budget of the warm binary
// request cycle — decode, warm solve, encode — the unit the /v2
// protocol exists to shrink. The /v1 path costs thousands of allocations
// per request (text parse + encoding/json); the pin holds the binary
// cycle two orders of magnitude below that.
func TestBinaryCycleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins are meaningless under the race detector")
	}
	s := New(Config{})
	family := jitterFamily(t, 16, 1, 13, 0.15)
	inst := parse(t, family[0])
	payload := wire.AppendSNERequest(nil, inst, wire.MethodLP)
	ws := s.ws.Get().(*workspace)
	ctx := context.Background()
	for i := 0; i < 3; i++ { // warm the chain and every scratch buffer
		ws.out = ws.out[:0]
		if code := s.binCycle(ctx, epSNEV2, payload, ws); code != 200 {
			t.Fatalf("warmup cycle: %d", code)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		ws.out = ws.out[:0]
		if code := s.binCycle(ctx, epSNEV2, payload, ws); code != 200 {
			t.Fatalf("cycle: %d", code)
		}
	})
	const budget = 400
	if allocs > budget {
		t.Errorf("warm binary cycle: %.0f allocs/run, budget %d", allocs, budget)
	}
	t.Logf("warm binary cycle: %.0f allocs/run", allocs)
}

// postBinRaw posts a pre-framed body and returns the HTTP code plus the
// raw response body (which may hold several frames when pipelined).
func postBinRaw(t testing.TB, ts *httptest.Server, path string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes()
}

// splitFrames cuts a response body into complete frames (length prefix
// included), failing on any torn framing.
func splitFrames(t testing.TB, raw []byte) [][]byte {
	t.Helper()
	var frames [][]byte
	for off := 0; off < len(raw); {
		if len(raw)-off < 4 {
			t.Fatalf("torn frame header at offset %d of %d", off, len(raw))
		}
		n := int(binary.LittleEndian.Uint32(raw[off:]))
		if off+4+n > len(raw) {
			t.Fatalf("frame at %d promises %d bytes, body has %d left", off, n, len(raw)-off-4)
		}
		frames = append(frames, raw[off:off+4+n])
		off += 4 + n
	}
	return frames
}

// TestBinaryPipelined pins the pipelining contract: a body carrying
// several frames is answered frame for frame, byte-identical to sending
// the same stream as separate requests (twin servers, so chain state
// evolves identically), and a malformed frame mid-stream answers its
// own error frame without derailing the frames after it.
func TestBinaryPipelined(t *testing.T) {
	_, one := newTestServer(t, Config{})
	_, batch := newTestServer(t, Config{})
	family := jitterFamily(t, 14, 3, 7, 0.2)
	var order [][]byte
	for _, text := range family {
		order = append(order, wire.AppendSNERequest(nil, parse(t, text), wire.MethodLP))
	}
	// Splice a wrong-version frame between the warm-family requests.
	order = []([]byte){order[0], order[1], {42}, order[2]}

	var want [][]byte
	var body []byte
	for _, payload := range order {
		_, raw := postBinRaw(t, one, "/v2/sne", wire.AppendFrame(nil, payload))
		want = append(want, raw)
		body = wire.AppendFrame(body, payload)
	}
	code, raw := postBinRaw(t, batch, "/v2/sne", body)
	if code != http.StatusOK {
		t.Fatalf("pipelined POST: HTTP %d (first frame is valid, want 200)", code)
	}
	got := splitFrames(t, raw)
	if len(got) != len(order) {
		t.Fatalf("%d response frames for %d request frames", len(got), len(order))
	}
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("frame %d drifted from its single-request twin:\n one   %x\n batch %x", i, want[i], got[i])
		}
	}
}

// TestBinaryPipelinedTruncatedTail: a torn frame after a complete one
// answers the complete frame plus one terminal error frame.
func TestBinaryPipelinedTruncatedTail(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	inst := parse(t, cycle5)
	body := wire.AppendFrame(nil, wire.AppendSNERequest(nil, inst, wire.MethodLP))
	body = append(body, 9, 0, 0, 0, 1, 2) // header promises 9 payload bytes, delivers 2
	code, raw := postBinRaw(t, ts, "/v2/sne", body)
	if code != http.StatusOK {
		t.Fatalf("HTTP %d, want 200 (first frame valid)", code)
	}
	frames := splitFrames(t, raw)
	if len(frames) != 2 {
		t.Fatalf("%d response frames, want 2 (answer + terminal error)", len(frames))
	}
	st, _, _, err := wire.DecodeStatus(frames[0][4:])
	if err != nil || st != wire.StatusOK {
		t.Fatalf("first frame status %d err %v, want OK", st, err)
	}
	st, _, msg, err := wire.DecodeStatus(frames[1][4:])
	if err != nil || st != wire.StatusBadRequest {
		t.Fatalf("terminal frame status %d %q err %v, want BadRequest", st, msg, err)
	}
}

// TestBinaryPipelineFrameCap: a body over the frame cap is answered up
// to the cap plus one terminal too-large frame.
func TestBinaryPipelineFrameCap(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	payload := wire.AppendCheckRequest(nil, parse(t, cycle5))
	var body []byte
	for i := 0; i < maxPipelineFrames+2; i++ {
		body = wire.AppendFrame(body, payload)
	}
	code, raw := postBinRaw(t, ts, "/v2/check", body)
	if code != http.StatusOK {
		t.Fatalf("HTTP %d, want 200", code)
	}
	frames := splitFrames(t, raw)
	if len(frames) != maxPipelineFrames+1 {
		t.Fatalf("%d response frames, want %d answered + 1 terminal", len(frames), maxPipelineFrames)
	}
	st, _, msg, err := wire.DecodeStatus(frames[len(frames)-1][4:])
	if err != nil || st != wire.StatusTooLarge {
		t.Fatalf("terminal frame status %d %q err %v, want TooLarge", st, msg, err)
	}
}
