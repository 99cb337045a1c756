package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"netdesign/internal/broadcast"
	"netdesign/internal/graph"
	"netdesign/internal/instancefile"
	"netdesign/internal/serve/wire"
	"netdesign/internal/snd"
	"netdesign/internal/sne"
	"netdesign/internal/subsidy"
)

// ---- helpers ----

// instanceText serializes a game + target tree in the CLI text format.
func instanceText(t testing.TB, bg *broadcast.Game, tree []int) string {
	t.Helper()
	var buf bytes.Buffer
	if err := instancefile.Write(&buf, &instancefile.Instance{Game: bg, Tree: tree}); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// jitterFamily builds an E22-style nearby-instance stream: one base
// graph, each instance scaling every non-MST edge upward — the MST (and
// therefore the LP structure) provably never changes, so a
// warm server re-solves the whole stream from the previous basis.
func jitterFamily(t testing.TB, n, count int, seed int64, jitter float64) []string {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	base := graph.RandomConnected(rng, n, 0.3, 0.5, 3)
	mst, err := graph.MST(base)
	if err != nil {
		t.Fatal(err)
	}
	onTree := make([]bool, base.M())
	for _, id := range mst {
		onTree[id] = true
	}
	baseW := make([]float64, base.M())
	for id := 0; id < base.M(); id++ {
		baseW[id] = base.Weight(id)
	}
	out := make([]string, count)
	for k := 0; k < count; k++ {
		for id := 0; id < base.M(); id++ {
			if !onTree[id] {
				base.SetWeight(id, baseW[id]*(1+jitter*rng.Float64()))
			}
		}
		bg, err := broadcast.NewGame(base, 0)
		if err != nil {
			t.Fatal(err)
		}
		out[k] = instanceText(t, bg, mst)
	}
	return out
}

// parse round-trips an instance text the way the server does.
func parse(t testing.TB, text string) *instancefile.Instance {
	t.Helper()
	inst, err := instancefile.Read(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func newTestServer(t testing.TB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func post(t testing.TB, ts *httptest.Server, path string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

func decode[T any](t testing.TB, raw []byte) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatalf("decoding %s: %v", raw, err)
	}
	return v
}

const cycle5 = "nodes 5\nedge 0 1 1\nedge 1 2 1\nedge 2 3 1\nedge 3 4 1\nedge 4 0 1\nroot 0\n"

// ---- handler suite ----

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var b bytes.Buffer
	b.ReadFrom(resp.Body)
	if resp.StatusCode != 200 || strings.TrimSpace(b.String()) != "ok" {
		t.Fatalf("healthz: %d %q", resp.StatusCode, b.String())
	}
}

func TestCheckEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// The 5-cycle MST (a path) is NOT an equilibrium without subsidies:
	// the leaf prefers the closed cycle edge.
	resp, raw := post(t, ts, "/v1/check", map[string]any{"instance": cycle5})
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	got := decode[checkResponse](t, raw)
	inst := parse(t, cycle5)
	st, err := inst.State()
	if err != nil {
		t.Fatal(err)
	}
	wantEq := st.FindViolation(nil) == nil
	if got.Equilibrium != wantEq || got.Weight != st.Weight() {
		t.Fatalf("check response %+v; direct equilibrium=%v weight=%v", got, wantEq, st.Weight())
	}
	if !got.Equilibrium {
		v := st.FindViolation(nil)
		if got.Violation == nil || got.Violation.Node != v.Node || got.Violation.ViaEdge != v.ViaEdge {
			t.Fatalf("violation %+v, want %+v", got.Violation, v)
		}
	}
}

// ---- differential suite: server ≡ batch CLI solver paths, bit for bit ----

// sneDirect computes the reference result exactly the way cmd/sne does.
func sneDirect(t *testing.T, st *broadcast.State, method string) *sne.Result {
	t.Helper()
	var res *sne.Result
	var err error
	switch method {
	case "lp":
		res, err = sne.SolveBroadcastLP(st)
	case "theorem6":
		b, cert, serr := subsidy.Enforce(st)
		err = serr
		if serr == nil {
			res = &sne.Result{Subsidy: b, Cost: cert.Total}
		}
	case "aon":
		res, err = sne.SolveAON(st, sne.AONOptions{})
	case "greedy":
		res, err = sne.GreedyAON(st)
	case "full":
		res = sne.FullSubsidy(st)
	}
	if err != nil {
		t.Fatalf("direct %s: %v", method, err)
	}
	return res
}

// assertSNEBitIdentical holds a server response to the exact float64 bits
// of the direct solver result.
func assertSNEBitIdentical(t *testing.T, got sneResponse, st *broadcast.State, ref *sne.Result, label string) {
	t.Helper()
	if math.Float64bits(got.Cost) != math.Float64bits(ref.Cost) {
		t.Fatalf("%s: cost %x (%v) != direct %x (%v)", label,
			math.Float64bits(got.Cost), got.Cost, math.Float64bits(ref.Cost), ref.Cost)
	}
	want := map[int]float64{}
	for _, id := range st.Tree.EdgeIDs {
		if v := ref.Subsidy.At(id); v > 0 {
			want[id] = v
		}
	}
	if len(got.Subsidies) != len(want) {
		t.Fatalf("%s: %d subsidized edges, direct has %d", label, len(got.Subsidies), len(want))
	}
	for _, es := range got.Subsidies {
		if math.Float64bits(es.Subsidy) != math.Float64bits(want[es.Edge]) {
			t.Fatalf("%s: edge %d subsidy %v != direct %v", label, es.Edge, es.Subsidy, want[es.Edge])
		}
	}
}

// TestSNEDifferentialColdMatchesCLI: every trial is a new structure, so
// every lp solve runs cold, like the batch CLI, and the server must
// reproduce the cmd/sne solver paths bit for bit, across methods and
// instances.
func TestSNEDifferentialColdMatchesCLI(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	rng := rand.New(rand.NewSource(42))
	methods := []string{"lp", "theorem6", "aon", "greedy", "full"}
	for trial := 0; trial < 6; trial++ {
		n := 8 + rng.Intn(8)
		g := graph.RandomConnected(rng, n, 0.35, 0.5, 3)
		bg, err := broadcast.NewGame(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		mst, err := bg.MST()
		if err != nil {
			t.Fatal(err)
		}
		text := instanceText(t, bg, mst)
		inst := parse(t, text)
		for _, method := range methods {
			st, err := inst.State()
			if err != nil {
				t.Fatal(err)
			}
			resp, raw := post(t, ts, "/v1/sne", map[string]any{"instance": text, "method": method})
			if resp.StatusCode != 200 {
				t.Fatalf("trial %d %s: status %d: %s", trial, method, resp.StatusCode, raw)
			}
			got := decode[sneResponse](t, raw)
			if got.Warm {
				t.Fatalf("trial %d %s: new structure reported a warm solve", trial, method)
			}
			ref := sneDirect(t, st, method)
			assertSNEBitIdentical(t, got, st, ref, fmt.Sprintf("trial %d %s", trial, method))
		}
	}
}

// TestSNEDifferentialWarmMatchesChain: on a nearby-instance stream the
// served path must be bit-identical to driving a sne.BroadcastLPChain by
// hand — the server adds routing and pooling around the chain, never
// numerics. And the warm cost must agree
// with the cold optimum to LP tolerance (the warm start changes the
// pivot path, not the optimum).
func TestSNEDifferentialWarmMatchesChain(t *testing.T) {
	family := jitterFamily(t, 20, 8, 7, 0.2)
	_, ts := newTestServer(t, Config{})
	chain := sne.NewBroadcastLPChain()
	for k, text := range family {
		inst := parse(t, text)
		st, err := inst.State()
		if err != nil {
			t.Fatal(err)
		}
		ref, _, err := chain.SolveNearby(st) // the hand-driven warm reference
		if err != nil {
			t.Fatal(err)
		}
		resp, raw := post(t, ts, "/v1/sne", map[string]any{"instance": text})
		if resp.StatusCode != 200 {
			t.Fatalf("instance %d: status %d: %s", k, resp.StatusCode, raw)
		}
		got := decode[sneResponse](t, raw)
		if wantWarm := k > 0; got.Warm != wantWarm {
			t.Fatalf("instance %d: warm=%v, want %v", k, got.Warm, wantWarm)
		}
		st2, err := inst.State()
		if err != nil {
			t.Fatal(err)
		}
		assertSNEBitIdentical(t, got, st2, ref, fmt.Sprintf("warm instance %d", k))

		cold, err := sne.SolveBroadcastLP(st2)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got.Cost-cold.Cost) > 1e-9*(1+math.Abs(cold.Cost)) {
			t.Fatalf("instance %d: warm cost %v drifted from cold optimum %v", k, got.Cost, cold.Cost)
		}
	}
}

// TestSNDDifferentialMatchesCLI: the design endpoint must reproduce the
// cmd/snd decision procedure — heuristic with Theorem-6 fallback, exact
// enumeration on request, and the CLI's exact error text on infeasible
// budgets.
func TestSNDDifferentialMatchesCLI(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	inst := parse(t, cycle5)

	// Heuristic, feasible: matches snd.HeuristicAuto.
	ref, method, fellBack, err := snd.HeuristicAuto(inst.Game, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	resp, raw := post(t, ts, "/v1/snd", map[string]any{"instance": cycle5, "budget": 2.0})
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	got := decode[sndResponse](t, raw)
	if got.Method != method || got.FellBack != fellBack ||
		math.Float64bits(got.Weight) != math.Float64bits(ref.Weight) ||
		math.Float64bits(got.SubsidyCost) != math.Float64bits(ref.SubsidyCost) {
		t.Fatalf("snd heuristic: %+v != direct {%s %v %v %v}", got, method, fellBack, ref.Weight, ref.SubsidyCost)
	}

	// Exact: matches snd.SolveExact, tree included.
	refX, err := snd.SolveExact(inst.Game, 2.0, 100000)
	if err != nil {
		t.Fatal(err)
	}
	resp, raw = post(t, ts, "/v1/snd", map[string]any{"instance": cycle5, "budget": 2.0, "exact": true, "treelimit": 100000})
	if resp.StatusCode != 200 {
		t.Fatalf("exact status %d: %s", resp.StatusCode, raw)
	}
	gotX := decode[sndResponse](t, raw)
	if gotX.Method != snd.MethodExact ||
		math.Float64bits(gotX.Weight) != math.Float64bits(refX.Weight) ||
		math.Float64bits(gotX.SubsidyCost) != math.Float64bits(refX.SubsidyCost) ||
		len(gotX.Tree) != len(refX.Tree) {
		t.Fatalf("snd exact: %+v != direct %+v", gotX, refX)
	}

	// Infeasible: the CLI surfaces the sentinel's text; so must we.
	resp, raw = post(t, ts, "/v1/snd", map[string]any{"instance": cycle5, "budget": 1.0})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("infeasible status %d: %s", resp.StatusCode, raw)
	}
	e := decode[map[string]string](t, raw)
	if e["error"] != snd.ErrBudgetInfeasible.Error() {
		t.Fatalf("infeasible error %q, want %q", e["error"], snd.ErrBudgetInfeasible)
	}
}

// TestSNDTreeLimitCap: a tree limit outside [0, maxTreeLimit] gets a 422
// naming the cap on /v1 and /v2, before any enumeration starts. Three
// requests: cycle5 at 10^6 (5 trees, so an uncapped server answers it
// with 200, which is what a missing cap shows as), the unlimited −1 and
// K12 at 10^9. K12 has 12^10 spanning trees; an admitted K12 request
// would not return, since exact SND holds every tree in memory.
func TestSNDTreeLimitCap(t *testing.T) {
	var k12 strings.Builder
	k12.WriteString("nodes 12\n")
	for u := 0; u < 12; u++ {
		for v := u + 1; v < 12; v++ {
			fmt.Fprintf(&k12, "edge %d %d %d\n", u, v, 1+(u+v)%4)
		}
	}
	k12.WriteString("root 0\n")
	_, tsJSON := newTestServer(t, Config{})
	_, tsBin := newTestServer(t, Config{})
	limitCap := strconv.Itoa(maxTreeLimit)
	for _, c := range []struct {
		name, inst string
		limit      int
	}{
		{"cycle5 past the cap", cycle5, 1000000},
		{"K12 unlimited", k12.String(), -1},
		{"K12", k12.String(), 1000000000},
	} {
		resp, raw := post(t, tsJSON, "/v1/snd", map[string]any{"instance": c.inst, "budget": 1.0, "exact": true, "treelimit": c.limit})
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("/v1 %s: status %d: %s", c.name, resp.StatusCode, raw)
		}
		if e := decode[map[string]string](t, raw); !strings.Contains(e["error"], limitCap) {
			t.Fatalf("/v1 %s: error %q does not name the cap %s", c.name, e["error"], limitCap)
		}
		code, status, _, msg := postBin(t, tsBin, "/v2/snd", wire.AppendSNDRequest(nil, parse(t, c.inst), 1.0, true, c.limit))
		if code != http.StatusUnprocessableEntity || status != wire.StatusUnprocessable {
			t.Fatalf("/v2 %s: %d/%d %q", c.name, code, status, msg)
		}
		if !strings.Contains(msg, limitCap) {
			t.Fatalf("/v2 %s: error %q does not name the cap %s", c.name, msg, limitCap)
		}
	}
}

// TestPoSDifferentialMatchesEstimator: same seed, same estimate, bit for
// bit.
func TestPoSDifferentialMatchesEstimator(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	family := jitterFamily(t, 16, 1, 3, 0.1)
	inst := parse(t, family[0])
	ref, err := broadcast.EstimatePoS(inst.Game, nil, 4, 0, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	resp, raw := post(t, ts, "/v1/pos", map[string]any{"instance": family[0], "starts": 4, "seed": 9})
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	got := decode[posResponse](t, raw)
	if got.Converged != ref.Converged || got.Starts != ref.Starts || got.Steps != ref.Steps ||
		math.Float64bits(got.OptWeight) != math.Float64bits(ref.OptWeight) {
		t.Fatalf("pos %+v != direct %+v", got, ref)
	}
	if ref.Converged > 0 && math.Float64bits(got.BestEq) != math.Float64bits(ref.BestEq) {
		t.Fatalf("pos bestEq %v != %v", got.BestEq, ref.BestEq)
	}
}

// ---- rejection cases ----

func TestRejectionCases(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 2048})
	cases := []struct {
		name string
		do   func() (*http.Response, []byte)
		want int
	}{
		{"GET on API", func() (*http.Response, []byte) {
			resp, err := http.Get(ts.URL + "/v1/sne")
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			return resp, nil
		}, http.StatusMethodNotAllowed},
		{"bad JSON", func() (*http.Response, []byte) {
			resp, err := http.Post(ts.URL+"/v1/sne", "application/json", strings.NewReader("{nope"))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			return resp, nil
		}, http.StatusBadRequest},
		{"unknown field", func() (*http.Response, []byte) {
			r, b := post(t, ts, "/v1/sne", map[string]any{"instance": cycle5, "bogus": 1})
			return r, b
		}, http.StatusBadRequest},
		{"missing instance", func() (*http.Response, []byte) {
			r, b := post(t, ts, "/v1/sne", map[string]any{"method": "lp"})
			return r, b
		}, http.StatusBadRequest},
		{"malformed instance", func() (*http.Response, []byte) {
			r, b := post(t, ts, "/v1/sne", map[string]any{"instance": "nodes 3\nedge 0 9 1\nroot 0\n"})
			return r, b
		}, http.StatusUnprocessableEntity},
		{"unknown method", func() (*http.Response, []byte) {
			r, b := post(t, ts, "/v1/sne", map[string]any{"instance": cycle5, "method": "sorcery"})
			return r, b
		}, http.StatusBadRequest},
		{"oversized body", func() (*http.Response, []byte) {
			big := cycle5 + "# " + strings.Repeat("x", 4096) + "\n"
			r, b := post(t, ts, "/v1/sne", map[string]any{"instance": big})
			return r, b
		}, http.StatusRequestEntityTooLarge},
	}
	for _, c := range cases {
		resp, body := c.do()
		if resp.StatusCode != c.want {
			t.Errorf("%s: status %d, want %d (body %s)", c.name, resp.StatusCode, c.want, body)
		}
	}
}

// blockingServer returns a test server whose solves, while *slow is set,
// block until their request context has expired, so no wall-clock race
// decides whether a request times out. The budget only has to cover the
// requests that do not time out: the timed-out ones wait for the
// deadline, not for a clock.
func blockingServer(t *testing.T) (*Server, *httptest.Server, *atomic.Bool) {
	t.Helper()
	s, ts := newTestServer(t, Config{Timeout: 250 * time.Millisecond})
	slow := new(atomic.Bool)
	s.preSolve = func(ctx context.Context) {
		if slow.Load() {
			<-ctx.Done()
		}
	}
	return s, ts, slow
}

// TestTimeoutRejection: a /v1 solve that returns past the request's
// deadline is answered 503 with a JSON "request timed out" error and
// counted as an endpoint error, while the server stays healthy.
// TestBinaryTimeout holds /v2 to the same contract.
func TestTimeoutRejection(t *testing.T) {
	s, ts, slow := blockingServer(t)
	for _, timedOut := range []bool{true, false} {
		slow.Store(timedOut)
		wantCode := http.StatusOK
		if timedOut {
			wantCode = http.StatusServiceUnavailable
		}
		resp, raw := post(t, ts, "/v1/sne", map[string]any{"instance": cycle5})
		if resp.StatusCode != wantCode {
			t.Fatalf("timedOut=%v: status %d, want %d (body %s)", timedOut, resp.StatusCode, wantCode, raw)
		}
		if timedOut {
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Errorf("timeout Content-Type %q", ct)
			}
			if e := decode[map[string]string](t, raw); e["error"] != "request timed out" {
				t.Fatalf("timeout body %s", raw)
			}
		}
	}
	if got := s.met.errs[epSNE].Load(); got != 1 {
		t.Errorf("%s: %d errors counted, want the 1 timeout", endpointNames[epSNE], got)
	}
}

// ---- metrics ----

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	family := jitterFamily(t, 16, 4, 5, 0.15)
	for _, text := range family {
		if resp, raw := post(t, ts, "/v1/sne", map[string]any{"instance": text}); resp.StatusCode != 200 {
			t.Fatalf("status %d: %s", resp.StatusCode, raw)
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
		`sned_requests_total{endpoint="sne"} 4`,
		"sned_basis_cache_hits_total 3",
		"sned_basis_cache_misses_total 1",
		"sned_basis_cache_hit_rate 0.75",
		`sned_solves_total{mode="warm"} 3`,
		`sned_solves_total{mode="cold"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
	if !strings.Contains(text, `sned_latency_seconds{endpoint="sne",quantile="0.99"}`) {
		t.Errorf("metrics missing p99 line:\n%s", text)
	}
}

// ---- concurrency ----

// TestConcurrentChainStress hammers one server with parallel clients over
// a jitter family (one structure) mixed with singleton structures, so
// the pooled chains flip between patching and rebuilding, asserting
// every answer equals the cold optimum of its instance. Run under -race
// this is the data-race gate for the chain stack, the metrics ledger and
// the chains themselves.
func TestConcurrentChainStress(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	family := jitterFamily(t, 14, 6, 11, 0.25)
	singles := jitterFamily(t, 10, 3, 13, 0.25)
	texts := append(append([]string{}, family...), singles...)

	// Cold reference optimum per instance.
	refCost := make([]float64, len(texts))
	for i, text := range texts {
		st, err := parse(t, text).State()
		if err != nil {
			t.Fatal(err)
		}
		res, err := sne.SolveBroadcastLP(st)
		if err != nil {
			t.Fatal(err)
		}
		refCost[i] = res.Cost
	}

	const clients = 8
	const perClient = 12
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + c)))
			for i := 0; i < perClient; i++ {
				k := rng.Intn(len(texts))
				resp, raw := post(t, ts, "/v1/sne", map[string]any{"instance": texts[k]})
				if resp.StatusCode != 200 {
					errCh <- fmt.Errorf("client %d: status %d: %s", c, resp.StatusCode, raw)
					return
				}
				got := decode[sneResponse](t, raw)
				if math.Abs(got.Cost-refCost[k]) > 1e-9*(1+math.Abs(refCost[k])) {
					errCh <- fmt.Errorf("client %d instance %d: cost %v != cold %v", c, k, got.Cost, refCost[k])
					return
				}
			}
			errCh <- nil
		}(c)
	}
	wg.Wait()
	for c := 0; c < clients; c++ {
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
	}
}

// TestShapeCollisionSolvesCold posts two instances whose LP (3) models
// have the same shape — equal n, equal row count, so equal
// lp.Model.StructureFingerprint — but different structure: the second
// relabels every non-root node of the first. The second answer must not
// warm-start from the first's basis: it reports Warm=false, is
// bit-identical to the cold sne.SolveBroadcastLP, and counts as a miss.
func TestShapeCollisionSolvesCold(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	a := parse(t, jitterFamily(t, 12, 1, 29, 0.2)[0])
	n := a.Game.G.N()
	g := graph.New(n)
	relabel := func(v int) int {
		if v == 0 {
			return 0
		}
		return n - v
	}
	for _, e := range a.Game.G.Edges() {
		g.AddEdge(relabel(e.U), relabel(e.V), e.W)
	}
	bg, err := broadcast.NewGame(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	texts := []string{instanceText(t, a.Game, a.Tree), instanceText(t, bg, a.Tree)}
	var sts [2]*broadcast.State
	for i, text := range texts {
		if sts[i], err = parse(t, text).State(); err != nil {
			t.Fatal(err)
		}
	}
	if sne.NewBroadcastLPChain().Prepare(sts[0]) != sne.NewBroadcastLPChain().Prepare(sts[1]) {
		t.Fatal("the relabeled instance changed the shape fingerprint")
	}
	var got sneResponse
	for i, text := range texts {
		resp, raw := post(t, ts, "/v1/sne", map[string]any{"instance": text})
		if resp.StatusCode != 200 {
			t.Fatalf("instance %d: status %d: %s", i, resp.StatusCode, raw)
		}
		got = decode[sneResponse](t, raw)
	}
	if got.Warm {
		t.Fatal("a different structure of equal shape was solved warm")
	}
	ref, err := sne.SolveBroadcastLP(sts[1])
	if err != nil {
		t.Fatal(err)
	}
	assertSNEBitIdentical(t, got, sts[1], ref, "relabeled instance")
	if got.Pivots != ref.Pivots {
		t.Fatalf("pivots %d, cold solve %d", got.Pivots, ref.Pivots)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var b bytes.Buffer
	b.ReadFrom(resp.Body)
	for _, want := range []string{"sned_basis_cache_hits_total 0\n", "sned_basis_cache_misses_total 2\n"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}
