// Top-level benchmark harness: one benchmark per reproduced paper
// artifact (experiments E1–E21; see DESIGN.md §4 and EXPERIMENTS.md) plus
// micro-benchmarks for the substrates they exercise. Run with
//
//	go test -bench=. -benchmem
//
// scripts/bench.sh runs the quick substrate suite and records a
// BENCH_<date>.json snapshot for cross-PR trajectory comparison.
package netdesign_test

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"netdesign/internal/broadcast"
	"netdesign/internal/experiments"
	"netdesign/internal/gadgets"
	"netdesign/internal/game"
	"netdesign/internal/graph"
	"netdesign/internal/instancefile"
	"netdesign/internal/loadgen"
	"netdesign/internal/multicast"
	"netdesign/internal/reductions"
	"netdesign/internal/serve"
	"netdesign/internal/serve/wire"
	"netdesign/internal/sne"
	"netdesign/internal/subsidy"
	"netdesign/internal/sweep"
	"netdesign/internal/weighted"
)

// quickCfg keeps experiment benchmarks at quick-sweep sizes.
var quickCfg = experiments.Config{Seed: 1, Quick: true}

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := experiments.Get(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(quickCfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- one benchmark per paper artifact ---

func BenchmarkE1_SNELPFormulations(b *testing.B) { benchExperiment(b, "E1") }
func BenchmarkE2_BypassGadget(b *testing.B)      { benchExperiment(b, "E2") }
func BenchmarkE3_BinPackReduction(b *testing.B)  { benchExperiment(b, "E3") }
func BenchmarkE4_ISReduction(b *testing.B)       { benchExperiment(b, "E4") }
func BenchmarkE5_Theorem6(b *testing.B)          { benchExperiment(b, "E5") }
func BenchmarkE5b_Figure4(b *testing.B)          { benchExperiment(b, "E5b") }
func BenchmarkE6_CycleLowerBound(b *testing.B)   { benchExperiment(b, "E6") }
func BenchmarkE7_SATReduction(b *testing.B)      { benchExperiment(b, "E7") }
func BenchmarkE8_AONLowerBound(b *testing.B)     { benchExperiment(b, "E8") }
func BenchmarkE9_PriceOfStability(b *testing.B)  { benchExperiment(b, "E9") }
func BenchmarkE10_IntegralityGap(b *testing.B)   { benchExperiment(b, "E10") }
func BenchmarkE11_WaterFill(b *testing.B)        { benchExperiment(b, "E11") }
func BenchmarkE12_AONConjecture(b *testing.B)    { benchExperiment(b, "E12") }
func BenchmarkE13_Coalitions(b *testing.B)       { benchExperiment(b, "E13") }
func BenchmarkE14_ApproxTradeoff(b *testing.B)   { benchExperiment(b, "E14") }
func BenchmarkE15_Multicast(b *testing.B)        { benchExperiment(b, "E15") }
func BenchmarkE16_Weighted(b *testing.B)         { benchExperiment(b, "E16") }

func BenchmarkFullSuite(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.RunAll(quickCfg, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFullSuiteParallel runs the same registry fanned out over the
// worker pool (one worker per CPU) — the cmd/experiments -parallel path.
func BenchmarkFullSuiteParallel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.RunAllParallel(quickCfg, io.Discard, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// --- substrate micro-benchmarks ---

func randomState(b *testing.B, n int) *broadcast.State {
	b.Helper()
	rng := rand.New(rand.NewSource(9))
	g := graph.RandomConnected(rng, n, 0.1, 0.5, 3)
	bg, err := broadcast.NewGame(g, 0)
	if err != nil {
		b.Fatal(err)
	}
	mst, err := graph.MST(g)
	if err != nil {
		b.Fatal(err)
	}
	st, err := broadcast.NewState(bg, mst)
	if err != nil {
		b.Fatal(err)
	}
	return st
}

// benchGraph returns a random connected graph with m ≈ n(n−1)p/2 extra
// edges; p shrinks with n so the large-n variants stay sparse (m = Θ(n)).
func benchGraph(n int, p float64) *graph.Graph {
	rng := rand.New(rand.NewSource(3))
	return graph.RandomConnected(rng, n, p, 0.5, 3)
}

func benchMSTKruskal(b *testing.B, n int, p float64) {
	b.Helper()
	g := benchGraph(n, p)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := graph.MST(g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMSTKruskal400(b *testing.B)  { benchMSTKruskal(b, 400, 0.05) }
func BenchmarkMSTKruskal2000(b *testing.B) { benchMSTKruskal(b, 2000, 0.01) }
func BenchmarkMSTKruskal5000(b *testing.B) { benchMSTKruskal(b, 5000, 0.004) }

func benchDijkstra(b *testing.B, n int, p float64) {
	b.Helper()
	g := benchGraph(n, p)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		graph.Dijkstra(g, 0, nil)
	}
}

func BenchmarkDijkstra400(b *testing.B)  { benchDijkstra(b, 400, 0.05) }
func BenchmarkDijkstra2000(b *testing.B) { benchDijkstra(b, 2000, 0.01) }
func BenchmarkDijkstra5000(b *testing.B) { benchDijkstra(b, 5000, 0.004) }

// BenchmarkDijkstraScratch400 is the steady-state sweep shape: frozen
// CSR + reused workspace. Must report 0 allocs/op.
func BenchmarkDijkstraScratch400(b *testing.B) {
	g := benchGraph(400, 0.05)
	c := g.Freeze()
	var s graph.Scratch
	s.Dijkstra(c, 0, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Dijkstra(c, 0, nil)
	}
}

func benchEquilibriumCheck(b *testing.B, n int) {
	b.Helper()
	st := randomState(b, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.IsEquilibrium(nil)
	}
}

func BenchmarkEquilibriumCheck200(b *testing.B)  { benchEquilibriumCheck(b, 200) }
func BenchmarkEquilibriumCheck2000(b *testing.B) { benchEquilibriumCheck(b, 2000) }

// BenchmarkLCA400 isolates the O(1) Euler-tour query on a frozen tree.
func BenchmarkLCA400(b *testing.B) {
	g := benchGraph(400, 0.05)
	mst, err := graph.MST(g)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := graph.NewRootedTree(g, 0, mst)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.LCA(i%400, (i*7+3)%400)
	}
}

func BenchmarkBroadcastLP64(b *testing.B) {
	st, err := gadgets.CycleInstance(64)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sne.SolveBroadcastLP(st); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBroadcastLPDense64 is the dense two-phase tableau oracle on
// the same instance: the baseline the sparse revised simplex replaced.
func BenchmarkBroadcastLPDense64(b *testing.B) {
	st, err := gadgets.CycleInstance(64)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sne.SolveBroadcastLPNaive(st); err != nil {
			b.Fatal(err)
		}
	}
}

// benchRowGenState expands the E1/E11 random broadcast family into the
// general game the row-generation solver consumes.
func benchRowGenState(b *testing.B, n int) *game.State {
	b.Helper()
	st := randomState(b, n)
	_, gst, err := st.ToGeneral(1000)
	if err != nil {
		b.Fatal(err)
	}
	return gst
}

// BenchmarkRowGen40 runs the full warm-started constraint-generation
// loop (Dijkstra separation + AddRow + ResolveFrom per round) on the
// E1/E11 instance family. PR 3 rebuilt and re-solved a dense tableau
// every round; the revised simplex re-solves from the incumbent basis.
func BenchmarkRowGen40(b *testing.B) {
	gst := benchRowGenState(b, 40)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sne.SolveRowGeneration(gst, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRowGen100(b *testing.B) {
	gst := benchRowGenState(b, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sne.SolveRowGeneration(gst, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRowGen200 is the thousands-of-rows regime the sparse-LU +
// devex kernel targets: n=200 states generate hundreds of cuts and the
// basis grows far past the dense-LU comfort zone.
func BenchmarkRowGen200(b *testing.B) {
	gst := benchRowGenState(b, 200)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sne.SolveRowGeneration(gst, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRowGen400 doubles the player count past the separation
// oracle's resume gate: here the cursor scan and the warm-started LP
// re-solves carry essentially all of the round cost.
func BenchmarkRowGen400(b *testing.B) {
	gst := benchRowGenState(b, 400)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sne.SolveRowGeneration(gst, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// sneLPJitterFamily prebuilds the E22 jitter family exactly as the
// sne-lp scenario's jitter mode does: one base graph, every non-tree
// edge rescaled upward per instance, so the whole family shares one
// built tree and the LPs differ only in their right-hand sides.
func sneLPJitterFamily(b *testing.B, count, n int) []*broadcast.State {
	b.Helper()
	base := graph.RandomConnected(rand.New(rand.NewSource(9)), n, 0.12, 0.5, 3)
	mst, err := graph.MST(base)
	if err != nil {
		b.Fatal(err)
	}
	onTree := make([]bool, base.M())
	for _, id := range mst {
		onTree[id] = true
	}
	sts := make([]*broadcast.State, 0, count)
	for i := 0; i < count; i++ {
		g := base.Clone()
		rng := rand.New(rand.NewSource(int64(i + 1)))
		for id := 0; id < g.M(); id++ {
			if !onTree[id] {
				g.SetWeight(id, g.Weight(id)*(1+0.25*rng.Float64()))
			}
		}
		bg, err := broadcast.NewGame(g, 0)
		if err != nil {
			b.Fatal(err)
		}
		tree, err := bg.MST()
		if err != nil {
			b.Fatal(err)
		}
		st, err := broadcast.NewState(bg, tree)
		if err != nil {
			b.Fatal(err)
		}
		sts = append(sts, st)
	}
	return sts
}

// BenchmarkSweepSNELPCold solves every instance of the E22 jitter family
// from scratch: the per-instance cold baseline the warm chain is held
// against.
func BenchmarkSweepSNELPCold(b *testing.B) {
	sts := sneLPJitterFamily(b, 32, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, st := range sts {
			if _, err := sne.SolveBroadcastLP(st); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkSweepSNELPWarm chains the same family through one
// sne.BroadcastLPChain, each member warm-started from the previous
// member's basis (same structure, new weights) — the sne-lp scenario's
// warm=1 solve path.
func BenchmarkSweepSNELPWarm(b *testing.B) {
	sts := sneLPJitterFamily(b, 32, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		chain := sne.NewBroadcastLPChain()
		for _, st := range sts {
			if _, _, err := chain.SolveNearby(st); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// benchSweepSNELPTable runs the whole scenario end to end (instance
// construction included) through the sweep engine.
func benchSweepSNELPTable(b *testing.B, warm bool) {
	b.Helper()
	params := map[string]float64{"jitter": 0.25, "p": 0.12}
	if warm {
		params["warm"] = 1
	}
	spec := sweep.Spec{Scenario: "sne-lp", Seed: 9, Count: 32, Size: 128, Params: params}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sweep.RunTable(spec, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSweepSNELPTableCold(b *testing.B) { benchSweepSNELPTable(b, false) }
func BenchmarkSweepSNELPTableWarm(b *testing.B) { benchSweepSNELPTable(b, true) }

// --- sned daemon load benchmarks (PR 8) ---

// serveBenchBodies serializes the E22 jitter family into ready-to-POST
// /v1/sne request bodies — the nearby-instance query stream a long-lived
// daemon sees.
func serveBenchBodies(b *testing.B, count, n int) [][]byte {
	b.Helper()
	sts := sneLPJitterFamily(b, count, n)
	bodies := make([][]byte, len(sts))
	for i, st := range sts {
		var buf bytes.Buffer
		if err := instancefile.Write(&buf, &instancefile.Instance{Game: st.BG, Tree: st.Tree.EdgeIDs}); err != nil {
			b.Fatal(err)
		}
		raw, err := json.Marshal(map[string]string{"instance": buf.String()})
		if err != nil {
			b.Fatal(err)
		}
		bodies[i] = raw
	}
	return bodies
}

// BenchmarkServeSNEWarm drives the full server path — HTTP round trip,
// JSON decode, instance parse, LP solve, JSON encode — over the jitter
// stream; every solve but the first re-solves warm on the chain that
// solved the instance before it.
func BenchmarkServeSNEWarm(b *testing.B) {
	bodies := serveBenchBodies(b, 32, 192)
	s := serve.New(serve.Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, body := range bodies {
			resp, err := client.Post(ts.URL+"/v1/sne", "application/json", bytes.NewReader(body))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := io.Copy(io.Discard, resp.Body); err != nil {
				b.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != 200 {
				b.Fatalf("status %d", resp.StatusCode)
			}
		}
	}
}

// serveBenchFrames serializes the same jitter family into /v2/sne binary
// frames — the compact-protocol twin of serveBenchBodies.
func serveBenchFrames(b *testing.B, count, n int) [][]byte {
	b.Helper()
	sts := sneLPJitterFamily(b, count, n)
	frames := make([][]byte, len(sts))
	for i, st := range sts {
		inst := &instancefile.Instance{Game: st.BG, Tree: st.Tree.EdgeIDs}
		frames[i] = wire.AppendFrame(nil, wire.AppendSNERequest(nil, inst, wire.MethodLP))
	}
	return frames
}

// BenchmarkServeSNEBinWarm drives the binary server path — HTTP round
// trip, frame decode through pooled scratch, LP solve, frame encode —
// over the same jitter stream BenchmarkServeSNEWarm posts as JSON. The
// allocs/op gap between the two is the point of the /v2 protocol.
func BenchmarkServeSNEBinWarm(b *testing.B) {
	frames := serveBenchFrames(b, 32, 192)
	s := serve.New(serve.Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, frame := range frames {
			resp, err := client.Post(ts.URL+"/v2/sne", "application/octet-stream", bytes.NewReader(frame))
			if err != nil {
				b.Fatal(err)
			}
			raw, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				b.Fatal(err)
			}
			if resp.StatusCode != 200 || len(raw) < 5 || raw[4] != 0 {
				b.Fatalf("status %d, frame %x", resp.StatusCode, raw[:min(len(raw), 8)])
			}
		}
	}
}

// benchServeLoad runs the multi-connection load harness against a live
// server: 8 workers over 8 pooled connections, one benchmark op per
// request (frame, when pipelined), so ns/op is the inverse of
// concurrent throughput. The custom req/s and p99-ms metrics land in
// BENCH_<date>.json for cross-PR comparison.
func benchServeLoad(b *testing.B, binary bool, mixKind string, pipeline int) {
	b.Helper()
	path := "/v1/sne"
	if binary {
		path = "/v2/sne"
	}
	bodies, err := loadgen.Bodies(mixKind, binary, 24, 32, 9)
	if err != nil {
		b.Fatal(err)
	}
	s := serve.New(serve.Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	b.ResetTimer()
	res, err := loadgen.Run(loadgen.Config{
		URL:       ts.URL + path,
		Binary:    binary,
		Bodies:    bodies,
		Workers:   8,
		Conns:     8,
		Total:     b.N,
		Duration:  10 * time.Minute, // the request budget is the bound
		DecodeSNE: true,             // charge each protocol its client-side decode
		Pipeline:  pipeline,
	})
	b.StopTimer()
	if err != nil {
		b.Fatal(err)
	}
	if res.Errors > 0 {
		b.Fatalf("%d of %d requests failed", res.Errors, res.Requests)
	}
	b.ReportMetric(res.ReqPerSec, "req/s")
	b.ReportMetric(float64(res.P99.Nanoseconds())/1e6, "p99-ms")
	b.ReportMetric(warmShare(b, ts.URL), "warm-share")
}

// warmShare scrapes a running server's /metrics for the share of its lp
// solves that re-solved warm.
func warmShare(b *testing.B, url string) float64 {
	b.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		b.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		b.Fatal(err)
	}
	solves := map[string]float64{}
	for _, line := range strings.Split(string(raw), "\n") {
		for _, mode := range []string{"warm", "cold"} {
			if v, ok := strings.CutPrefix(line, `sned_solves_total{mode="`+mode+`"} `); ok {
				solves[mode], _ = strconv.ParseFloat(v, 64)
			}
		}
	}
	if total := solves["warm"] + solves["cold"]; total > 0 {
		return solves["warm"] / total
	}
	return 0
}

func BenchmarkServeLoadJSONJitter(b *testing.B) { benchServeLoad(b, false, loadgen.MixJitter, 1) }
func BenchmarkServeLoadBinJitter(b *testing.B)  { benchServeLoad(b, true, loadgen.MixJitter, 1) }
func BenchmarkServeLoadBinAdversarial(b *testing.B) {
	benchServeLoad(b, true, loadgen.MixAdversarial, 1)
}
func BenchmarkServeLoadBinMixed(b *testing.B) { benchServeLoad(b, true, loadgen.MixMixed, 1) }

// BenchmarkServeLoadBinPipelined is the binary protocol at pipeline
// depth 8: the length-prefixed framing lets one HTTP round trip carry
// eight solves, amortizing the per-request HTTP machinery both
// protocols otherwise pay per solve.
func BenchmarkServeLoadBinPipelined(b *testing.B) { benchServeLoad(b, true, loadgen.MixJitter, 8) }

// BenchmarkWilsonUST400 samples a uniform spanning tree on the sweep-
// scale random graph (the pos-swap start diversifier).
func BenchmarkWilsonUST400(b *testing.B) {
	g := benchGraph(400, 0.05)
	rng := rand.New(rand.NewSource(31))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := graph.WilsonUST(g, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTheorem6Enforce200(b *testing.B) {
	st := randomState(b, 200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := subsidy.Enforce(st); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAONExactPath18(b *testing.B) {
	st, err := gadgets.AONPathInstance(18)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sne.SolveAON(st, sne.AONOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSpanningTreeEnum(b *testing.B) {
	g := graph.Complete(7, func(i, j int) float64 { return 1 })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := graph.CountSpanningTrees(g, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSATGadgetBuildAndCheck(b *testing.B) {
	f := &reductions.Formula{NumVars: 5, Clauses: []reductions.Clause{
		{{Var: 0}, {Var: 1}, {Var: 2}},
		{{Var: 0, Neg: true}, {Var: 3}, {Var: 4}},
	}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sg, err := gadgets.BuildSAT(f, nil)
		if err != nil {
			b.Fatal(err)
		}
		st, err := sg.State()
		if err != nil {
			b.Fatal(err)
		}
		if !st.IsEquilibrium(sg.SubsidyForAssignment([]bool{true, true, true, true, true})) {
			b.Fatal("gadget broken")
		}
	}
}

func BenchmarkExactRationalCheck(b *testing.B) {
	f := &reductions.Formula{NumVars: 3, Clauses: []reductions.Clause{
		{{Var: 0}, {Var: 1, Neg: true}, {Var: 2}},
	}}
	sg, err := gadgets.BuildSAT(f, nil)
	if err != nil {
		b.Fatal(err)
	}
	st, err := sg.State()
	if err != nil {
		b.Fatal(err)
	}
	sub := sg.SubsidyForAssignment([]bool{true, false, true})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.IsEquilibrium(sub)
	}
}

// --- ablation benchmarks (design choices called out in DESIGN.md) ---

// BenchmarkAblationAONHeaviestFirst vs ...LightestFirst measure the
// effect of the branch-and-bound edge ordering on the Theorem-21 path,
// where weights are maximally skewed (one unit edge among ~x-weight ones).
func BenchmarkAblationAONHeaviestFirst(b *testing.B) {
	st, err := gadgets.AONPathInstance(18)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sne.SolveAON(st, sne.AONOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationAONLightestFirst(b *testing.B) {
	st, err := gadgets.AONPathInstance(18)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sne.SolveAON(st, sne.AONOptions{LightestFirst: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationWaterFillVsLP contrasts the combinatorial heuristic
// with the simplex-based optimum on the same instance.
func BenchmarkAblationWaterFill(b *testing.B) {
	st, err := gadgets.CycleInstance(64)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sne.WaterFill(st); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE17_ParetoFrontier(b *testing.B) { benchExperiment(b, "E17") }

func BenchmarkE18_DirectedHn(b *testing.B) { benchExperiment(b, "E18") }
func BenchmarkE19_Arrival(b *testing.B)    { benchExperiment(b, "E19") }

func BenchmarkE20_SwapPoS(b *testing.B)      { benchExperiment(b, "E20") }
func BenchmarkE21_EnforceSweep(b *testing.B) { benchExperiment(b, "E21") }
func BenchmarkE22_SNELPSweep(b *testing.B)   { benchExperiment(b, "E22") }

// --- incremental swap engine vs rebuild (PR 2) ---

// benchSwapPairs returns a warmed broadcast MST state plus k valid
// (remove, add) swap pairs against its tree.
func benchSwapPairs(b *testing.B, n, k int) (*broadcast.State, [][2]int) {
	b.Helper()
	st := randomState(b, n)
	rng := rand.New(rand.NewSource(17))
	g := st.BG.G
	var nonTree []int
	for id := 0; id < g.M(); id++ {
		if !st.Tree.Contains(id) {
			nonTree = append(nonTree, id)
		}
	}
	var pairs [][2]int
	for len(pairs) < k && len(nonTree) > 0 {
		add := nonTree[rng.Intn(len(nonTree))]
		e := g.Edge(add)
		cycle := st.Tree.TreePath(e.U, e.V)
		pairs = append(pairs, [2]int{cycle[rng.Intn(len(cycle))], add})
	}
	if len(pairs) == 0 {
		b.Skip("no valid swaps")
	}
	return st, pairs
}

// benchSwapUpdate measures the incremental candidate-state update:
// ApplySwap patches the tree, NA and the warm Lemma-2 sums; Revert
// restores them. Steady state must be 0 allocs/op.
func benchSwapUpdate(b *testing.B, n int) {
	st, pairs := benchSwapPairs(b, n, 64)
	st.IsEquilibrium(nil) // warm the prefix-sum cache
	if err := st.ApplySwap(pairs[0][0], pairs[0][1]); err != nil {
		b.Fatal(err)
	}
	st.Revert()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr := pairs[i%len(pairs)]
		if err := st.ApplySwap(pr[0], pr[1]); err != nil {
			b.Fatal(err)
		}
		st.Revert()
	}
}

func BenchmarkSwapUpdate400(b *testing.B)  { benchSwapUpdate(b, 400) }
func BenchmarkSwapUpdate2000(b *testing.B) { benchSwapUpdate(b, 2000) }

// benchSwapRebuild is the baseline the swap engine replaces: a full
// NewRootedTree + NewState rebuild per candidate tree (the rebuild does
// strictly less — it leaves the Lemma-2 sums cold, which ApplySwap
// patches warm).
func benchSwapRebuild(b *testing.B, n int) {
	st, pairs := benchSwapPairs(b, n, 64)
	trees := make([][]int, len(pairs))
	for i, pr := range pairs {
		tr := append([]int(nil), st.Tree.EdgeIDs...)
		for j, id := range tr {
			if id == pr[0] {
				tr[j] = pr[1]
				break
			}
		}
		trees[i] = tr
	}
	bg := st.BG
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := broadcast.NewState(bg, trees[i%len(trees)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSwapRebuild400(b *testing.B)  { benchSwapRebuild(b, 400) }
func BenchmarkSwapRebuild2000(b *testing.B) { benchSwapRebuild(b, 2000) }

// BenchmarkSwapEvalCheck400 is the full candidate evaluation — apply,
// Lemma-2 equilibrium check, revert — against rebuild-and-check.
func BenchmarkSwapEvalCheck400(b *testing.B) {
	st, pairs := benchSwapPairs(b, 400, 64)
	st.IsEquilibrium(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr := pairs[i%len(pairs)]
		if err := st.ApplySwap(pr[0], pr[1]); err != nil {
			b.Fatal(err)
		}
		st.IsEquilibrium(nil)
		st.Revert()
	}
}

func BenchmarkSwapRebuildCheck400(b *testing.B) {
	st, pairs := benchSwapPairs(b, 400, 64)
	trees := make([][]int, len(pairs))
	for i, pr := range pairs {
		tr := append([]int(nil), st.Tree.EdgeIDs...)
		for j, id := range tr {
			if id == pr[0] {
				tr[j] = pr[1]
				break
			}
		}
		trees[i] = tr
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st2, err := broadcast.NewState(st.BG, trees[i%len(trees)])
		if err != nil {
			b.Fatal(err)
		}
		st2.IsEquilibrium(nil)
	}
}

// --- best-response dynamics: incremental walk vs rebuild-per-step ---

func benchDynamicsState(b *testing.B) *game.State {
	b.Helper()
	st := randomState(b, 40)
	_, gst, err := st.ToGeneral(1000)
	if err != nil {
		b.Fatal(err)
	}
	return gst
}

func BenchmarkBestResponseIncremental(b *testing.B) {
	gst := benchDynamicsState(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := game.BestResponseDynamics(gst, nil, game.RoundRobin, nil, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBestResponseRebuild(b *testing.B) {
	gst := benchDynamicsState(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := game.BestResponseDynamicsNaive(gst, nil, game.RoundRobin, nil, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSwapDynamics100 runs the broadcast-native tree-swap descent
// (Lemma-2 violations applied as incremental swaps).
func BenchmarkSwapDynamics100(b *testing.B) {
	st := randomState(b, 100)
	mst := append([]int(nil), st.Tree.EdgeIDs...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		run, err := broadcast.NewState(st.BG, mst)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := broadcast.SwapDynamics(run, nil, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// --- weighted/multicast fast paths (PR 2 port) ---

func benchWeightedState(b *testing.B, n, players int) *weighted.State {
	b.Helper()
	rng := rand.New(rand.NewSource(23))
	g := graph.RandomConnected(rng, n, 0.05, 0.5, 3)
	pls := make([]weighted.Player, players)
	paths := make([][]int, players)
	for i := range pls {
		s := rng.Intn(n)
		d := rng.Intn(n)
		for d == s {
			d = rng.Intn(n)
		}
		pls[i] = weighted.Player{S: s, T: d, Demand: 0.5 + rng.Float64()*2}
		paths[i] = graph.Dijkstra(g, s, nil).PathTo(d)
	}
	wg, err := weighted.New(g, pls)
	if err != nil {
		b.Fatal(err)
	}
	st, err := weighted.NewState(wg, paths)
	if err != nil {
		b.Fatal(err)
	}
	return st
}

func BenchmarkWeightedBestResponse400(b *testing.B) {
	st := benchWeightedState(b, 400, 8)
	st.BestResponse(0, nil) // warm scratch + freeze
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.BestResponse(i%8, nil)
	}
}

func BenchmarkWeightedBestResponseNaive400(b *testing.B) {
	st := benchWeightedState(b, 400, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.BestResponseNaive(i%8, nil)
	}
}

func BenchmarkSteinerTree(b *testing.B) {
	rng := rand.New(rand.NewSource(29))
	g := graph.RandomConnected(rng, 40, 0.15, 0.5, 3)
	terms := []int{0, 7, 13, 21, 30, 38}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := multicast.SteinerTree(g, terms); err != nil {
			b.Fatal(err)
		}
	}
}

// --- AnalyzeTrees: swap walk vs rebuild per tree ---

func benchAnalyzeGame(b *testing.B) *broadcast.Game {
	b.Helper()
	rng := rand.New(rand.NewSource(41))
	g := graph.RandomConnected(rng, 8, 0.6, 0.5, 2)
	bg, err := broadcast.NewGame(g, 0)
	if err != nil {
		b.Fatal(err)
	}
	return bg
}

func BenchmarkAnalyzeTreesSwapWalk(b *testing.B) {
	bg := benchAnalyzeGame(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := broadcast.AnalyzeTrees(bg, nil, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAnalyzeTreesRebuild(b *testing.B) {
	bg := benchAnalyzeGame(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := broadcast.AnalyzeTreesNaive(bg, nil, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// --- sweep engine: dispatch, checkpoint codec, shard/resume I/O ---

// benchNoop isolates engine dispatch: a registered scenario whose
// per-instance work is free.
var benchNoopOnce sync.Once

func benchNoopSpec(count int) sweep.Spec {
	benchNoopOnce.Do(func() {
		sweep.Register(&sweep.Scenario{
			Name:    "bench-noop",
			TableID: "B0",
			Title:   "bench dispatch probe",
			Headers: []string{"-"},
			Run: func(spec sweep.Spec, idx int, rng *rand.Rand) (sweep.Record, error) {
				return sweep.Record{}, nil
			},
		})
	})
	return sweep.Spec{Scenario: "bench-noop", Seed: 9, Count: count}
}

func benchEnforceSpec(count int) sweep.Spec {
	return sweep.Spec{Scenario: "enforce", Seed: 7, Count: count, Size: 10, Params: map[string]float64{"spread": 4}}
}

// BenchmarkSweepDispatch256: per-instance engine overhead alone (256
// no-op instances through the full RunTable path).
func BenchmarkSweepDispatch256(b *testing.B) {
	spec := benchNoopSpec(256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sweep.RunTable(spec, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepSerialEnforce16: the serial oracle over a real scenario.
func BenchmarkSweepSerialEnforce16(b *testing.B) {
	spec := benchEnforceSpec(16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sweep.RunSerial(spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepSharded4x16: the same family through 4 checkpointed
// shards plus merge — the full distribution-layer overhead.
func BenchmarkSweepSharded4x16(b *testing.B) {
	spec := benchEnforceSpec(16)
	root := b.TempDir()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dir := filepath.Join(root, strconv.Itoa(i))
		if _, err := sweep.Run(spec, dir, 4, sweep.Options{Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepResumeScan: cost of resuming a fully checkpointed shard
// (scan, skip everything, write nothing).
func BenchmarkSweepResumeScan(b *testing.B) {
	spec := benchEnforceSpec(16)
	dir := b.TempDir()
	if _, err := sweep.Run(spec, dir, 1, sweep.Options{Workers: 1}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, err := sweep.RunShard(spec, dir, 0, 1, sweep.Options{})
		if err != nil || n != 0 {
			b.Fatalf("resume recomputed %d records: %v", n, err)
		}
	}
}

func BenchmarkSweepCheckpointEncode(b *testing.B) {
	rec := sweep.Record{Index: 123, Cells: []string{"24", "31.4159", "0.3679", "true"}, Vals: []float64{0.36787944117144233}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sweep.EncodeRecord(rec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSweepCheckpointDecode(b *testing.B) {
	line, err := sweep.EncodeRecord(sweep.Record{Index: 123, Cells: []string{"24", "31.4159", "0.3679", "true"}, Vals: []float64{0.36787944117144233}})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sweep.DecodeRecord(line); err != nil {
			b.Fatal(err)
		}
	}
}

// --- weighted PNE decision: pruned vs exhaustive product sweep ---

func benchPNEGame(b *testing.B) *weighted.Game {
	// n=7 at this seed: the raw product space takes the naive sweep
	// ~1000× longer than the constraint-propagated search.
	rng := rand.New(rand.NewSource(23))
	g := graph.RandomConnected(rng, 7, 0.5, 0.5, 3)
	players := []weighted.Player{
		{S: 0, T: 6, Demand: 1},
		{S: 1, T: 5, Demand: 2.5},
		{S: 2, T: 6, Demand: 0.7},
	}
	wg, err := weighted.New(g, players)
	if err != nil {
		b.Fatal(err)
	}
	return wg
}

func BenchmarkWeightedPNEPruned(b *testing.B) {
	wg := benchPNEGame(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := wg.HasPureEquilibrium(0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWeightedPNENaive(b *testing.B) {
	wg := benchPNEGame(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := wg.HasPureEquilibriumNaive(0); err != nil {
			b.Fatal(err)
		}
	}
}
