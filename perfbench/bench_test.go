package main

import (
	"encoding/json"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"

	"netdesign/internal/instancefile"
	"netdesign/internal/serve/wire"
	"netdesign/internal/sne"
)

// served answers a request the way sned would, through the replay.
func served(t *testing.T, binary bool, q request) (*wire.SNEResponse, answer) {
	t.Helper()
	rp := newReplayer(binary, nil)
	ref, err := rp.do(0, q.body)
	if err != nil {
		t.Fatal(err)
	}
	var resp wire.SNEResponse
	if binary {
		err = decodeResponse(true, 200, wire.AppendFrame(nil, rp.out), &resp)
	} else {
		err = decodeResponse(false, 200, rp.out, &resp)
	}
	if err != nil {
		t.Fatal(err)
	}
	return &resp, ref
}

func TestGateRejectsMutations(t *testing.T) {
	for _, wl := range []string{wlJitter, wlCold} {
		in, err := newSNEInputs(wl, 7)
		if err != nil {
			t.Fatal(err)
		}
		q := in.measured(3)
		resp, ref := served(t, in.binary, q)
		exact := !in.binary
		if err := checkAnswer(q.in, resp, ref, exact); err != nil {
			t.Fatalf("%s: genuine answer rejected: %v", wl, err)
		}
		if len(resp.Subsidies) == 0 {
			t.Fatalf("%s: instance needs no subsidies; pick another", wl)
		}

		costUp := *resp
		costUp.Cost *= 1 + 1e-6
		if checkAnswer(q.in, &costUp, ref, exact) == nil {
			t.Errorf("%s: raised cost accepted", wl)
		}
		for _, scale := range []float64{0.5, 1.5} {
			mut := *resp
			mut.Subsidies = append([]wire.EdgeSubsidy(nil), resp.Subsidies...)
			mut.Subsidies[0].Subsidy *= scale
			if checkAnswer(q.in, &mut, ref, exact) == nil {
				t.Errorf("%s: subsidy scaled by %v accepted", wl, scale)
			}
		}
		moved := *resp
		moved.Subsidies = append([]wire.EdgeSubsidy(nil), resp.Subsidies...)
		moved.Subsidies[0].Edge = (moved.Subsidies[0].Edge + 1) % len(q.in.edges)
		if checkAnswer(q.in, &moved, ref, exact) == nil {
			t.Errorf("%s: subsidy moved to another edge accepted", wl)
		}
	}
}

func TestDigestDependsOnSeedOnly(t *testing.T) {
	for _, wl := range []string{wlJitter, wlCold} {
		a, _ := newSNEInputs(wl, 1)
		b, _ := newSNEInputs(wl, 1)
		c, _ := newSNEInputs(wl, 2)
		da, db, dc := a.digest(warmupReqs), b.digest(warmupReqs), c.digest(warmupReqs)
		if da != db {
			t.Errorf("%s: digest not stable for a seed: %s vs %s", wl, da, db)
		}
		if da == dc {
			t.Errorf("%s: digest unchanged by the seed", wl)
		}
	}
	if sweepDigest(1) != sweepDigest(1) || sweepDigest(1) == sweepDigest(2) {
		t.Error("sweep digest must be stable for a seed and change with it")
	}
}

func TestSelfTimes(t *testing.T) {
	// request [0,100) with children decode [10,20), solve [20,70) and a
	// second, overlapping solve-child pair: pivot [30,50), pivot [40,60),
	// plus encode [90,120) which sticks out of its parent.
	spans := []span{
		{Name: "request", ID: 0, Parent: -1, Start: 0, End: 100},
		{Name: "decode", ID: 1, Parent: 0, Start: 10, End: 20},
		{Name: "solve", ID: 2, Parent: 0, Start: 20, End: 70},
		{Name: "pivot", ID: 3, Parent: 2, Start: 30, End: 50},
		{Name: "pivot", ID: 4, Parent: 2, Start: 40, End: 60},
		{Name: "encode", ID: 5, Parent: 0, Start: 90, End: 120},
	}
	got := selfTimes(spans)
	want := map[string]int64{
		"request": 100 - 10 - 50 - 10, // encode counts only inside [0,100)
		"decode":  10,
		"solve":   50 - 30, // union of the pivots is [30,60)
		"pivot":   20 + 20,
		"encode":  30,
	}
	for name, w := range want {
		if got[name].SelfNS != w {
			t.Errorf("%s: self %d, want %d", name, got[name].SelfNS, w)
		}
	}
	if got["pivot"].Calls != 2 {
		t.Errorf("pivot calls %d, want 2", got["pivot"].Calls)
	}
	// A subset keeping children with their parents gives the same
	// numbers for what it keeps.
	sub := selfTimes(spans[2:5])
	if sub["solve"].SelfNS != 20 || sub["pivot"].SelfNS != 40 {
		t.Errorf("subset self times %+v", sub)
	}
}

func TestEncodingsMatchTheProgram(t *testing.T) {
	for _, wl := range []string{wlJitter, wlCold} {
		in, _ := newSNEInputs(wl, 3)
		g := in.measured(5).in
		parsed, err := instancefile.Read(strings.NewReader(g.text()))
		if err != nil {
			t.Fatal(err)
		}
		want := wire.AppendFrame(nil, wire.AppendSNERequest(nil, parsed, wire.MethodLP))
		if got := g.v2Frame(); string(got) != string(want) {
			t.Errorf("%s: frame differs from the program's encoder", wl)
		}
		for id, e := range parsed.Game.G.Edges() {
			if e.U != g.edges[id].u || e.V != g.edges[id].v || math.Float64bits(e.W) != math.Float64bits(g.edges[id].w) {
				t.Fatalf("%s: edge %d does not round-trip through the text", wl, id)
			}
		}
	}
}

func TestFingerprints(t *testing.T) {
	// Jitter: one fingerprint for the whole family. Cold: no fingerprint
	// returns within coldCycle lookups, over four times sned's default
	// cache, and the warm-up shares none with the measured requests.
	jit, _ := newSNEInputs(wlJitter, 4)
	cold, _ := newSNEInputs(wlCold, 4)
	fp := func(in *instance) uint64 {
		st, err := clientState(in)
		if err != nil {
			t.Fatal(err)
		}
		if rows := lpRows(in); rows <= 0 {
			t.Fatalf("no LP rows")
		}
		return sne.NewBroadcastLPChain().Prepare(st)
	}
	base := fp(jit.warm(0).in)
	for i := 0; i < 20; i++ {
		if fp(jit.measured(i).in) != base {
			t.Fatalf("jitter member %d changes the fingerprint", i)
		}
	}
	if coldCycle < 4*512 || coldCycle%roundSize != 0 {
		t.Fatalf("cold grid of %d points: want at least four times the cache, in whole rounds", coldCycle)
	}
	warm := map[uint64]bool{}
	for i := 0; i < warmupReqs; i++ {
		warm[fp(cold.warm(i).in)] = true
	}
	last := map[uint64]int{}
	rowSum := 0
	for i := 0; i < coldCycle+200; i++ {
		in := cold.measured(i).in
		n, rows := coldCombo(cold.seed, i)
		if in.n != n || lpRows(in) != rows {
			t.Fatalf("cold request %d: n=%d rows=%d, want %d, %d", i, in.n, lpRows(in), n, rows)
		}
		f := fp(in)
		if warm[f] {
			t.Fatalf("cold request %d shares a fingerprint with the warm-up", i)
		}
		if j, ok := last[f]; ok && i-j < coldCycle {
			t.Fatalf("cold request %d repeats the fingerprint of request %d", i, j)
		}
		last[f] = i
		if i < coldCycle {
			rowSum += rows
		}
	}
	if len(last) != coldCycle {
		t.Fatalf("%d distinct cold fingerprints, want %d", len(last), coldCycle)
	}
	if mean := float64(rowSum) / coldCycle; math.Abs(mean-770) > 5 {
		t.Errorf("cold LPs average %.1f rows, want about 770", mean)
	}
}

func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the code", what, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s %d: BENCHMARK.json %+v, code %+v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}

func TestLastAllowedCPU(t *testing.T) {
	// The highest CPU of an affinity set of k CPUs is at least k−1.
	cpu, ok := lastAllowedCPU()
	if !ok || cpu < runtime.NumCPU()-1 {
		t.Fatalf("lastAllowedCPU() = %d, %v with %d CPUs allowed", cpu, ok, runtime.NumCPU())
	}
}
