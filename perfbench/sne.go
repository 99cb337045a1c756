package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"netdesign/internal/serve/wire"
)

// Shape of an sne run. Every count here is fixed; only the number of
// rounds depends on the time budget.
const (
	setupTrials = 9   // daemons started per run; setup_s is their median
	warmupReqs  = 100 // warm-up pass per daemon (cold: structures outside the measured grid)
	roundSize   = 100 // requests per count-bounded round of the measured phase
)

// daemon is a running sned with one keep-alive client connection.
type daemon struct {
	p      *proc
	base   string
	client *http.Client
}

func startSned(bin string) (*daemon, error) {
	p, err := startProc("sned", filepath.Join(bin, "sned"), []string{"-addr", "127.0.0.1:0"}, nil)
	if err != nil {
		return nil, err
	}
	addr, err := p.awaitLine("listening on ", 30*time.Second)
	if err != nil {
		p.stop(syscall.SIGKILL, time.Second)
		return nil, err
	}
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	d := &daemon{p: p, base: "http://" + addr, client: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := d.client.Get(d.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) || p.exited() {
			d.stop()
			return nil, fmt.Errorf("sned never became ready: %s", p.stderr())
		}
		time.Sleep(time.Millisecond)
	}
}

func (d *daemon) stop() {
	d.client.CloseIdleConnections()
	d.p.stop(syscall.SIGTERM, 20*time.Second)
}

// post sends one request and reads the whole response.
func (d *daemon) post(path string, body []byte, binary bool) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, d.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if binary {
		req.Header.Set("Content-Type", "application/octet-stream")
	} else {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, data, err
}

// metrics scrapes /metrics into name{labels} → value.
func (d *daemon) metrics() (map[string]float64, error) {
	resp, err := d.client.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// sumPrefix adds every scraped series whose key starts with prefix.
func sumPrefix(m map[string]float64, prefix string) float64 {
	s := 0.0
	for k, v := range m {
		if strings.HasPrefix(k, prefix) {
			s += v
		}
	}
	return s
}

// runSNE runs an sne workload: set up sned (several times; the last
// daemon stays), drive the measured phase over one keep-alive
// connection in count-bounded rounds, stop the daemon, then replay the
// same requests in order through the layers and gate every answer.
func runSNE(cfg runConfig) (*result, error) {
	in, err := newSNEInputs(cfg.workload, cfg.seed)
	if err != nil {
		return nil, err
	}
	res := newResult(cfg)
	res.digest = in.digest(warmupReqs)
	path := "/v1/sne"
	if in.binary {
		path = "/v2/sne"
	}

	warm := make([]request, warmupReqs)
	for i := range warm {
		warm[i] = in.warm(i)
	}
	var (
		d      *daemon
		setups []float64
	)
	// startWarm starts a daemon and sends it the warm-up pass; exec to
	// the last warm-up answer is one setup_s sample.
	startWarm := func() error {
		t0 := time.Now()
		var err error
		if d, err = startSned(cfg.bin); err != nil {
			return err
		}
		for i, q := range warm {
			st, body, err := d.post(path, q.body, in.binary)
			if err != nil || st != http.StatusOK {
				d.stop()
				return fmt.Errorf("warm-up request %d: status %d, %v: %.200s", i, st, err, body)
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
		return nil
	}
	for t := 0; t < setupTrials; t++ {
		if d != nil {
			d.stop()
		}
		if err := startWarm(); err != nil {
			return nil, err
		}
	}
	defer func() { d.stop() }()

	// The measured phase. Each round's requests are generated before
	// its clock starts; the phase ends at the first round boundary past
	// the time budget. A daemon serves at most one cycle of the stream
	// (cold: one walk of the grid) and is then replaced, between rounds,
	// by a fresh one, so no daemon sees a fingerprint twice: the cache's
	// doorkeeper admits a structure on its second sighting, and the third
	// would hit. The /metrics counters are summed over the daemons.
	served := map[string]float64{}
	var m0 map[string]float64
	rssMB, daemons := 0.0, 0
	retire := func() error {
		m1, err := d.metrics()
		if err != nil {
			return err
		}
		for k, v := range m1 {
			served[k] += v - m0[k]
		}
		d.stop()
		rssMB = max(rssMB, d.p.maxRSSMB())
		daemons++
		return nil
	}
	if m0, err = d.metrics(); err != nil {
		return nil, err
	}
	steal0 := stealJiffies()
	var (
		rounds   []round
		lat      []float64 // ms, all requests
		statuses []int
		bodies   [][]byte
		busy     time.Duration
		reqBytes int
		batch    []request
	)
	budget := time.Duration(cfg.seconds) * time.Second
	for next := 0; busy < budget; {
		if c := in.cycle(); c > 0 && next > 0 && next%c == 0 {
			if err := retire(); err != nil {
				return nil, err
			}
			if err := startWarm(); err != nil {
				return nil, err
			}
			if m0, err = d.metrics(); err != nil {
				return nil, err
			}
		}
		batch = in.batch(batch[:0], next, next+roundSize)
		rd := round{first: len(lat), n: len(batch)}
		if rd.ticks, err = d.p.cpuTicks(); err != nil {
			return nil, err
		}
		s0 := stealJiffies()
		r0 := time.Now()
		for _, q := range batch {
			t := time.Now()
			st, body, err := d.post(path, q.body, in.binary)
			lat = append(lat, float64(time.Since(t))/1e6)
			if err != nil {
				res.fail("request %d: %v", len(statuses), err)
			}
			statuses = append(statuses, st)
			bodies = append(bodies, body)
			reqBytes += len(q.body)
		}
		rd.wall = time.Since(r0)
		rd.steal = stealJiffies() - s0
		ticks, err := d.p.cpuTicks()
		if err != nil {
			return nil, err
		}
		rd.ticks = ticks - rd.ticks
		busy += rd.wall
		rounds = append(rounds, rd)
		next += len(batch)
	}
	res.host.StealJiffy = stealJiffies() - steal0
	if err := retire(); err != nil {
		return nil, err
	}
	count := len(statuses)
	res.attempted = count

	// Wall-clock figures come from the rounds chosen by reported; every
	// round is kept in the run record.
	var rates, selLat, p99s []float64
	var selTicks int64
	selN := 0
	for _, i := range reported(rounds) {
		rd := rounds[i]
		rates = append(rates, rd.rate())
		selLat = append(selLat, lat[rd.first:rd.first+rd.n]...)
		p99s = append(p99s, quantile(lat[rd.first:rd.first+rd.n], 0.99))
		selTicks += rd.ticks
		selN += rd.n
	}
	res.rounds = rounds
	meanLatUS := mean(lat) * 1000
	res.e2e = map[string]float64{
		"ops_per_s":     median(rates),
		"p50_ms":        quantile(selLat, 0.50),
		"p99_ms":        median(p99s), // of per-round p99s, so one burst moves one round
		"cpu_ms_per_op": float64(selTicks) * float64(clockTick/time.Millisecond) / float64(selN),
		"max_rss_mb":    rssMB,
		"setup_s":       median(setups),
	}
	res.samples["ops_per_s"] = len(rates)
	res.samples["p50_ms"] = len(selLat)
	res.samples["p99_ms"] = len(p99s) // rounds of roundSize requests
	res.samples["cpu_ms_per_op"] = selN
	res.samples["max_rss_mb"] = daemons
	res.samples["setup_s"] = len(setups)

	// Replay and answer gate, in request order: warm-up first, as the
	// daemon saw it, then every measured request.
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var (
		chunks     []round
		pivots     int
		warmSolves int
		respBytes  int
		resp       wire.SNEResponse
	)
	err = replayPass(in, newReplayer(in.binary, tr), warm, count, func(next int, batch []request, refs []answer, chunk round) {
		chunks = append(chunks, chunk)
		for k, q := range batch {
			i, ref := next+k, refs[k]
			pivots += ref.pivots
			if ref.warm {
				warmSolves++
			}
			if statuses[i] == 0 {
				continue // transport failure, already counted
			}
			respBytes += len(bodies[i])
			resp.Subsidies = resp.Subsidies[:0]
			if err := decodeResponse(in.binary, statuses[i], bodies[i], &resp); err != nil {
				res.fail("response %d: %v", i, err)
				continue
			}
			if err := checkAnswer(q.in, &resp, ref, !in.binary); err != nil {
				res.fail("response %d: %v", i, err)
			}
			bodies[i] = nil
		}
	})
	if err != nil {
		return nil, err
	}
	var localRates []float64
	for _, i := range reported(chunks) {
		localRates = append(localRates, chunks[i].rate())
	}
	res.e2e["local_ops_per_s"] = median(localRates)
	res.samples["local_ops_per_s"] = len(localRates)

	if !cfg.trace {
		return res, nil
	}

	// Per-layer numbers from the traced replay (measured requests only).
	var spans []span
	for _, s := range tr.spans {
		if s.Req >= warmupReqs {
			spans = append(spans, s)
		}
	}
	self := selfTimes(spans)
	res.selfTimes = self
	res.spans = tr
	perReq := func(name string) float64 { return float64(self[name].SelfNS) / 1e3 / float64(count) }
	var rootNS int64
	for _, s := range spans {
		if s.Name == spRequest {
			rootNS += s.End - s.Start
		}
	}
	leafNS := int64(0)
	for _, name := range replayLeaves {
		leafNS += self[name].SelfNS
	}
	// Tracing overhead: the same replay again with timing off.
	var plainNS int64
	err = replayPass(in, newReplayer(in.binary, nil), warm, count, func(_ int, _ []request, _ []answer, chunk round) {
		plainNS += int64(chunk.wall)
	})
	if err != nil {
		return nil, err
	}
	hits, misses := served["sned_basis_cache_hits_total"], served["sned_basis_cache_misses_total"]
	kops := float64(count) / 1000
	L := res.layer
	L["wire.decode_us"] = perReq(spWireDecode)
	L["wire.encode_us"] = perReq(spWireEncode)
	L["serve.json_us"] = perReq(spJSON)
	L["instancefile.decode_us"] = perReq(spTextDecode)
	L["broadcast.state_us"] = perReq(spState)
	L["sne.lp_build_us"] = perReq(spLPBuild)
	L["lp.solve_us"] = perReq(spLPSolve)
	L["sne.verify_us"] = perReq(spVerify)
	if in.binary {
		L["wire.req_bytes"] = float64(reqBytes) / float64(count)
		L["wire.resp_bytes"] = float64(respBytes) / float64(count)
	}
	L["lp.pivots_per_solve"] = float64(pivots) / float64(count)
	if pivots > 0 {
		L["lp.us_per_pivot"] = float64(self[spLPSolve].SelfNS) / 1e3 / float64(pivots)
	}
	L["lp.warm_share"] = float64(warmSolves) / float64(count)
	if hits+misses > 0 {
		L["serve.cache_hit_ratio"] = hits / (hits + misses)
	}
	L["serve.warm_solves"] = served[`sned_solves_total{mode="warm"}`]
	L["serve.cold_solves"] = served[`sned_solves_total{mode="cold"}`]
	L["serve.shed"] = served["sned_shed_requests_total"]
	L["serve.errors"] = sumPrefix(served, "sned_errors_total")
	L["serve.gc_runs_per_kop"] = served["sned_gc_runs_total"] / kops
	L["serve.gc_pause_ms"] = served["sned_gc_pause_seconds_total"] * 1e3 / kops
	L["replay.request_us"] = float64(rootNS) / 1e3 / float64(count)
	L["serve.overhead_us"] = meanLatUS - L["replay.request_us"]
	L["replay.attributed_share"] = float64(leafNS) / float64(rootNS)
	L["trace.overhead_share"] = float64(rootNS-plainNS) / float64(plainNS)
	return res, nil
}

// replayPass replays the warm-up pass and then the first count measured
// requests through rp, in order, in chunks of roundSize; each chunk's
// requests are generated before its clock starts. visit gets every
// measured chunk with the replay's answers and the chunk's timing.
func replayPass(in *sneInputs, rp *replayer, warm []request, count int,
	visit func(next int, batch []request, refs []answer, chunk round)) error {
	for i, q := range warm {
		if _, err := rp.do(i, q.body); err != nil {
			return fmt.Errorf("replay warm-up %d: %w", i, err)
		}
	}
	var batch []request
	refs := make([]answer, roundSize)
	for next := 0; next < count; next += roundSize {
		batch = in.batch(batch[:0], next, min(next+roundSize, count))
		s0 := stealJiffies()
		c0 := time.Now()
		for k, q := range batch {
			var err error
			if refs[k], err = rp.do(warmupReqs+next+k, q.body); err != nil {
				return fmt.Errorf("replay request %d: %w", next+k, err)
			}
		}
		visit(next, batch, refs[:len(batch)], round{n: len(batch), wall: time.Since(c0), steal: stealJiffies() - s0})
	}
	return nil
}
