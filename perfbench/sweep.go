package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"netdesign/internal/fabric"
	"netdesign/internal/sweep"
)

// The sweep-sne-lp workload: the sne-lp scenario (cold LPs, warm=0) run
// once through the local engine and once through the fabric, per round.
const (
	sweepCount    = 512
	sweepShards   = 8
	sweepSize     = 48
	sweepSpread   = 8
	sweepWorkers  = 2 // local engine goroutines; fabric worker processes
	sweepMinRound = 3 // rounds per run at least, so medians have company
	overheadPairs = 3 // traced/untraced local runs behind trace.overhead_share
)

// sweepSpec is the spec of round r: every round sweeps its own instance
// set, so a run's figures average over several sets. sne-lp's per-record
// cost is heavy-tailed (p90 ≈ 5× the median), and one set of 512
// records would leave its p99 to five samples.
func sweepSpec(seed int64, r int) sweep.Spec {
	return sweep.Spec{Scenario: "sne-lp", Seed: subSeed(seed, streamSweep, r), Count: sweepCount, Size: sweepSize,
		Params: map[string]float64{"spread": sweepSpread, "warm": 0}}
}

// specArgs is the spec as sweep/sweepd flags.
func specArgs(spec sweep.Spec) []string {
	return []string{"-scenario", spec.Scenario, "-seed", strconv.FormatInt(spec.Seed, 10),
		"-count", strconv.Itoa(spec.Count), "-size", strconv.Itoa(spec.Size),
		"-param", "spread=" + strconv.Itoa(sweepSpread), "-param", "warm=0"}
}

// sweepDigest identifies the sweep's inputs: the program generates the
// instances from the spec, so the specs of the first rounds and the
// shard plan are the inputs.
func sweepDigest(seed int64) string {
	h := sha256.New()
	for r := 0; r < digestRounds; r++ {
		h.Write([]byte(strings.Join(append(specArgs(sweepSpec(seed, r)), "-shards", strconv.Itoa(sweepShards)), " ")))
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

const digestRounds = 8

// runSweep measures with the real binaries, or, traced, replays the same
// spec in process through the sweep and fabric layers.
func runSweep(cfg runConfig) (*result, error) {
	res := newResult(cfg)
	res.digest = sweepDigest(cfg.seed)
	if cfg.trace {
		return res, traceSweep(cfg, sweepSpec(cfg.seed, 0), res)
	}
	var (
		rounds     []*roundData
		local, fab []round
		busy       time.Duration
	)
	budget := time.Duration(cfg.seconds) * time.Second
	steal0 := stealJiffies()
	for r := 0; r < sweepMinRound || busy < budget; r++ {
		rd, err := sweepRound(cfg, sweepSpec(cfg.seed, r), r, res)
		if err != nil {
			return nil, err
		}
		// The time budget is the fabric's: the local run before each
		// fabric run is its reference, and doubling the rounds halves
		// the weight of the few records that set the p99.
		busy += rd.fabric.wall
		rounds = append(rounds, rd)
		local = append(local, rd.local)
		fab = append(fab, rd.fabric)
		res.attempted += 2 * sweepCount
	}
	res.host.StealJiffy = stealJiffies() - steal0
	res.rounds = append(local, fab...)

	// As for the sne workloads, rates, CPU and memory come from the
	// rounds chosen by reported, local and fabric runs separately.
	var localRates, fabRates, setups, cpuPerOp, rss, p50s, p99s []float64
	for _, i := range reported(local) {
		localRates = append(localRates, local[i].rate())
	}
	for _, i := range reported(fab) {
		rd := rounds[i]
		fabRates = append(fabRates, rd.fabric.rate())
		cpuPerOp = append(cpuPerOp, float64(rd.cpu)/1e6/float64(sweepCount))
		rss = append(rss, rd.rssMB)
	}
	// Record latencies: the median, over the least-stolen half of the
	// fabric runs, of each run's p50 and p99. A steal burst stretches
	// every record it overlaps; pooled over the reported runs, the p99
	// followed the one or two bursty runs a selection kept, and spread
	// 0.39 of its median across ten seeds on a busy host.
	for _, i := range leastStolen(fab) {
		p50s = append(p50s, quantile(rounds[i].recordMS, 0.50))
		p99s = append(p99s, quantile(rounds[i].recordMS, 0.99))
	}
	for _, rd := range rounds {
		setups = append(setups, rd.setup.Seconds())
	}
	res.e2e = map[string]float64{
		"ops_per_s":       median(fabRates),
		"local_ops_per_s": median(localRates),
		"p50_ms":          median(p50s),
		"p99_ms":          median(p99s),
		"cpu_ms_per_op":   median(cpuPerOp),
		"max_rss_mb":      median(rss),
		"setup_s":         median(setups),
	}
	res.samples["ops_per_s"] = len(fabRates)
	res.samples["local_ops_per_s"] = len(localRates)
	res.samples["cpu_ms_per_op"] = len(cpuPerOp)
	res.samples["max_rss_mb"] = len(rss)
	res.samples["setup_s"] = len(setups)
	res.samples["p50_ms"] = len(p50s) // runs of sweepCount records
	res.samples["p99_ms"] = len(p99s)
	return res, nil
}

type roundData struct {
	local, fabric round         // the local engine run and the fabric run
	setup         time.Duration // sweepd exec → both workers leased
	cpu           time.Duration // fabric processes, measured phase
	rssMB         float64
	recordMS      []float64 // per-record latency of the fabric run, from appendClock
}

// appendClock is a TCP relay between the fabric workers and sweepd that
// stamps, per lease, the arrival of the checkpoint open and of every
// append. A worker appends each record as it finishes it, so the
// interval from one stamp to the next append of the same lease is one
// record's latency seen from outside the program: computing the record
// and its append round trip, plus whatever the other processes on the
// same CPU ran meanwhile. It copies bytes and reads only request lines:
// an HTTP reverse proxy in its place, which parses and re-sends every
// request, took 15% of the fabric's throughput on one CPU.
type appendClock struct {
	ln     net.Listener
	target string // sweepd's host:port
	url    string // what the workers dial
	wg     sync.WaitGroup

	mu       sync.Mutex
	closed   bool
	conns    []net.Conn
	last     map[string]time.Time // lease → last open or append
	recordMS []float64
}

func startAppendClock(target string) (*appendClock, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	c := &appendClock{ln: ln, target: target, url: "http://" + ln.Addr().String(), last: map[string]time.Time{}}
	c.wg.Add(1)
	go c.accept()
	return c, nil
}

func (c *appendClock) accept() {
	defer c.wg.Done()
	for {
		client, err := c.ln.Accept()
		if err != nil {
			return // closed
		}
		server, err := net.Dial("tcp", c.target)
		if err != nil {
			client.Close() // sweepd is gone; the worker sees the connection drop
			continue
		}
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			client.Close()
			server.Close()
			return
		}
		c.conns = append(c.conns, client, server)
		c.wg.Add(2)
		c.mu.Unlock()
		go func() {
			defer c.wg.Done()
			io.Copy(client, server)
			client.Close()
		}()
		go func() {
			defer c.wg.Done()
			c.relayRequests(client, server)
			server.Close()
		}()
	}
}

// relayRequests copies the worker's requests to sweepd. A worker sends
// each request in one write and waits for the answer before the next,
// so every request line starts a read.
func (c *appendClock) relayRequests(client, server net.Conn) {
	buf := make([]byte, 64<<10)
	for {
		n, err := client.Read(buf)
		if n > 0 {
			c.stamp(buf[:n], time.Now())
			if _, err := server.Write(buf[:n]); err != nil {
				return
			}
		}
		if err != nil {
			return
		}
	}
}

// stamp notes a checkpoint open or append whose request line starts chunk.
func (c *appendClock) stamp(chunk []byte, now time.Time) {
	line, _, _ := bytes.Cut(chunk, []byte("\r\n"))
	rest, ok := bytes.CutPrefix(line, []byte("POST /fabric/v1/ckpt/"))
	if !ok {
		return
	}
	isAppend := bytes.HasPrefix(rest, []byte("append?"))
	if !isAppend && !bytes.HasPrefix(rest, []byte("open?")) {
		return
	}
	target, _, _ := bytes.Cut(rest, []byte(" "))
	_, query, _ := bytes.Cut(target, []byte("?"))
	q, err := url.ParseQuery(string(query))
	if err != nil {
		return
	}
	lease := q.Get("lease")
	c.mu.Lock()
	defer c.mu.Unlock()
	if t, ok := c.last[lease]; ok && isAppend {
		c.recordMS = append(c.recordMS, float64(now.Sub(t))/1e6)
	}
	c.last[lease] = now
}

// close stops the relay and waits for its goroutines; it returns the
// per-record latencies, in ms.
func (c *appendClock) close() []float64 {
	c.ln.Close()
	c.mu.Lock()
	c.closed = true
	for _, cn := range c.conns {
		cn.Close()
	}
	c.mu.Unlock()
	c.wg.Wait()
	return c.recordMS
}

// sweepRound runs the spec through `sweep` (local engine), then through
// `sweepd -once` with two `sweep -coordinator` workers, which reach it
// through an appendClock, and gates the fabric-merged table against the
// local one byte for byte.
func sweepRound(cfg runConfig, spec sweep.Spec, r int, res *result) (*roundData, error) {
	localDir := filepath.Join(cfg.work, fmt.Sprintf("local-%d", r))
	fabDir := filepath.Join(cfg.work, fmt.Sprintf("fabric-%d", r))
	defer os.RemoveAll(localDir)
	defer os.RemoveAll(fabDir)
	rd := &roundData{local: round{n: spec.Count}, fabric: round{n: spec.Count}}
	sweepBin := filepath.Join(cfg.bin, "sweep")

	var local bytes.Buffer
	s0 := stealJiffies()
	t0 := time.Now()
	p, err := startProc("sweep", sweepBin, append(specArgs(spec), "-dir", localDir,
		"-shards", strconv.Itoa(sweepShards), "-workers", strconv.Itoa(sweepWorkers)), &local)
	if err != nil {
		return nil, err
	}
	if err := p.wait(150 * time.Second); err != nil {
		p.stop(syscall.SIGKILL, time.Second)
		return nil, fmt.Errorf("local sweep: %v: %s", err, p.stderr())
	}
	rd.local.wall = time.Since(t0)
	rd.local.steal = stealJiffies() - s0

	var merged bytes.Buffer
	t0 = time.Now()
	sd, err := startProc("sweepd", filepath.Join(cfg.bin, "sweepd"), append(specArgs(spec), "-dir", fabDir,
		"-shards", strconv.Itoa(sweepShards), "-addr", "127.0.0.1:0", "-once"), &merged)
	if err != nil {
		return nil, err
	}
	defer sd.stop(syscall.SIGKILL, time.Second)
	addr, err := sd.awaitLine(") on ", 30*time.Second)
	if err != nil {
		return nil, err
	}
	url := "http://" + addr
	clock, err := startAppendClock(addr)
	if err != nil {
		return nil, err
	}
	defer clock.close()
	var workers []*proc
	for k := 0; k < sweepWorkers; k++ {
		w, err := startProc("worker", sweepBin, []string{"-coordinator", clock.url, "-id", fmt.Sprintf("w%d", k),
			"-workers", "1"}, nil)
		if err != nil {
			return nil, err
		}
		defer w.stop(syscall.SIGKILL, time.Second)
		workers = append(workers, w)
	}
	if err := awaitLeases(url, sweepWorkers, sd); err != nil {
		return nil, err
	}
	rd.setup = time.Since(t0)
	all := append([]*proc{sd}, workers...)
	var ticks0 int64
	for _, q := range all {
		t, err := q.cpuTicks()
		if err != nil {
			return nil, err
		}
		ticks0 += t
	}
	s0 = stealJiffies()
	phase0 := time.Now()
	if err := sd.wait(150 * time.Second); err != nil {
		return nil, fmt.Errorf("sweepd: %v: %s", err, sd.stderr())
	}
	rd.fabric.wall = time.Since(phase0)
	rd.fabric.steal = stealJiffies() - s0
	// The worker that completed the last shard exits on its own; the
	// other may be waiting out a back-off hint against a coordinator
	// that is gone. The sweep is merged, so stop it.
	for _, w := range workers {
		if w.wait(200*time.Millisecond) != nil {
			w.stop(syscall.SIGTERM, 2*time.Second)
		}
	}
	cpu := -time.Duration(ticks0) * clockTick
	for _, q := range all {
		cpu += q.cpuTotal()
		rd.rssMB = max(rd.rssMB, q.maxRSSMB())
	}
	rd.cpu = cpu
	rd.fabric.ticks = int64(cpu / clockTick)

	// Answer gate: the fabric must merge exactly the local engine's table.
	if local.Len() == 0 || !bytes.Equal(local.Bytes(), merged.Bytes()) {
		res.failN(spec.Count, "round %d: fabric-merged table differs from the local engine's", r)
	}
	recs, err := readShards(fabDir)
	if err != nil {
		return nil, err
	}
	if len(recs) != spec.Count {
		res.failN(spec.Count, "round %d: fabric checkpoints hold %d records, want %d", r, len(recs), spec.Count)
	}
	if rd.recordMS = clock.close(); len(rd.recordMS) == 0 {
		return nil, fmt.Errorf("round %d: no checkpoint appends passed the proxy", r)
	}
	return rd, nil
}

// awaitLeases polls the coordinator's status until n leases have been
// granted — every worker holds its first lease.
func awaitLeases(url string, n int, sd *proc) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) && !sd.exited() {
		resp, err := http.Get(url + "/fabric/v1/status")
		if err == nil {
			var st fabric.Status
			err = json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if err == nil && st.Attempts >= n {
				return nil
			}
		}
		time.Sleep(500 * time.Microsecond)
	}
	return fmt.Errorf("workers never held %d leases: %s", n, sd.stderr())
}

func readShards(dir string) ([]sweep.Record, error) {
	var recs []sweep.Record
	for s := 0; s < sweepShards; s++ {
		rs, _, err := sweep.ReadCheckpointFile(sweep.ShardPath(dir, s, sweepShards))
		if err != nil {
			return nil, err
		}
		recs = append(recs, rs...)
	}
	return recs, nil
}

// ---- traced run: the same spec in process ----

// timedBackend decorates the local checkpoint store: every shard
// writer's Append is a span under the current shard span.
type timedBackend struct {
	sweep.DirBackend
	tr     *tracer
	parent int32
}

func (b *timedBackend) OpenShard(name string, validLen int64, syncEvery int) (sweep.ShardWriter, error) {
	w, err := b.DirBackend.OpenShard(name, validLen, syncEvery)
	if err != nil {
		return nil, err
	}
	return &timedWriter{ShardWriter: w, tr: b.tr, parent: b.parent}, nil
}

type timedWriter struct {
	sweep.ShardWriter
	tr     *tracer
	parent int32
}

func (w *timedWriter) Append(rec sweep.Record) error {
	s := w.tr.begin(spSweepAppend, w.parent, rec.Index)
	err := w.ShardWriter.Append(rec)
	w.tr.end(s)
	return err
}

// rpcTimer is a fabric worker's HTTP transport: it times each round
// trip (body included) as a span named by its API path, and counts
// grants off the acquire responses.
type rpcTimer struct {
	base   http.RoundTripper
	tr     *tracer
	parent int32
	st     *rpcStats
}

type rpcStats struct {
	mu          sync.Mutex
	calls       map[string]int
	ns          map[string]int64
	failed      int
	grants      int
	speculative int
}

func (t *rpcTimer) RoundTrip(req *http.Request) (*http.Response, error) {
	path := strings.TrimPrefix(req.URL.Path, "/fabric/v1/")
	s := t.tr.begin("fabric.rpc."+path, t.parent, -1)
	t0 := time.Now()
	resp, err := t.base.RoundTrip(req)
	var data []byte
	if err == nil {
		data, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		resp.Body = io.NopCloser(bytes.NewReader(data))
	}
	d := time.Since(t0)
	t.tr.end(s)
	t.st.mu.Lock()
	defer t.st.mu.Unlock()
	t.st.calls[path]++
	t.st.ns[path] += int64(d)
	if err != nil || resp.StatusCode >= 500 {
		t.st.failed++
		return resp, err
	}
	if path == "acquire" && resp.StatusCode == http.StatusOK {
		var ar fabric.AcquireResult
		if json.Unmarshal(data, &ar) == nil && ar.Grant != nil {
			t.st.grants++
			if ar.Grant.Speculative {
				t.st.speculative++
			}
		}
	}
	return resp, nil
}

func traceSweep(cfg runConfig, spec sweep.Spec, res *result) error {
	tr := newTracer()
	res.spans = tr
	opt := sweep.Options{Workers: sweepWorkers}

	// The local engine, traced: one span per shard, one per append.
	// localRun runs the spec into a fresh directory; with a nil tracer
	// it records nothing.
	localRun := func(name string, tr *tracer) (time.Duration, sweep.DirBackend, error) {
		dir := sweep.NewDirBackend(filepath.Join(cfg.work, name))
		if err := os.MkdirAll(dir.Dir, 0o755); err != nil {
			return 0, dir, err
		}
		tb := &timedBackend{DirBackend: dir, tr: tr}
		t0 := time.Now()
		for shard := 0; shard < sweepShards; shard++ {
			tb.parent = tr.begin(spSweepShard, -1, shard)
			_, err := sweep.RunShardOn(tb, spec, shard, sweepShards, opt)
			tr.end(tb.parent)
			if err != nil {
				return 0, dir, err
			}
		}
		return time.Since(t0), dir, nil
	}
	// Tracing overhead: traced and untraced runs alternate, after one
	// untraced run that pays the process's warm-up; the medians compare.
	if _, _, err := localRun("warmup", nil); err != nil {
		return err
	}
	var traced, plain []float64
	var localStore sweep.DirBackend
	for k := 0; k < overheadPairs; k++ {
		ktr := newTracer() // spans of the repeats are dropped
		if k == 0 {
			ktr = tr
		}
		d, store, err := localRun(fmt.Sprintf("traced-%d", k), ktr)
		if err != nil {
			return err
		}
		if k == 0 {
			localStore = store
		}
		traced = append(traced, d.Seconds())
		if d, _, err = localRun(fmt.Sprintf("plain-%d", k), nil); err != nil {
			return err
		}
		plain = append(plain, d.Seconds())
	}
	ms := tr.begin(spSweepMerge, -1, -1)
	table, err := sweep.MergeOn(localStore, spec, sweepShards)
	tr.end(ms)
	if err != nil {
		return err
	}
	var local bytes.Buffer
	table.Render(&local)
	localRecs, err := readShards(localStore.Dir)
	if err != nil {
		return err
	}

	// In-process fabric, twice. Two workers, traced, as sweepd runs them:
	// RPC counts, leases, the merged table and the workers' compute share.
	// On one CPU an append round trip of either worker also waits out the
	// other's LP compute (about 1.9 ms against 0.3 ms alone on a 2-vCPU
	// Xeon VM), so fabric.append_rpc_us comes from a second run with one
	// worker, where the round trip is the client's and the coordinator's
	// own work.
	fab, err := inProcessFabric(cfg, spec, "fabric", sweepWorkers, tr)
	if err != nil {
		return err
	}
	solo, err := inProcessFabric(cfg, spec, "fabric-solo", 1, nil)
	if err != nil {
		return err
	}
	res.attempted = 3 * spec.Count
	for _, f := range []*fabricRun{fab, solo} {
		if !bytes.Equal(local.Bytes(), f.table) {
			res.failN(spec.Count, "in-process fabric table (%d workers) differs from the local engine's", f.workers)
		}
	}
	fabRecs, stats := fab.recs, fab.stats

	self := selfTimes(tr.spans)
	res.selfTimes = self
	kops := float64(spec.Count) / 1000
	L := res.layer
	var wallNS, fabWallNS int64
	pivots := 0
	for _, rec := range localRecs {
		wallNS += rec.WallNS
		if len(rec.Cells) == 6 {
			p, _ := strconv.Atoi(rec.Cells[5])
			pivots += p
		}
	}
	for _, rec := range fabRecs {
		fabWallNS += rec.WallNS
	}
	L["sweep.compute_ms_per_record"] = float64(wallNS) / 1e6 / float64(len(localRecs))
	if c := self[spSweepAppend].Calls; c > 0 {
		L["sweep.append_us"] = float64(self[spSweepAppend].SelfNS) / 1e3 / float64(c)
	}
	L["sweep.merge_ms"] = float64(self[spSweepMerge].SelfNS) / 1e6
	// Computed, not observed: each shard writer fsyncs every
	// DefaultSyncEvery records and once more on close for the remainder.
	fsyncs := 0
	for s := 0; s < sweepShards; s++ {
		n := (spec.Count - s + sweepShards - 1) / sweepShards
		fsyncs += (n + sweep.DefaultSyncEvery - 1) / sweep.DefaultSyncEvery
	}
	L["sweep.fsyncs_per_kop"] = float64(fsyncs) / kops
	L["lp.pivots_per_solve"] = float64(pivots) / float64(len(localRecs))
	for _, p := range []string{"acquire", "heartbeat", "complete", "ckpt/open", "ckpt/append", "ckpt/close"} {
		L["fabric."+strings.ReplaceAll(p, "/", "_")+"_per_record"] = float64(stats.calls[p]) / float64(spec.Count)
	}
	if c := stats.calls["ckpt/append"]; c > 0 {
		L["fabric.useful_ratio"] = float64(len(fabRecs)) / float64(c)
	}
	if c := solo.stats.calls["ckpt/append"]; c > 0 {
		L["fabric.append_rpc_us"] = float64(solo.stats.ns["ckpt/append"]) / 1e3 / float64(c)
	}
	L["fabric.failed_rpcs"] = float64(stats.failed)
	L["fabric.leases_granted"] = float64(stats.grants)
	L["fabric.speculative_leases"] = float64(stats.speculative)
	L["fabric.worker_compute_share"] = float64(fabWallNS) / (float64(sweepWorkers) * float64(fab.wall))
	L["trace.overhead_share"] = median(traced)/median(plain) - 1
	res.notes = append(res.notes, fmt.Sprintf("local traced %.3fs, local untraced %.3fs (medians of %d), fabric %.3fs, fabric with one worker %.3fs",
		median(traced), median(plain), overheadPairs, fab.wall.Seconds(), solo.wall.Seconds()),
		"sweep.fsyncs_per_kop is computed from the sync window, not observed",
		"fabric.append_rpc_us is from the one-worker run; the other fabric.* figures from the two-worker run")
	return nil
}

// fabricRun is what one in-process fabric run left behind.
type fabricRun struct {
	workers int
	wall    time.Duration // workers started → coordinator done
	table   []byte        // the merged table, rendered
	recs    []sweep.Record
	stats   *rpcStats
}

// inProcessFabric runs spec through a fabric.New coordinator and the
// given number of fabric.Workers, whose transports time every round
// trip; with a tracer, each worker and each round trip is a span.
func inProcessFabric(cfg runConfig, spec sweep.Spec, name string, workers int, tr *tracer) (*fabricRun, error) {
	dir := filepath.Join(cfg.work, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	coord, err := fabric.New(fabric.Config{Spec: spec, Shards: sweepShards, Store: sweep.NewDirBackend(dir)})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: coord.Handler()}
	go hs.Serve(ln)
	defer hs.Close()
	url := "http://" + ln.Addr().String()
	fr := &fabricRun{workers: workers, stats: &rpcStats{calls: map[string]int{}, ns: map[string]int64{}}}
	run := tr.begin(spFabricRun, -1, -1)
	var wg sync.WaitGroup
	errs := make([]error, workers)
	t0 := time.Now()
	for k := 0; k < workers; k++ {
		ws := tr.begin(spFabricWork, run, k)
		timer := &rpcTimer{base: &http.Transport{MaxIdleConnsPerHost: 2}, tr: tr, parent: ws, st: fr.stats}
		w := &fabric.Worker{Client: &fabric.Client{URL: url, HTTP: &http.Client{Transport: timer}},
			ID: fmt.Sprintf("w%d", k), Options: sweep.Options{Workers: 1}}
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			errs[k] = w.Run()
			tr.end(ws)
		}(k)
	}
	select {
	case <-coord.Done():
		fr.wall = time.Since(t0)
	case <-time.After(150 * time.Second):
		return nil, fmt.Errorf("in-process fabric did not finish")
	}
	wg.Wait()
	tr.end(run)
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("fabric worker: %w", err)
		}
	}
	table, err := coord.Merge()
	if err != nil {
		return nil, err
	}
	var merged bytes.Buffer
	table.Render(&merged)
	fr.table = merged.Bytes()
	fr.recs, err = readShards(dir)
	return fr, err
}
