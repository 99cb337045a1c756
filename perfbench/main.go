// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It drives the real programs built from this checkout —
// sned, sweepd and sweep -coordinator — over seeded inputs it generates
// itself, checks every answer, and prints one JSON result line.
//
// Usage (run.sh builds everything first):
//
//	bash perfbench/run.sh --workload sne-jitter-v2 --seed 1 --seconds 12 --trace 0
//
// Workloads (closed loop, count-bounded rounds):
//
//	sne-jitter-v2  /v2/sne frames over one E22 jitter family (n=96) on
//	               one connection: every request a basis-cache hit and
//	               a warm ResolveFrom.
//	sne-cold-v1    /v1/sne JSON over fresh structures (n in 62–66, about
//	               770 LP rows); each sned serves one walk of a grid of
//	               2100 LP fingerprints: every lookup misses, every answer
//	               is a cold solve and a cache Put.
//	sweep-sne-lp   the sne-lp scenario (size 48, spread 8, warm=0, 8
//	               shards) through `sweep` (2 goroutines) and through
//	               `sweepd -once` with 2 single-goroutine workers, which
//	               reach it through a TCP relay that times each record.
//
// Everything runs on one CPU (see pinToOneCPU): the sweep's goroutines
// and processes time-slice it, so a gain or loss from running them in
// parallel does not show.
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 the same workload and seed is replayed through each layer's
// public functions with a span around every call, and the result
// carries the per-layer metrics. Spans are written under
// .bench_build/trace, and a record of every run (host, inputs digest,
// sample counts) under .bench_build/runs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

const (
	wlJitter = "sne-jitter-v2"
	wlCold   = "sne-cold-v1"
	wlSweep  = "sweep-sne-lp"
)

// metricSpec mirrors one metric entry of BENCHMARK.json.
type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

var endToEnd = []metricSpec{
	{"ops_per_s", "1/s", "higher"},
	{"p50_ms", "ms", "lower"},
	{"p99_ms", "ms", "lower"},
	{"local_ops_per_s", "1/s", "higher"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"max_rss_mb", "MiB", "lower"},
	{"setup_s", "s", "lower"},
}

var perLayer = []metricSpec{
	{"wire.decode_us", "us", "lower"},
	{"wire.encode_us", "us", "lower"},
	{"wire.req_bytes", "bytes", "lower"},
	{"wire.resp_bytes", "bytes", "lower"},
	{"serve.json_us", "us", "lower"},
	{"instancefile.decode_us", "us", "lower"},
	{"broadcast.state_us", "us", "lower"},
	{"sne.lp_build_us", "us", "lower"},
	{"sne.verify_us", "us", "lower"},
	{"lp.solve_us", "us", "lower"},
	{"lp.pivots_per_solve", "count", "lower"},
	{"lp.us_per_pivot", "us", "lower"},
	{"lp.warm_share", "ratio", "higher"},
	{"serve.cache_hit_ratio", "ratio", "higher"},
	{"serve.warm_solves", "count", "higher"},
	{"serve.cold_solves", "count", "lower"},
	{"serve.shed", "count", "lower"},
	{"serve.errors", "count", "lower"},
	{"serve.gc_runs_per_kop", "1/kop", "lower"},
	{"serve.gc_pause_ms", "ms/kop", "lower"},
	{"serve.overhead_us", "us", "lower"},
	{"replay.request_us", "us", "lower"},
	{"replay.attributed_share", "ratio", "higher"},
	{"trace.overhead_share", "ratio", "lower"},
	{"sweep.compute_ms_per_record", "ms", "lower"},
	{"sweep.append_us", "us", "lower"},
	{"sweep.merge_ms", "ms", "lower"},
	{"sweep.fsyncs_per_kop", "1/kop", "lower"},
	{"fabric.acquire_per_record", "count", "lower"},
	{"fabric.heartbeat_per_record", "count", "lower"},
	{"fabric.complete_per_record", "count", "lower"},
	{"fabric.ckpt_open_per_record", "count", "lower"},
	{"fabric.ckpt_append_per_record", "count", "lower"},
	{"fabric.ckpt_close_per_record", "count", "lower"},
	{"fabric.append_rpc_us", "us", "lower"},
	{"fabric.failed_rpcs", "count", "lower"},
	{"fabric.leases_granted", "count", "lower"},
	{"fabric.speculative_leases", "count", "lower"},
	{"fabric.useful_ratio", "ratio", "higher"},
	{"fabric.worker_compute_share", "ratio", "higher"},
}

// runConfig is one invocation.
type runConfig struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	root     string // checkout root
	bin      string // built programs
	work     string // scratch directory of this run, removed at exit
}

// result is what a run measured. Per-layer metrics a workload does not
// exercise stay 0: that layer did no work.
type result struct {
	cfg       runConfig
	correct   bool
	attempted int
	failed    int
	failures  []string
	e2e       map[string]float64
	layer     map[string]float64
	samples   map[string]int
	digest    string
	host      hostInfo
	selfTimes map[string]layerStat
	spans     *tracer
	notes     []string
	rounds    []round
}

// round is one count-bounded batch of the measured phase (or of a
// replay): its ops, wall time, the host's steal meanwhile and the
// program's CPU ticks.
type round struct {
	first, n int // ops [first, first+n) of the phase
	wall     time.Duration
	steal    int64
	ticks    int64
}

func (r round) rate() float64 { return float64(r.n) / r.wall.Seconds() }

// MarshalJSON keeps a round's record readable.
func (r round) MarshalJSON() ([]byte, error) {
	return json.Marshal(map[string]any{"ops": r.n, "wall_s": r.wall.Seconds(), "steal_jiffies": r.steal, "cpu_ticks": r.ticks})
}

// reported picks the rounds whose figures a run reports, in phase
// order: of the half of the rounds with the least host steal per second
// (steal is read host-wide from /proc/stat, so this half is chosen
// without looking at the figures), the slower half — about the lower
// quartile of the undisturbed rounds. Two host effects move wall-clock
// figures on a shared machine. Steal comes in bursts, and a round that
// overlaps one measures the neighbours. And for seconds at a time the
// CPU runs up to 1.8× faster (the host's other hyperthread going idle,
// by the look of it): on a 2-vCPU Xeon VM three of ten sne-jitter-v2
// runs caught such a spell and the spread of their median round rate
// across seeds rose from 0.05 to 0.40 of the median; of this selection,
// to 0.23, with the median of the ten runs moving 0.4%. A change to the
// program moves every round, so it moves the selection too.
func reported(rs []round) []int {
	idx := leastStolen(rs)
	sort.SliceStable(idx, func(a, b int) bool { return rs[idx[a]].rate() < rs[idx[b]].rate() })
	idx = idx[:(len(idx)+1)/2]
	sort.Ints(idx)
	return idx
}

// leastStolen is the half of the rounds with the least host steal per
// second, in phase order.
func leastStolen(rs []round) []int {
	idx := make([]int, len(rs))
	for i := range idx {
		idx[i] = i
	}
	steal := func(i int) float64 { return float64(rs[i].steal) / rs[i].wall.Seconds() }
	sort.SliceStable(idx, func(a, b int) bool { return steal(idx[a]) < steal(idx[b]) })
	idx = idx[:(len(idx)+1)/2]
	sort.Ints(idx)
	return idx
}

func newResult(cfg runConfig) *result {
	return &result{cfg: cfg, correct: true, layer: map[string]float64{}, samples: map[string]int{}}
}

// fail records one failed op.
func (r *result) fail(format string, args ...any) { r.failN(1, format, args...) }

// failN records n failed ops under one message.
func (r *result) failN(n int, format string, args ...any) {
	r.correct = false
	r.failed += n
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func main() {
	var cfg runConfig
	flag.StringVar(&cfg.workload, "workload", "", "workload name: "+wlJitter+", "+wlCold+" or "+wlSweep)
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.IntVar(&cfg.seconds, "seconds", 12, "measured-phase budget in seconds")
	trace := flag.Int("trace", 0, "1: traced per-layer run")
	flag.StringVar(&cfg.root, "root", ".", "checkout root; programs are read from <root>/.bench_build/bin")
	flag.Parse()
	cfg.trace = *trace == 1
	pinToOneCPU()
	os.Exit(run(cfg))
}

// pinToOneCPU re-executes the benchmark confined to the last CPU; the
// programs it starts inherit the confinement (and with it GOMAXPROCS 1).
// On a shared host a second busy virtual CPU is what draws steal. On a
// 2-vCPU Xeon VM the hypervisor took up to half the CPU time
// once both were busy and under 5% with one, and the second vCPU added
// no throughput: the local sweep engine ran 672 records/s pinned against
// 400–840 unpinned. Pinning cut the seed-to-seed spread of
// sne-jitter-v2's ops_per_s from 0.14 to 0.05 of the median and its
// p99_ms from 4.0–8.2 ms to 2.3–2.6 ms. The sne workloads keep one
// request in flight; the sweep's two goroutines and two workers still
// run concurrently, time-sliced. Without taskset, or already confined
// (the re-executed process sees one CPU: Go reads the affinity set at
// start), the run goes on as it is; the run record notes the CPUs used.
func pinToOneCPU() {
	if runtime.NumCPU() == 1 {
		return
	}
	taskset, err := exec.LookPath("taskset")
	if err != nil {
		return
	}
	self, err := os.Executable()
	if err != nil {
		return
	}
	cpu, ok := lastAllowedCPU()
	if !ok {
		return
	}
	args := append([]string{"taskset", "-c", strconv.Itoa(cpu), self}, os.Args[1:]...)
	err = syscall.Exec(taskset, args, os.Environ())
	fmt.Fprintln(os.Stderr, "perfbench: running unpinned:", err)
}

// lastAllowedCPU is the highest CPU in this process's affinity set
// (Cpus_allowed_list in /proc/self/status, e.g. "0-3,6").
func lastAllowedCPU() (int, bool) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(data), "\n") {
		list, ok := strings.CutPrefix(line, "Cpus_allowed_list:")
		if !ok {
			continue
		}
		ranges := strings.Split(strings.TrimSpace(list), ",")
		_, hi, _ := strings.Cut(ranges[len(ranges)-1], "-")
		if hi == "" {
			hi = ranges[len(ranges)-1]
		}
		cpu, err := strconv.Atoi(hi)
		return cpu, err == nil
	}
	return 0, false
}

func run(cfg runConfig) int {
	defer stopAll()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		stopAll()
		os.Exit(2)
	}()
	// The contract allows 180 s per run; stop everything well before.
	time.AfterFunc(170*time.Second, func() {
		fmt.Fprintln(os.Stderr, "perfbench: run exceeded 170s, stopping")
		stopAll()
		os.Exit(3)
	})

	build := filepath.Join(cfg.root, ".bench_build")
	cfg.bin = filepath.Join(build, "bin")
	cfg.work = filepath.Join(build, "work", fmt.Sprintf("%s-%d-%d", cfg.workload, cfg.seed, os.Getpid()))
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(cfg.work)

	var res *result
	var err error
	switch cfg.workload {
	case wlJitter, wlCold:
		res, err = runSNE(cfg)
	case wlSweep:
		res, err = runSweep(cfg)
	default:
		err = fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	steal := res.host.StealJiffy
	res.host = collectHost(cfg.root, cfg.work)
	res.host.StealJiffy = steal
	if err := report(res, build); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if !res.correct {
		return 1
	}
	return 0
}

// report prints the human summary and the result line, and stores the
// run record and spans.
func report(res *result, build string) error {
	cfg := res.cfg
	specs, values := endToEnd, res.e2e
	if cfg.trace {
		specs, values = perLayer, res.layer
	}
	fmt.Printf("workload %s seed %d trace %v: inputs digest %s\n", cfg.workload, cfg.seed, cfg.trace, res.digest)
	fmt.Printf("host: %s, %d CPUs, GOMAXPROCS %d, %s, commit %s, source %s, scratch fs %s, steal %d jiffies in phase\n",
		res.host.CPUModel, res.host.NumCPU, res.host.GOMAXPROCS, res.host.GoVersion, res.host.Commit,
		res.host.SourceHash, res.host.ScratchFS, res.host.StealJiffy)
	metrics := make(map[string]map[string]any, len(specs))
	for _, m := range specs {
		v := values[m.Name]
		metrics[m.Name] = map[string]any{"value": v, "unit": m.Unit}
		if n, ok := res.samples[m.Name]; ok {
			fmt.Printf("  %-32s %14.6g %-6s (n=%d)\n", m.Name, v, m.Unit, n)
		} else {
			fmt.Printf("  %-32s %14.6g %s\n", m.Name, v, m.Unit)
		}
	}
	if len(res.selfTimes) > 0 {
		fmt.Println("self time by layer:")
		for _, name := range sortedKeys(res.selfTimes) {
			st := res.selfTimes[name]
			fmt.Printf("  %-28s %10.3f ms over %d calls\n", name, float64(st.SelfNS)/1e6, st.Calls)
		}
	}
	for _, n := range res.notes {
		fmt.Println(n)
	}
	fmt.Printf("ops attempted %d, failed %d\n", res.attempted, res.failed)
	for _, f := range res.failures {
		fmt.Println("FAIL:", f)
	}

	tag := fmt.Sprintf("%s-seed%d-trace%d", cfg.workload, cfg.seed, btoi(cfg.trace))
	if res.spans != nil {
		dir := filepath.Join(build, "trace")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		if err := res.spans.write(filepath.Join(dir, tag+".spans.jsonl")); err != nil {
			return err
		}
	}
	record := map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "seconds": cfg.seconds, "trace": cfg.trace,
		"inputs_digest": res.digest, "host": res.host, "samples": res.samples,
		"end_to_end": res.e2e, "per_layer": res.layer, "self_times": res.selfTimes,
		"attempted": res.attempted, "failed": res.failed, "failures": res.failures, "rounds": res.rounds,
		"time": time.Now().UTC().Format(time.RFC3339),
	}
	dir := filepath.Join(build, "runs")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(record, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, tag+".json"), data, 0o644); err != nil {
		return err
	}

	line, err := json.Marshal(map[string]any{
		"correct": res.correct, "attempted": res.attempted, "failed": res.failed, "metrics": metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// ---- statistics ----

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the linearly interpolated q-quantile; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// sortedKeys lists a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
