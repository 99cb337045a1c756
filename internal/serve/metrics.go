package serve

import (
	"fmt"
	"math/bits"
	"runtime"
	"strings"
	"sync/atomic"
	"time"
)

// Endpoint indices for the per-endpoint counters. The _v2 rows are the
// binary-protocol twins of the /v1 endpoints.
const (
	epCheck = iota
	epSNE
	epSND
	epPoS
	epCheckV2
	epSNEV2
	epSNDV2
	epPoSV2
	nEndpoints
)

var endpointNames = [nEndpoints]string{"check", "sne", "snd", "pos", "check_v2", "sne_v2", "snd_v2", "pos_v2"}

// latBuckets is the number of power-of-two latency buckets: bucket i
// counts requests with latency in [2^i, 2^(i+1)) microseconds, so the
// histogram spans 1 µs .. ~17 min with zero allocation per observation.
const latBuckets = 30

// metrics is the server's operational ledger: atomic counters only, so
// the hot path never takes a lock, and /metrics renders a consistent-
// enough snapshot by reading them in one pass.
type metrics struct {
	reqs [nEndpoints]atomic.Int64
	errs [nEndpoints]atomic.Int64
	lat  [nEndpoints][latBuckets]atomic.Int64

	warmSolves atomic.Int64
	coldSolves atomic.Int64

	inflight atomic.Int64
	shed     atomic.Int64
	started  time.Time
}

func newMetrics() *metrics { return &metrics{started: time.Now()} }

// observe records one finished request on endpoint ep.
func (m *metrics) observe(ep int, d time.Duration, failed bool) {
	m.reqs[ep].Add(1)
	if failed {
		m.errs[ep].Add(1)
	}
	us := d.Microseconds()
	if us < 1 {
		us = 1
	}
	b := bits.Len64(uint64(us)) - 1
	if b >= latBuckets {
		b = latBuckets - 1
	}
	m.lat[ep][b].Add(1)
}

// quantile estimates the q-quantile (0 < q < 1) of an endpoint's latency
// histogram in seconds, by walking the buckets and reporting the upper
// bound of the one holding the q-th observation. Zero when unobserved.
func (m *metrics) quantile(ep int, q float64) float64 {
	var counts [latBuckets]int64
	total := int64(0)
	for i := range counts {
		counts[i] = m.lat[ep][i].Load()
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	rank := int64(q*float64(total)) + 1
	if rank > total {
		rank = total
	}
	seen := int64(0)
	for i, c := range counts {
		seen += c
		if seen >= rank {
			return float64(uint64(1)<<(i+1)) / 1e6 // bucket upper bound, µs → s
		}
	}
	return float64(uint64(1)<<latBuckets) / 1e6
}

// render emits the ledger in the flat `name{labels} value` text form
// scrapers expect. Besides the summary quantiles, each endpoint with
// traffic exports its full cumulative latency histogram (le = bucket
// upper bound in seconds), so scrapers can compute any quantile across
// scrapes instead of trusting the in-process estimate. The basis hits and
// misses are the warm and cold lp solves (a hit: the drawn chain held the
// request's exact structure); they keep their sned_basis_cache_* names
// for the scrapers that read them.
func (m *metrics) render() string {
	var b strings.Builder
	for ep := 0; ep < nEndpoints; ep++ {
		name := endpointNames[ep]
		fmt.Fprintf(&b, "sned_requests_total{endpoint=%q} %d\n", name, m.reqs[ep].Load())
		fmt.Fprintf(&b, "sned_errors_total{endpoint=%q} %d\n", name, m.errs[ep].Load())
		fmt.Fprintf(&b, "sned_latency_seconds{endpoint=%q,quantile=\"0.5\"} %g\n", name, m.quantile(ep, 0.5))
		fmt.Fprintf(&b, "sned_latency_seconds{endpoint=%q,quantile=\"0.99\"} %g\n", name, m.quantile(ep, 0.99))
		cum := int64(0)
		for i := 0; i < latBuckets; i++ {
			cum += m.lat[ep][i].Load()
		}
		if cum == 0 {
			continue // no traffic: skip the 30 all-zero bucket rows
		}
		cum = 0
		for i := 0; i < latBuckets; i++ {
			cum += m.lat[ep][i].Load()
			fmt.Fprintf(&b, "sned_latency_seconds_bucket{endpoint=%q,le=%q} %d\n",
				name, fmt.Sprintf("%g", float64(uint64(1)<<(i+1))/1e6), cum)
		}
		fmt.Fprintf(&b, "sned_latency_seconds_bucket{endpoint=%q,le=\"+Inf\"} %d\n", name, cum)
		fmt.Fprintf(&b, "sned_latency_seconds_count{endpoint=%q} %d\n", name, cum)
	}
	hits, misses := m.warmSolves.Load(), m.coldSolves.Load()
	fmt.Fprintf(&b, "sned_basis_cache_hits_total %d\n", hits)
	fmt.Fprintf(&b, "sned_basis_cache_misses_total %d\n", misses)
	hitRate := 0.0
	if hits+misses > 0 {
		hitRate = float64(hits) / float64(hits+misses)
	}
	fmt.Fprintf(&b, "sned_basis_cache_hit_rate %g\n", hitRate)
	fmt.Fprintf(&b, "sned_solves_total{mode=\"warm\"} %d\n", hits)
	fmt.Fprintf(&b, "sned_solves_total{mode=\"cold\"} %d\n", misses)
	fmt.Fprintf(&b, "sned_inflight_requests %d\n", m.inflight.Load())
	fmt.Fprintf(&b, "sned_shed_requests_total %d\n", m.shed.Load())
	fmt.Fprintf(&b, "sned_uptime_seconds %g\n", time.Since(m.started).Seconds())

	// Go runtime health: goroutine count and the GC ledger. ReadMemStats
	// stops the world for microseconds — fine at scrape rates, nowhere
	// near the request path.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	fmt.Fprintf(&b, "sned_goroutines %d\n", runtime.NumGoroutine())
	fmt.Fprintf(&b, "sned_gc_runs_total %d\n", ms.NumGC)
	fmt.Fprintf(&b, "sned_gc_pause_seconds_total %g\n", float64(ms.PauseTotalNs)/1e9)
	fmt.Fprintf(&b, "sned_heap_alloc_bytes %d\n", ms.HeapAlloc)
	return b.String()
}
