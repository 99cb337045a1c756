// Package loadgen is the sned load harness: N worker goroutines over M
// pooled TCP connections replaying a seeded instance mix against a
// running daemon, reporting throughput (req/s), latency quantiles
// (p50/p99/p999) and error counts. It drives either protocol — /v1 JSON
// bodies or /v2 binary frames — so the serving benchmarks can hold the
// binary path to its claimed multiple of the JSON baseline on the same
// mix, and CI can assert a real multi-connection process serves cleanly
// under concurrent load.
package loadgen

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"netdesign/internal/serve/wire"
)

// Config shapes one load run.
type Config struct {
	// URL is the full endpoint URL, e.g. http://127.0.0.1:8533/v2/sne.
	URL string

	// Binary marks the bodies as /v2 frames (sent as octet-stream and
	// answered by status frames); otherwise they are JSON.
	Binary bool

	// Bodies are the request bodies; worker w replays them round-robin
	// starting at offset w, so concurrent workers spread over the mix.
	Bodies [][]byte

	// Workers is the number of concurrent senders. Default 4.
	Workers int

	// Conns caps the pooled TCP connections to the host. Default =
	// Workers.
	Conns int

	// Duration bounds the run in wall time. Default 2s when Total is 0.
	// No request is issued after the deadline, and none is cancelled by
	// it: requests in flight then run to completion and count as their
	// answers say, so the window's edge adds no errors.
	Duration time.Duration

	// Total, when > 0, bounds the run in requests instead; the run stops
	// at whichever bound (Total, Duration) trips first.
	Total int

	// DecodeSNE makes each worker fully decode and validate every
	// response as an sne payload — json.Unmarshal on /v1 bodies,
	// wire.DecodeSNEResponse on /v2 frames — so the measured cost
	// includes what a real client pays to consume the answer, not just
	// the bytes on the wire. Off, responses are drained and only
	// status-checked.
	DecodeSNE bool

	// Pipeline coalesces this many request frames into each HTTP round
	// trip (binary protocol only; the server answers a frame per frame,
	// in order). 0 or 1 sends one frame per request. Requests, errors
	// and req/s count frames; latency quantiles are per round trip.
	Pipeline int

	// Reconnect retries a request up to this many times when the
	// transport fails — a pooled connection died, the daemon restarted —
	// with capped exponential backoff (10ms doubling to 500ms) between
	// tries. HTTP-status failures are never retried: a 4xx/5xx answer is
	// the server speaking, not the connection dying. Retries stop at the
	// Duration deadline, and the request then counts as failed. 0
	// disables, so a failed send is simply an error (the strict mode the
	// differential tests use).
	Reconnect int
}

// Result is one run's report.
type Result struct {
	Requests       int           // completed requests (errors included)
	Errors         int           // transport failures + non-200 + non-OK frames
	Reconnects     int           // transport retries that re-sent a request
	Elapsed        time.Duration // wall time of the measured window
	ReqPerSec      float64
	P50, P99, P999 time.Duration
}

func (r *Result) String() string {
	return fmt.Sprintf("%d req in %v (%.0f req/s), errors %d, reconnects %d, p50 %v p99 %v p999 %v",
		r.Requests, r.Elapsed.Round(time.Millisecond), r.ReqPerSec, r.Errors, r.Reconnects, r.P50, r.P99, r.P999)
}

// Run executes the configured load and reports.
func Run(cfg Config) (*Result, error) {
	if len(cfg.Bodies) == 0 {
		return nil, errors.New("loadgen: no request bodies")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.Conns <= 0 {
		cfg.Conns = cfg.Workers
	}
	if cfg.Duration <= 0 && cfg.Total <= 0 {
		cfg.Duration = 2 * time.Second
	}
	perOp := 1
	if cfg.Binary && cfg.Pipeline > 1 {
		// Pre-batch: body i carries frames i..i+P-1 (cyclic), so the
		// batched stream covers the mix the same way the flat one does.
		perOp = cfg.Pipeline
		batched := make([][]byte, len(cfg.Bodies))
		for i := range cfg.Bodies {
			var b []byte
			for k := 0; k < perOp; k++ {
				b = append(b, cfg.Bodies[(i+k)%len(cfg.Bodies)]...)
			}
			batched[i] = b
		}
		cfg.Bodies = batched
	}
	contentType := "application/json"
	if cfg.Binary {
		contentType = "application/octet-stream"
	}
	tr := &http.Transport{
		MaxIdleConns:        cfg.Conns,
		MaxIdleConnsPerHost: cfg.Conns,
		MaxConnsPerHost:     cfg.Conns,
	}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}

	// stop is done at the Duration deadline. It gates issuing new
	// requests and the reconnect backoff only; requests themselves run
	// under no deadline, so those in flight at the deadline drain.
	stop := context.Background()
	if cfg.Duration > 0 {
		var cancel context.CancelFunc
		stop, cancel = context.WithTimeout(stop, cfg.Duration)
		defer cancel()
	}

	var sent atomic.Int64 // tickets: worker proceeds only while < Total
	var errs, recon atomic.Int64
	lats := make([][]time.Duration, cfg.Workers)
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			my := make([]time.Duration, 0, 1024)
			ws := &workerScratch{body: bytes.NewReader(nil), buf: make([]byte, 4096)}
			for i := w; ; i++ {
				if stop.Err() != nil {
					break
				}
				if cfg.Total > 0 && sent.Add(int64(perOp)) > int64(cfg.Total) {
					break
				}
				body := cfg.Bodies[i%len(cfg.Bodies)]
				q0 := time.Now()
				if failed := doOne(stop, client, &cfg, contentType, body, perOp, ws, &recon); failed > 0 {
					errs.Add(int64(failed))
				}
				my = append(my, time.Since(q0))
			}
			lats[w] = my
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(t0)

	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	res := &Result{
		Requests:   len(all) * perOp,
		Errors:     int(errs.Load()),
		Reconnects: int(recon.Load()),
		Elapsed:    elapsed,
	}
	if elapsed > 0 {
		res.ReqPerSec = float64(res.Requests) / elapsed.Seconds()
	}
	res.P50 = quantile(all, 0.50)
	res.P99 = quantile(all, 0.99)
	res.P999 = quantile(all, 0.999)
	return res, nil
}

// workerScratch is one sender's reusable request/response plumbing: the
// body reader is Reset per request, responses are read into a growable
// per-worker buffer, and the decoded-response struct recycles its
// subsidy slice — the harness's own garbage stays out of the
// measurement (client and server share cores in the benchmark setup).
type workerScratch struct {
	body *bytes.Reader
	buf  []byte
	sne  wire.SNEResponse
}

// readAll reads r to EOF into the worker's reusable buffer.
func (ws *workerScratch) readAll(r io.Reader) ([]byte, error) {
	n := 0
	for {
		if n == len(ws.buf) {
			ws.buf = append(ws.buf, make([]byte, len(ws.buf)+512)...)
		}
		m, err := r.Read(ws.buf[n:])
		n += m
		if err == io.EOF {
			return ws.buf[:n], nil
		}
		if err != nil {
			return ws.buf[:n], err
		}
	}
}

// doOne sends one round trip of perOp requests and returns how many
// failed. Success is HTTP 200, a well-formed OK status frame per
// pipelined frame on the binary protocol, and (with DecodeSNE) a fully
// decodable response on either protocol. Transport failures — a dead
// pooled connection, a daemon mid-restart — are retried up to
// cfg.Reconnect times with capped exponential backoff, until stop is
// done; an HTTP error status is an answer and is never retried.
func doOne(stop context.Context, client *http.Client, cfg *Config, contentType string, body []byte, perOp int, ws *workerScratch, recon *atomic.Int64) int {
	var raw []byte
	var resp *http.Response
	backoff := 10 * time.Millisecond
	for attempt := 0; ; attempt++ {
		ws.body.Reset(body)
		req, err := http.NewRequest(http.MethodPost, cfg.URL, ws.body)
		if err != nil {
			return perOp
		}
		req.ContentLength = int64(len(body))
		req.Header.Set("Content-Type", contentType)
		resp, err = client.Do(req)
		if err == nil {
			raw, err = ws.readAll(resp.Body)
			resp.Body.Close()
			if err == nil {
				break
			}
		}
		if attempt >= cfg.Reconnect || stop.Err() != nil {
			return perOp
		}
		select {
		case <-stop.Done():
			return perOp
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > 500*time.Millisecond {
			backoff = 500 * time.Millisecond
		}
		recon.Add(1)
	}
	if resp.StatusCode != http.StatusOK {
		return perOp
	}
	if cfg.Binary {
		return perOp - ws.okFrames(raw, perOp, cfg.DecodeSNE)
	}
	if cfg.DecodeSNE {
		ws.sne = wire.SNEResponse{Subsidies: ws.sne.Subsidies[:0]}
		if json.Unmarshal(raw, &ws.sne) != nil {
			return 1
		}
	}
	return 0
}

// okFrames walks the response frames in raw and counts the well-formed
// OK ones, up to want (frame header (4) + status byte; StatusOK is 0).
func (ws *workerScratch) okFrames(raw []byte, want int, decodeSNE bool) int {
	ok := 0
	for off := 0; ok < want && off+4 <= len(raw); {
		n := int(binary.LittleEndian.Uint32(raw[off:]))
		off += 4
		if n < 1 || off+n > len(raw) {
			break
		}
		frame := raw[off : off+n]
		off += n
		good := frame[0] == 0
		if good && decodeSNE {
			good = wire.DecodeSNEResponse(frame[1:], &ws.sne) == nil
		}
		if good {
			ok++
		}
	}
	return ok
}

// quantile picks the q-th element of sorted latencies (nearest-rank).
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
