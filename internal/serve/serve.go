// Package serve is the subsidy-as-a-service layer: a concurrent HTTP
// daemon (cmd/sned) answering equilibrium-check, PoS-estimate and
// subsidy/enforcement queries over submitted broadcast instances, at
// request rates the batch CLIs cannot touch.
//
// The speed comes from the sweep stack's warm-start machinery: each lp
// request draws a pooled LP (3) chain (sne.BroadcastLPChain), and when
// the instance has exactly the structure that chain solved last, the
// chain patches its model and re-solves from its own optimal basis by
// lp.ResolveFrom — a few dual pivots instead of a cold solve. Any other
// instance solves cold.
//
// Operationally the server is a long-lived process. Every solve route,
// /v1 and /v2 alike, runs through one request envelope: an inflight
// gauge with load shedding past Config.MaxInflight, POST only, a
// request-body size cap, and one context deadline per request. The
// deadline is checked when the solve returns: a request past its budget
// answers 503 "request timed out" then, and holds its inflight slot
// until then. /healthz answers liveness, /readyz readiness, /metrics
// request counts, p50/p99 latency, basis hit rate and warm-vs-cold
// solve counts; graceful shutdown drains in-flight solves.
//
// Endpoints (/v1 bodies are JSON with the instance in the instancefile
// text format shared with the CLIs; /v2 bodies are the binary frames of
// package wire, carrying the same requests):
//
//	POST /v1/check  {"instance": ...}                      → equilibrium verdict + violation
//	POST /v1/sne    {"instance": ..., "method": "lp"}      → minimum enforcing subsidies
//	POST /v1/snd    {"instance": ..., "budget": B, ...}    → budgeted stable design
//	POST /v1/pos    {"instance": ..., "starts": k, ...}    → PoS estimate (swap descent)
//	POST /v2/check, /v2/sne, /v2/snd, /v2/pos              → the same, as binary frames
//	GET  /healthz, /readyz                                 → "ok", "ready" or 503 "draining"
//	GET  /metrics                                          → operational counters
//
// Responses are bit-identical to the corresponding batch solvers — the
// differential suite in serve_test.go holds every endpoint to the exact
// float64 bits the sne/snd CLI paths produce on the same instances.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"netdesign/internal/broadcast"
	"netdesign/internal/instancefile"
	"netdesign/internal/serve/wire"
	"netdesign/internal/snd"
	"netdesign/internal/sne"
	"netdesign/internal/subsidy"
)

// Config tunes the daemon. The zero value serves with sane defaults.
type Config struct {
	// MaxBodyBytes caps a request body; larger bodies are rejected with
	// 413 before any parsing. Default 1 MiB.
	MaxBodyBytes int64

	// Timeout is each request's budget, a context deadline set when the
	// request is admitted. The solve is not interrupted: when it returns
	// past the deadline, the client gets 503 "request timed out" (/v1 a
	// JSON error, /v2 a StatusUnavailable frame) instead of its answer,
	// and the request holds its inflight slot until then. Default 30s.
	Timeout time.Duration

	// MaxInflight caps concurrently served solve requests; past it the
	// server sheds load instead of queueing: /v1 answers 503 with a
	// Retry-After hint, /v2 answers a StatusUnavailable frame. Solves are
	// CPU-bound, so admitting more than the machine can run concurrently
	// only grows every request's latency until all of them time out;
	// shedding keeps the admitted ones fast. 0 means unlimited.
	MaxInflight int
}

func (c Config) withDefaults() Config {
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.Timeout == 0 {
		c.Timeout = 30 * time.Second
	}
	return c
}

// Server answers subsidy queries over HTTP. Create with New, mount
// Handler (or Start a listener), stop with Shutdown.
type Server struct {
	cfg      Config
	met      *metrics
	chains   chainStack
	decoders sync.Pool // *instancefile.Decoder — pooled text-parse scratch
	ws       sync.Pool // *workspace — pooled per-request workspaces

	// preSolve, when non-nil, runs after decode and before every solve,
	// with the request's context; tests block here to hold a request in
	// flight or past its deadline.
	preSolve func(ctx context.Context)

	// ready gates /readyz: false until Start has a listener bound, false
	// again the instant Shutdown begins draining — so a load balancer
	// stops routing to a daemon that is about to close its listener,
	// while /healthz keeps answering (the process is alive throughout).
	ready atomic.Bool

	mu   sync.Mutex
	http *http.Server
}

// New builds a Server.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	return &Server{
		cfg:      cfg,
		met:      newMetrics(),
		chains:   chainStack{max: runtime.GOMAXPROCS(0), spill: sync.Pool{New: func() any { return sne.NewBroadcastLPChain() }}},
		decoders: sync.Pool{New: func() any { return new(instancefile.Decoder) }},
		ws:       sync.Pool{New: func() any { return new(workspace) }},
	}
}

// Handler returns the server's full route table, every solve route
// wrapped in the request envelope (api).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if !s.ready.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "draining")
			return
		}
		fmt.Fprintln(w, "ready")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, s.met.render())
	})
	mux.Handle("/v1/check", s.api(epCheck))
	mux.Handle("/v1/sne", s.api(epSNE))
	mux.Handle("/v1/snd", s.api(epSND))
	mux.Handle("/v1/pos", s.api(epPoS))
	mux.Handle("/v2/check", s.api(epCheckV2))
	mux.Handle("/v2/sne", s.api(epSNEV2))
	mux.Handle("/v2/snd", s.api(epSNDV2))
	mux.Handle("/v2/pos", s.api(epPoSV2))
	return mux
}

// Start listens on addr (host:port; :0 picks a free port) and serves in
// the background. The bound address is returned so callers — the CLI
// printing it, tests dialing it — need not guess.
func (s *Server) Start(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 5 * time.Second}
	s.mu.Lock()
	s.http = hs
	s.mu.Unlock()
	s.ready.Store(true)
	go hs.Serve(ln)
	return ln.Addr(), nil
}

// Shutdown gracefully drains the listener started by Start: no new
// connections, in-flight requests run to completion (or ctx expiry).
// Readiness drops first, so health checkers see not-ready before the
// listener disappears.
func (s *Server) Shutdown(ctx context.Context) error {
	s.ready.Store(false)
	s.mu.Lock()
	hs := s.http
	s.mu.Unlock()
	if hs == nil {
		return nil
	}
	return hs.Shutdown(ctx)
}

// api is the one request envelope of every solve route; the protocol
// follows from ep. It raises the inflight gauge and sheds past
// MaxInflight, rejects anything but POST, gives the request one context
// deadline, and records latency and error from the HTTP status the
// protocol body wrote.
func (s *Server) api(ep int) http.Handler {
	v2 := ep >= epCheckV2
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := s.met.inflight.Add(1)
		defer s.met.inflight.Add(-1)
		t0 := time.Now()
		ws := s.ws.Get().(*workspace)
		defer s.ws.Put(ws)
		if v2 {
			w.Header().Set("Content-Type", "application/octet-stream")
		}
		var code int
		switch {
		case s.overloaded(n):
			s.met.shed.Add(1)
			w.Header().Set("Retry-After", "1")
			code = fail(w, ws, v2, http.StatusServiceUnavailable, "server overloaded, retry later")
		case r.Method != http.MethodPost:
			code = fail(w, ws, v2, http.StatusMethodNotAllowed, "POST only")
		default:
			ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Timeout)
			defer cancel()
			if v2 {
				code = s.serveBinary(ctx, ep, w, r, ws)
			} else {
				code = s.serveJSON(ctx, ep, w, r, ws)
			}
		}
		s.met.observe(ep, time.Since(t0), code >= 400)
	})
}

// fail writes one error answer in the request's protocol and returns its
// HTTP status.
func fail(w http.ResponseWriter, ws *workspace, v2 bool, code int, msg string) int {
	if v2 {
		return binFail(w, ws, code, msg)
	}
	return writeError(w, code, msg)
}

// overloaded decides admission for the request that just raised the
// inflight gauge to n.
func (s *Server) overloaded(n int64) bool {
	return s.cfg.MaxInflight > 0 && n > int64(s.cfg.MaxInflight)
}

// serveJSON is the /v1 body of api: decode the endpoint's JSON request,
// solve, and render the response struct as JSON. It returns the HTTP
// status it wrote.
func (s *Server) serveJSON(ctx context.Context, ep int, w http.ResponseWriter, r *http.Request, ws *workspace) int {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	var q request
	var code int
	switch ep {
	case epCheck:
		var req instanceRequest
		q.inst, code = s.decodeRequest(w, r, &req)
	case epSNE:
		var req sneRequest
		q.inst, code = s.decodeRequest(w, r, &req)
		q.method = req.Method
	case epSND:
		var req sndRequest
		q.inst, code = s.decodeRequest(w, r, &req)
		q.budget, q.exact, q.treeLimit = req.Budget, req.Exact, req.TreeLimit
	case epPoS:
		var req posRequest
		q.inst, code = s.decodeRequest(w, r, &req)
		q.starts, q.maxSteps, q.seed = req.Starts, req.MaxSteps, req.Seed
	}
	if code != http.StatusOK {
		return code
	}
	resp, aerr := s.solve(ctx, ep, &q, ws)
	if ctx.Err() != nil {
		return writeError(w, http.StatusServiceUnavailable, "request timed out")
	}
	if aerr != nil {
		return writeError(w, aerr.code, aerr.msg)
	}
	return writeJSON(w, http.StatusOK, resp)
}

// decodeRequest parses the JSON body into req and the embedded instance
// text into a parsed instance (through a pooled instancefile.Decoder,
// the format's one parser). It returns http.StatusOK, or
// the 4xx it wrote on failure.
func (s *Server) decodeRequest(w http.ResponseWriter, r *http.Request, req interface{ instanceText() string }) (*instancefile.Instance, int) {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return nil, writeError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
		}
		return nil, writeError(w, http.StatusBadRequest, "bad request JSON: "+err.Error())
	}
	text := req.instanceText()
	if strings.TrimSpace(text) == "" {
		return nil, writeError(w, http.StatusBadRequest, "missing instance")
	}
	td := s.decoders.Get().(*instancefile.Decoder)
	inst, err := td.DecodeString(text)
	s.decoders.Put(td)
	if err != nil {
		return nil, writeError(w, http.StatusUnprocessableEntity, err.Error())
	}
	return inst, http.StatusOK
}

// writeJSON renders v as the response body and returns code.
func writeJSON(w http.ResponseWriter, code int, v any) int {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.Encode(v)
	return code
}

func writeError(w http.ResponseWriter, code int, msg string) int {
	return writeJSON(w, code, map[string]string{"error": msg})
}

// request is one decoded solve request, whichever protocol carried it;
// each endpoint reads only its own fields.
type request struct {
	inst *instancefile.Instance

	method string // sne

	budget    float64 // snd
	exact     bool
	treeLimit int

	starts, maxSteps int // pos
	seed             int64
}

// solve runs ep's core solver on a decoded request, filling the response
// struct in ws that it returns.
func (s *Server) solve(ctx context.Context, ep int, q *request, ws *workspace) (any, *apiError) {
	if s.preSolve != nil {
		s.preSolve(ctx)
	}
	switch ep {
	case epCheck, epCheckV2:
		return &ws.check, s.coreCheck(q.inst, &ws.check, &ws.viol)
	case epSNE, epSNEV2:
		return &ws.sne, s.coreSNE(q.inst, q.method, &ws.sne)
	case epSND, epSNDV2:
		return &ws.snd, s.coreSND(q.inst, q.budget, q.exact, q.treeLimit, &ws.snd)
	default:
		return &ws.pos, s.corePoS(q.inst, q.starts, q.maxSteps, q.seed, &ws.pos)
	}
}

// instanceRequest is the common body prefix: the instance in the CLI
// text format. Endpoint-specific requests embed it.
type instanceRequest struct {
	Instance string `json:"instance"`
}

func (r *instanceRequest) instanceText() string { return r.Instance }

// The response types are the wire package's structs: /v1 marshals them
// through encoding/json, /v2 through the binary appenders, so the two
// protocols render the same value and cannot drift.
type (
	violationJSON = wire.Violation
	checkResponse = wire.CheckResponse
	edgeSubsidy   = wire.EdgeSubsidy
	sneResponse   = wire.SNEResponse
	sndResponse   = wire.SNDResponse
	posResponse   = wire.PoSResponse
)

// apiError is a protocol-independent request failure: an HTTP status
// (the /v1 rendering) that binStatus maps onto a /v2 frame status.
type apiError struct {
	code int
	msg  string
}

// coreCheck answers: is the submitted target tree an equilibrium of the
// instance without subsidies, and if not, who defects? viol is the
// pooled violation slot resp points at when there is one.
func (s *Server) coreCheck(inst *instancefile.Instance, resp *checkResponse, viol *violationJSON) *apiError {
	st, err := inst.State()
	if err != nil {
		return &apiError{http.StatusUnprocessableEntity, err.Error()}
	}
	resp.Equilibrium = false
	resp.Weight = st.Weight()
	resp.Players = inst.Game.NumPlayers()
	resp.Violation = nil
	if v := st.FindViolation(nil); v != nil {
		*viol = violationJSON{Node: v.Node, ViaEdge: v.ViaEdge, Current: v.Current, Better: v.Better, Gain: v.Gain()}
		resp.Violation = viol
	} else {
		resp.Equilibrium = true
	}
	return nil
}

type sneRequest struct {
	instanceRequest
	Method string `json:"method,omitempty"` // lp (default) | theorem6 | aon | greedy | full
}

// coreSNE computes minimum enforcing subsidies for the submitted
// instance, mirroring the cmd/sne method switch exactly. The lp method
// is the served hot path (solveLP). resp.Subsidies is reused as scratch
// when already allocated (and left non-nil either way, so /v1 renders []).
func (s *Server) coreSNE(inst *instancefile.Instance, method string, resp *sneResponse) *apiError {
	st, err := inst.State()
	if err != nil {
		return &apiError{http.StatusUnprocessableEntity, err.Error()}
	}
	if method == "" {
		method = "lp"
	}
	var res *sne.Result
	warm := false
	switch method {
	case "lp":
		res, warm, err = s.solveLP(st)
	case "theorem6":
		bs, cert, serr := subsidy.Enforce(st)
		if err = serr; serr == nil {
			res = &sne.Result{Subsidy: bs, Cost: cert.Total}
		}
	case "aon":
		res, err = sne.SolveAON(st, sne.AONOptions{})
	case "greedy":
		res, err = sne.GreedyAON(st)
	case "full":
		res = sne.FullSubsidy(st)
	default:
		return &apiError{http.StatusBadRequest, fmt.Sprintf("unknown method %q", method)}
	}
	if err != nil {
		return &apiError{http.StatusUnprocessableEntity, err.Error()}
	}
	// The same verification gate the CLI applies: never serve an
	// assignment that does not enforce the tree. An lp answer has passed
	// it already, inside the chain's finish step (sne.VerifyBroadcast at
	// α = 1), so only the other methods are checked here.
	if method != "lp" {
		if err := sne.VerifyBroadcast(st, res.Subsidy); err != nil {
			return &apiError{http.StatusInternalServerError, "result failed verification: " + err.Error()}
		}
	}
	resp.Method = method
	resp.Cost = res.Cost
	resp.Fraction = res.Cost / st.Weight()
	resp.TreeWeight = st.Weight()
	resp.Pivots = res.Pivots
	resp.Warm = warm
	if resp.Subsidies == nil {
		resp.Subsidies = []edgeSubsidy{}
	} else {
		resp.Subsidies = resp.Subsidies[:0]
	}
	g := inst.Game.G
	for _, id := range st.Tree.EdgeIDs {
		if v := res.Subsidy.At(id); v > 0 {
			e := g.Edge(id)
			resp.Subsidies = append(resp.Subsidies, edgeSubsidy{Edge: id, U: e.U, V: e.V, Weight: e.W, Subsidy: v})
		}
	}
	return nil
}

// solveLP is the warm-start hot path: draw a chain and solve on it, warm
// when the chain last solved exactly this structure, cold otherwise.
func (s *Server) solveLP(st *broadcast.State) (*sne.Result, bool, error) {
	chain := s.chains.get()
	defer s.chains.put(chain)
	res, warm, err := chain.SolveNearby(st)
	if err != nil {
		return nil, warm, err
	}
	if warm {
		s.met.warmSolves.Add(1)
	} else {
		s.met.coldSolves.Add(1)
	}
	return res, warm, nil
}

// chainStack holds the idle LP (3) chains. Up to max of them wait on a
// stack that hands back the most recently returned chain first, so a
// connection sending one request after another keeps drawing the chain
// that holds its structure and basis; sync.Pool's per-P slots would hand
// it different chains as its goroutines move between Ps. Chains past
// max (more concurrent solves than Ps) spill into a sync.Pool.
type chainStack struct {
	max   int
	mu    sync.Mutex
	idle  []*sne.BroadcastLPChain
	spill sync.Pool
}

func (p *chainStack) get() *sne.BroadcastLPChain {
	p.mu.Lock()
	if n := len(p.idle); n > 0 {
		c := p.idle[n-1]
		p.idle = p.idle[:n-1]
		p.mu.Unlock()
		return c
	}
	p.mu.Unlock()
	return p.spill.Get().(*sne.BroadcastLPChain)
}

func (p *chainStack) put(c *sne.BroadcastLPChain) {
	p.mu.Lock()
	if len(p.idle) < p.max {
		p.idle = append(p.idle, c)
		p.mu.Unlock()
		return
	}
	p.mu.Unlock()
	p.spill.Put(c)
}

type sndRequest struct {
	instanceRequest
	Budget    float64 `json:"budget"`
	Exact     bool    `json:"exact,omitempty"`
	TreeLimit int     `json:"treelimit,omitempty"`
}

// maxTreeLimit caps the spanning trees an exact SND request may ask the
// server to enumerate, and is the limit a request without one gets (the
// cmd/snd default). snd.SolveExact holds every enumerated tree in memory
// before solving any, so the cap bounds a request's memory; coreSND
// refuses a treelimit above it, or below 0 (which SolveExact reads as
// unlimited), before any enumeration starts. DESIGN §9.
const maxTreeLimit = 200000

// coreSND answers budgeted STABLE NETWORK DESIGN, mirroring cmd/snd:
// exact enumeration on request, otherwise the MST+LP heuristic with the
// Theorem-6 fallback (snd.HeuristicAuto — errors.Is on the wrapped
// sentinel). A zero treeLimit means maxTreeLimit; one outside
// [0, maxTreeLimit] is refused with 422.
func (s *Server) coreSND(inst *instancefile.Instance, budget float64, exact bool, treeLimit int, resp *sndResponse) *apiError {
	if treeLimit < 0 || treeLimit > maxTreeLimit {
		return &apiError{http.StatusUnprocessableEntity,
			fmt.Sprintf("treelimit %d outside [0, %d]: the server enumerates at most %d spanning trees", treeLimit, maxTreeLimit, maxTreeLimit)}
	}
	bg := inst.Game
	var res *snd.Result
	var err error
	method := snd.MethodExact
	fellBack := false
	if exact {
		limit := treeLimit
		if limit == 0 {
			limit = maxTreeLimit
		}
		res, err = snd.SolveExact(bg, budget, limit)
	} else {
		res, method, fellBack, err = snd.HeuristicAuto(bg, budget)
	}
	if err != nil {
		return &apiError{http.StatusUnprocessableEntity, err.Error()}
	}
	if err := snd.Verify(bg, res, budget); err != nil {
		return &apiError{http.StatusInternalServerError, "result failed verification: " + err.Error()}
	}
	resp.Method = method
	resp.FellBack = fellBack
	resp.Weight = res.Weight
	resp.SubsidyCost = res.SubsidyCost
	resp.Budget = budget
	resp.Tree = res.Tree
	return nil
}

type posRequest struct {
	instanceRequest
	Starts   int   `json:"starts,omitempty"`   // default 4
	MaxSteps int   `json:"maxsteps,omitempty"` // default engine-chosen
	Seed     int64 `json:"seed,omitempty"`     // default 1; same seed, same estimate
}

// corePoS estimates the price of stability of the submitted game by
// multi-start swap descent (broadcast.EstimatePoS) — deterministic for a
// given seed, so the answer is reproducible and differential-testable.
// Zero starts/seed take the served defaults (4 starts, seed 1).
func (s *Server) corePoS(inst *instancefile.Instance, starts, maxSteps int, seed int64, resp *posResponse) *apiError {
	if starts == 0 {
		starts = 4
	}
	if seed == 0 {
		seed = 1
	}
	est, err := broadcast.EstimatePoS(inst.Game, nil, starts, maxSteps, rand.New(rand.NewSource(seed)))
	if err != nil {
		return &apiError{http.StatusUnprocessableEntity, err.Error()}
	}
	*resp = posResponse{OptWeight: est.OptWeight, Converged: est.Converged, Starts: est.Starts, Steps: est.Steps}
	if est.Converged > 0 {
		resp.BestEq = est.BestEq
		resp.PoS = est.PoS()
	}
	return nil
}
