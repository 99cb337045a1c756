package main

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"

	"netdesign/internal/broadcast"
	"netdesign/internal/game"
	"netdesign/internal/graph"
	"netdesign/internal/instancefile"
	"netdesign/internal/serve/wire"
	"netdesign/internal/sne"
)

// replayer feeds requests, in order, through the public functions of
// each layer a served /sne request passes: decode (wire or JSON +
// instancefile), state build, LP build, solve, verify, encode. It
// mirrors the server's lp path with one basis cache entry: the chain's
// own basis is the warm start when the structure fingerprint did not
// change, which is exactly what the server's cache returns on a single
// connection. Each layer call is one span when tr is non-nil.
type replayer struct {
	binary bool
	tr     *tracer

	chain  *sne.BroadcastLPChain
	lastFP uint64
	haveFP bool

	wdec wire.ReqDecoder
	tdec instancefile.Decoder
	resp wire.SNEResponse
	out  []byte
}

func newReplayer(binary bool, tr *tracer) *replayer {
	return &replayer{binary: binary, tr: tr, chain: sne.NewBroadcastLPChain()}
}

// answer is what the gate compares a served response against.
type answer struct {
	cost     float64
	subsHash uint64
	pivots   int
	warm     bool
}

// Layer span names; the per-layer metrics are keyed by them.
const (
	spRequest     = "request"
	spWireDecode  = "wire.decode"
	spWireEncode  = "wire.encode"
	spJSON        = "serve.json"
	spTextDecode  = "instancefile.decode"
	spState       = "broadcast.state"
	spLPBuild     = "sne.lp_build"
	spLPSolve     = "lp.solve"
	spVerify      = "sne.verify"
	spSweepShard  = "sweep.shard"
	spSweepAppend = "sweep.append"
	spSweepMerge  = "sweep.merge"
	spFabricRun   = "fabric.run"
	spFabricWork  = "fabric.worker"
)

// replayLeaves are the layer spans under a replayed request.
var replayLeaves = []string{spWireDecode, spWireEncode, spJSON, spTextDecode, spState, spLPBuild, spLPSolve, spVerify}

// do replays request req (its exact body bytes).
func (r *replayer) do(req int, body []byte) (answer, error) {
	tr := r.tr
	root := tr.begin(spRequest, -1, req)
	defer tr.end(root)

	var inst *instancefile.Instance
	var err error
	if r.binary {
		s := tr.begin(spWireDecode, root, req)
		var method string
		inst, method, err = r.wdec.SNE(body[4:])
		tr.end(s)
		if err == nil && method != "lp" {
			err = fmt.Errorf("method %q", method)
		}
	} else {
		s := tr.begin(spJSON, root, req)
		var in struct {
			Instance string `json:"instance"`
			Method   string `json:"method"`
		}
		err = json.Unmarshal(body, &in)
		tr.end(s)
		if err == nil {
			s = tr.begin(spTextDecode, root, req)
			inst, err = r.tdec.DecodeString(in.Instance)
			tr.end(s)
		}
	}
	if err != nil {
		return answer{}, fmt.Errorf("replay decode: %w", err)
	}

	s := tr.begin(spState, root, req)
	st, err := inst.State()
	tr.end(s)
	if err != nil {
		return answer{}, fmt.Errorf("replay state: %w", err)
	}

	s = tr.begin(spLPBuild, root, req)
	fp := r.chain.Prepare(st)
	tr.end(s)
	warm := r.chain.Basis()
	if !r.haveFP || fp != r.lastFP {
		warm = nil
	}
	r.lastFP, r.haveFP = fp, true

	s = tr.begin(spLPSolve, root, req)
	res, usedWarm, err := r.chain.SolvePrepared(st, warm)
	tr.end(s)
	if err != nil {
		return answer{}, fmt.Errorf("replay solve: %w", err)
	}

	s = tr.begin(spVerify, root, req)
	err = sne.VerifyBroadcast(st, res.Subsidy)
	tr.end(s)
	if err != nil {
		return answer{}, fmt.Errorf("replay verify: %w", err)
	}

	// The response the server builds in coreSNE.
	resp := &r.resp
	*resp = wire.SNEResponse{Method: "lp", Cost: res.Cost, Fraction: res.Cost / st.Weight(),
		TreeWeight: st.Weight(), Pivots: res.Pivots, Warm: usedWarm, Subsidies: resp.Subsidies[:0]}
	g := inst.Game.G
	for _, id := range st.Tree.EdgeIDs {
		if v := res.Subsidy.At(id); v > 0 {
			e := g.Edge(id)
			resp.Subsidies = append(resp.Subsidies, wire.EdgeSubsidy{Edge: id, U: e.U, V: e.V, Weight: e.W, Subsidy: v})
		}
	}
	if r.binary {
		s = tr.begin(spWireEncode, root, req)
		r.out = wire.AppendSNEResponse(r.out[:0], resp)
		tr.end(s)
	} else {
		s = tr.begin(spJSON, root, req)
		r.out, err = json.Marshal(resp)
		tr.end(s)
		if err != nil {
			return answer{}, err
		}
	}
	return answer{cost: res.Cost, subsHash: hashSubsidies(resp.Subsidies), pivots: res.Pivots, warm: usedWarm}, nil
}

// hashSubsidies fingerprints a subsidy list bit-exactly.
func hashSubsidies(subs []wire.EdgeSubsidy) uint64 {
	h := fnv.New64a()
	var b [16]byte
	for _, s := range subs {
		binary.LittleEndian.PutUint64(b[:8], uint64(s.Edge))
		binary.LittleEndian.PutUint64(b[8:], math.Float64bits(s.Subsidy))
		h.Write(b[:])
	}
	return h.Sum64()
}

// ---- the answer gate ----

// decodeResponse decodes a served /sne response body: a /v2 frame, or
// /v1 JSON with the HTTP status recorded at send time.
func decodeResponse(frame bool, status int, body []byte, resp *wire.SNEResponse) error {
	if status != 200 {
		return fmt.Errorf("HTTP status %d: %.200s", status, body)
	}
	if !frame {
		return json.Unmarshal(body, resp)
	}
	if len(body) < 4 || int(binary.LittleEndian.Uint32(body)) != len(body)-4 {
		return errors.New("response is not one whole frame")
	}
	st, rest, msg, err := wire.DecodeStatus(body[4:])
	if err != nil {
		return err
	}
	if st != wire.StatusOK {
		return fmt.Errorf("frame status %d: %s", st, msg)
	}
	return wire.DecodeSNEResponse(rest, resp)
}

// clientState builds the benchmark's own copy of an instance through
// the graph constructors, not through any decoder the server uses.
func clientState(in *instance) (*broadcast.State, error) {
	g := graph.New(in.n)
	for _, e := range in.edges {
		g.AddEdge(e.u, e.v, e.w)
	}
	bg, err := broadcast.NewGame(g, 0)
	if err != nil {
		return nil, err
	}
	return broadcast.NewState(bg, in.tree)
}

// checkAnswer is the answer gate for one response: the subsidies must
// name real tree edges, must enforce the tree on the client's own copy
// of the instance (sne.VerifyBroadcast), must add up to the reported
// cost, and the cost must equal the replay's — bit for bit when exact,
// else within relative 1e-9 (a warm pivot path may end on another
// optimal vertex). exact also requires the subsidies to be the replay's
// bit for bit.
func checkAnswer(in *instance, resp *wire.SNEResponse, ref answer, exact bool) error {
	if resp.Method != "lp" {
		return fmt.Errorf("method %q, want lp", resp.Method)
	}
	st, err := clientState(in)
	if err != nil {
		return fmt.Errorf("client instance: %w", err)
	}
	b := game.ZeroSubsidy(st.BG.G)
	sum := 0.0
	for _, s := range resp.Subsidies {
		if s.Edge < 0 || s.Edge >= len(in.edges) || !st.Tree.Contains(s.Edge) {
			return fmt.Errorf("subsidy on edge %d, not a tree edge", s.Edge)
		}
		e := in.edges[s.Edge]
		if s.U != e.u || s.V != e.v || s.Weight != e.w {
			return fmt.Errorf("subsidy edge %d reported as (%d,%d,%v)", s.Edge, s.U, s.V, s.Weight)
		}
		b[s.Edge] = s.Subsidy
		sum += s.Subsidy
	}
	if err := sne.VerifyBroadcast(st, b); err != nil {
		return err
	}
	if !near(sum, resp.Cost) {
		return fmt.Errorf("subsidies sum to %v, cost %v", sum, resp.Cost)
	}
	if exact {
		if math.Float64bits(resp.Cost) != math.Float64bits(ref.cost) {
			return fmt.Errorf("cost %v, replay %v", resp.Cost, ref.cost)
		}
		if hashSubsidies(resp.Subsidies) != ref.subsHash {
			return errors.New("subsidies differ from the replay's")
		}
	} else if !near(resp.Cost, ref.cost) {
		return fmt.Errorf("cost %v, replay %v", resp.Cost, ref.cost)
	}
	return nil
}

func near(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}
