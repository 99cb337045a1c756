package serve

import (
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net/http"
	"time"

	"netdesign/internal/serve/wire"
)

// maxPipelineFrames caps how many request frames one /v2 body may carry.
// Pipelining exists to amortize the per-HTTP-request overhead (header
// parse, context setup, syscalls) across solves; the cap bounds the
// response buffer a single pooled workspace can be made to hold.
const maxPipelineFrames = 256

// binWS is one /v2 request's worth of reusable state: the wire decoder's
// parse tables, the frame read buffer, the response build buffer, and the
// response structs themselves. Pooled on the Server, a steady-state
// binary request allocates only what the solver's answer owns.
type binWS struct {
	dec   wire.ReqDecoder
	frame []byte // request frame payload buffer (grown once, then reused)
	out   []byte // response frame build buffer

	check checkResponse
	viol  violationJSON
	sne   sneResponse
	snd   sndResponse
	pos   posResponse
}

// binAPI wraps one binary endpoint with the same operational envelope
// api gives the JSON endpoints — inflight gauge, per-endpoint count,
// latency and error metrics — but without http.TimeoutHandler: the
// response is built in a pooled buffer and written once, and the solve
// budget is a context deadline checked after the solve, so nothing
// buffers a second copy of the response.
func (s *Server) binAPI(ep int) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := s.met.inflight.Add(1)
		defer s.met.inflight.Add(-1)
		if s.overloaded(n) {
			s.met.shed.Add(1)
			s.met.observe(ep, 0, true)
			w.Header().Set("Content-Type", "application/octet-stream")
			w.Header().Set("Retry-After", "1")
			ws := s.binws.Get().(*binWS)
			binFail(w, ws, http.StatusServiceUnavailable, wire.StatusUnavailable, "server overloaded, retry later")
			s.binws.Put(ws)
			return
		}
		t0 := time.Now()
		code := s.serveBinary(ep, w, r)
		s.met.observe(ep, time.Since(t0), code >= 400)
	})
}

// serveBinary runs one binary request end to end and returns the HTTP
// status it wrote. A body may pipeline several frames: each is answered
// with its own response frame, in order, in one HTTP round trip.
func (s *Server) serveBinary(ep int, w http.ResponseWriter, r *http.Request) int {
	ws := s.binws.Get().(*binWS)
	defer s.binws.Put(ws)
	w.Header().Set("Content-Type", "application/octet-stream")
	if r.Method != http.MethodPost {
		return binFail(w, ws, http.StatusMethodNotAllowed, wire.StatusBadRequest, "POST only")
	}
	// The frame length prefix enforces the per-frame cap before any
	// payload is read; the MaxBytesReader (pipelined worst case) only
	// backstops clients whose prefixes lie short.
	body := http.MaxBytesReader(w, r.Body, (s.cfg.MaxBodyBytes+4)*maxPipelineFrames)
	payload, err := wire.ReadFrame(body, ws.frame, int(s.cfg.MaxBodyBytes))
	if err != nil {
		if errors.Is(err, wire.ErrFrameTooLarge) {
			return binFail(w, ws, http.StatusRequestEntityTooLarge, wire.StatusTooLarge, err.Error())
		}
		return binFail(w, ws, http.StatusBadRequest, wire.StatusBadRequest, err.Error())
	}
	ws.frame = payload

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Timeout)
	defer cancel()
	ws.out = ws.out[:0]
	code := s.binCycle(ctx, ep, payload, ws)
	// Pipelining: further frames in the same body are answered with
	// further response frames. The HTTP status belongs to the first
	// frame (single-frame semantics are unchanged); later frames report
	// through their own status bytes, and a framing error mid-stream
	// answers one terminal error frame in place of everything after it.
	for n := 1; ; n++ {
		payload, err = wire.ReadFrame(body, ws.frame, int(s.cfg.MaxBodyBytes))
		if err != nil {
			if errors.Is(err, io.EOF) {
				break // clean end of body
			}
			st := wire.StatusBadRequest
			if errors.Is(err, wire.ErrFrameTooLarge) {
				st = wire.StatusTooLarge
			}
			appendErrorFrame(ws, st, err.Error())
			break
		}
		if n >= maxPipelineFrames {
			appendErrorFrame(ws, wire.StatusTooLarge, "too many pipelined frames")
			break
		}
		ws.frame = payload
		s.binCycle(ctx, ep, payload, ws)
	}
	if code != http.StatusOK {
		w.WriteHeader(code)
	}
	w.Write(ws.out)
	return code
}

// appendErrorFrame appends one complete error frame to ws.out.
func appendErrorFrame(ws *binWS, status byte, msg string) {
	base := len(ws.out)
	ws.out = append(ws.out, 0, 0, 0, 0)
	ws.out = wire.AppendError(ws.out, status, msg)
	binary.LittleEndian.PutUint32(ws.out[base:], uint32(len(ws.out)-base-4))
}

// binFail writes a complete error frame and returns its HTTP code.
func binFail(w http.ResponseWriter, ws *binWS, httpCode int, status byte, msg string) int {
	ws.out = wire.AppendFrame(ws.out[:0], nil)
	ws.out = wire.AppendError(ws.out, status, msg)
	binary.LittleEndian.PutUint32(ws.out[:4], uint32(len(ws.out)-4))
	w.WriteHeader(httpCode)
	w.Write(ws.out)
	return httpCode
}

// binCycle is the core binary request cycle — decode, solve, encode —
// appending one complete response frame to ws.out and returning the
// HTTP status (the caller truncates ws.out between requests; appending
// is what lets pipelined frames share the buffer). It is the unit the
// alloc budget is pinned on: no HTTP, no pool round-trip, just the work
// one request costs.
func (s *Server) binCycle(ctx context.Context, ep int, payload []byte, ws *binWS) int {
	base := len(ws.out)
	ws.out = append(ws.out, 0, 0, 0, 0) // reserve the length prefix
	code := s.binSolve(ctx, ep, payload, ws, base+4)
	binary.LittleEndian.PutUint32(ws.out[base:], uint32(len(ws.out)-base-4))
	return code
}

// binSolve appends the response payload for one decoded request; start
// is where this frame's payload begins in ws.out. The deadline is
// checked once, after the solve: a request past its budget answers 503
// no matter what the solver produced (the chain it solved on still
// keeps the basis — same contract as the /v1 timeout path).
func (s *Server) binSolve(ctx context.Context, ep int, payload []byte, ws *binWS, start int) int {
	var aerr *apiError
	ok := false
	switch ep {
	case epCheckV2:
		inst, err := ws.dec.Check(payload)
		if err != nil {
			return binDecodeErr(ws, err)
		}
		if aerr = s.coreCheck(inst, &ws.check, &ws.viol); aerr == nil {
			ok = true
		}
	case epSNEV2:
		inst, method, err := ws.dec.SNE(payload)
		if err != nil {
			return binDecodeErr(ws, err)
		}
		if aerr = s.coreSNE(inst, method, &ws.sne); aerr == nil {
			ok = true
		}
	case epSNDV2:
		inst, budget, exact, treeLimit, err := ws.dec.SND(payload)
		if err != nil {
			return binDecodeErr(ws, err)
		}
		if aerr = s.coreSND(inst, budget, exact, treeLimit, &ws.snd); aerr == nil {
			ok = true
		}
	case epPoSV2:
		inst, starts, maxSteps, seed, err := ws.dec.PoS(payload)
		if err != nil {
			return binDecodeErr(ws, err)
		}
		if aerr = s.corePoS(inst, starts, maxSteps, seed, &ws.pos); aerr == nil {
			ok = true
		}
	default:
		panic("serve: binSolve on a non-binary endpoint")
	}
	if ctx.Err() != nil {
		ws.out = wire.AppendError(ws.out[:start], wire.StatusUnavailable, "request timed out")
		return http.StatusServiceUnavailable
	}
	if !ok {
		ws.out = wire.AppendError(ws.out, binStatus(aerr.code), aerr.msg)
		return aerr.code
	}
	switch ep {
	case epCheckV2:
		ws.out = wire.AppendCheckResponse(ws.out, &ws.check)
	case epSNEV2:
		ws.out = wire.AppendSNEResponse(ws.out, &ws.sne)
	case epSNDV2:
		ws.out = wire.AppendSNDResponse(ws.out, &ws.snd)
	case epPoSV2:
		ws.out = wire.AppendPoSResponse(ws.out, &ws.pos)
	}
	return http.StatusOK
}

// binDecodeErr appends the 400 frame body for a request that failed wire
// decoding.
func binDecodeErr(ws *binWS, err error) int {
	ws.out = wire.AppendError(ws.out, wire.StatusBadRequest, err.Error())
	return http.StatusBadRequest
}

// binStatus maps an apiError's HTTP code onto its wire status byte.
func binStatus(code int) byte {
	switch code {
	case http.StatusBadRequest:
		return wire.StatusBadRequest
	case http.StatusUnprocessableEntity:
		return wire.StatusUnprocessable
	case http.StatusServiceUnavailable:
		return wire.StatusUnavailable
	case http.StatusRequestEntityTooLarge:
		return wire.StatusTooLarge
	default:
		return wire.StatusInternal
	}
}
