package serve

import (
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net/http"

	"netdesign/internal/serve/wire"
)

// maxPipelineFrames caps how many request frames one /v2 body may carry.
// Pipelining exists to amortize the per-HTTP-request overhead (header
// parse, context setup, syscalls) across solves; the cap bounds the
// response buffer a single pooled workspace can be made to hold.
const maxPipelineFrames = 256

// workspace is one request's worth of reusable state: the wire
// decoder's parse tables, the frame read buffer, the response build
// buffer, and the response structs themselves. api draws one from the
// Server's pool for every request, so a steady-state /v2 request
// allocates only what the solver's answer owns; /v1 uses only the
// response structs.
type workspace struct {
	dec   wire.ReqDecoder
	frame []byte // request frame payload buffer (grown once, then reused)
	out   []byte // response frame build buffer

	check checkResponse
	viol  violationJSON
	sne   sneResponse
	snd   sndResponse
	pos   posResponse
}

// serveBinary is the /v2 body of api: it runs one binary request end to
// end and returns the HTTP status it wrote. A body may pipeline several
// frames: each is answered with its own response frame, in order, in one
// HTTP round trip. The response is built in ws.out and written once.
func (s *Server) serveBinary(ctx context.Context, ep int, w http.ResponseWriter, r *http.Request, ws *workspace) int {
	// The frame length prefix enforces the per-frame cap before any
	// payload is read; the MaxBytesReader (pipelined worst case) only
	// backstops clients whose prefixes lie short.
	body := http.MaxBytesReader(w, r.Body, (s.cfg.MaxBodyBytes+4)*maxPipelineFrames)
	payload, err := wire.ReadFrame(body, ws.frame, int(s.cfg.MaxBodyBytes))
	if err != nil {
		if errors.Is(err, wire.ErrFrameTooLarge) {
			return binFail(w, ws, http.StatusRequestEntityTooLarge, err.Error())
		}
		return binFail(w, ws, http.StatusBadRequest, err.Error())
	}
	ws.frame = payload

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
func appendErrorFrame(ws *workspace, status byte, msg string) {
	base := len(ws.out)
	ws.out = append(ws.out, 0, 0, 0, 0)
	ws.out = wire.AppendError(ws.out, status, msg)
	binary.LittleEndian.PutUint32(ws.out[base:], uint32(len(ws.out)-base-4))
}

// binFail writes a complete error frame, with the wire status binStatus
// maps httpCode onto, and returns httpCode.
func binFail(w http.ResponseWriter, ws *workspace, httpCode int, msg string) int {
	ws.out = wire.AppendFrame(ws.out[:0], nil)
	ws.out = wire.AppendError(ws.out, binStatus(httpCode), msg)
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
func (s *Server) binCycle(ctx context.Context, ep int, payload []byte, ws *workspace) int {
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
// keeps the basis — the same contract as /v1).
func (s *Server) binSolve(ctx context.Context, ep int, payload []byte, ws *workspace, start int) int {
	var q request
	var err error
	switch ep {
	case epCheckV2:
		q.inst, err = ws.dec.Check(payload)
	case epSNEV2:
		q.inst, q.method, err = ws.dec.SNE(payload)
	case epSNDV2:
		q.inst, q.budget, q.exact, q.treeLimit, err = ws.dec.SND(payload)
	case epPoSV2:
		q.inst, q.starts, q.maxSteps, q.seed, err = ws.dec.PoS(payload)
	default:
		panic("serve: binSolve on a non-binary endpoint")
	}
	if err != nil {
		ws.out = wire.AppendError(ws.out, wire.StatusBadRequest, err.Error())
		return http.StatusBadRequest
	}
	_, aerr := s.solve(ctx, ep, &q, ws)
	if ctx.Err() != nil {
		ws.out = wire.AppendError(ws.out[:start], wire.StatusUnavailable, "request timed out")
		return http.StatusServiceUnavailable
	}
	if aerr != nil {
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

// binStatus maps an error's HTTP code onto its wire status byte.
func binStatus(code int) byte {
	switch code {
	case http.StatusBadRequest, http.StatusMethodNotAllowed:
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
