package wire

import (
	"encoding/binary"
	"fmt"
)

// The response structs below are the single source of truth for both
// protocols: internal/serve fills one struct per request and marshals
// it through encoding/json on /v1 or the appenders here on /v2, so the
// two renderings cannot drift — they are projections of the same value.
// Every float64 crosses the binary wire as its exact IEEE bits.

// Violation mirrors broadcast.Violation for the check endpoint.
type Violation struct {
	Node    int     `json:"node"`
	ViaEdge int     `json:"viaEdge"`
	Current float64 `json:"current"`
	Better  float64 `json:"better"`
	Gain    float64 `json:"gain"`
}

// CheckResponse answers /v1/check and /v2/check.
type CheckResponse struct {
	Equilibrium bool       `json:"equilibrium"`
	Weight      float64    `json:"weight"`
	Players     int64      `json:"players"`
	Violation   *Violation `json:"violation,omitempty"`
}

// EdgeSubsidy is one subsidized tree edge in an SNE answer.
type EdgeSubsidy struct {
	Edge    int     `json:"edge"`
	U       int     `json:"u"`
	V       int     `json:"v"`
	Weight  float64 `json:"weight"`
	Subsidy float64 `json:"subsidy"`
}

// SNEResponse answers /v1/sne and /v2/sne.
type SNEResponse struct {
	Method     string        `json:"method"`
	Cost       float64       `json:"cost"`
	Fraction   float64       `json:"fraction"` // of wgt(T); Theorem 6 caps the optimum at 1/e
	TreeWeight float64       `json:"treeWeight"`
	Pivots     int           `json:"pivots,omitempty"`
	Warm       bool          `json:"warm"` // re-solved from the chain's basis of the same structure
	Subsidies  []EdgeSubsidy `json:"subsidies"`
}

// SNDResponse answers /v1/snd and /v2/snd.
type SNDResponse struct {
	Method      string  `json:"method"`
	FellBack    bool    `json:"fellBack"` // MST+LP infeasible, Theorem-6 fallback served
	Weight      float64 `json:"weight"`
	SubsidyCost float64 `json:"subsidyCost"`
	Budget      float64 `json:"budget"`
	Tree        []int   `json:"tree"`
}

// PoSResponse answers /v1/pos and /v2/pos.
type PoSResponse struct {
	OptWeight float64 `json:"optWeight"`
	BestEq    float64 `json:"bestEq"`    // zero until a descent converges
	PoS       float64 `json:"pos"`       // upper bound when converged > 0
	Converged int     `json:"converged"` // descents that reached an equilibrium
	Starts    int     `json:"starts"`
	Steps     int     `json:"steps"`
}

// ---- response encoders (the server side; all append-only) ----

// AppendError encodes a non-OK response payload: status byte plus the
// message.
func AppendError(dst []byte, status byte, msg string) []byte {
	dst = append(dst, status)
	dst = binary.AppendUvarint(dst, uint64(len(msg)))
	return append(dst, msg...)
}

// AppendCheckResponse encodes an OK check payload.
func AppendCheckResponse(dst []byte, resp *CheckResponse) []byte {
	dst = append(dst, StatusOK)
	dst = appendBool(dst, resp.Equilibrium)
	dst = appendFloat64(dst, resp.Weight)
	dst = binary.AppendVarint(dst, resp.Players)
	if resp.Violation == nil {
		return append(dst, 0)
	}
	v := resp.Violation
	dst = append(dst, 1)
	dst = binary.AppendUvarint(dst, uint64(v.Node))
	dst = binary.AppendUvarint(dst, uint64(v.ViaEdge))
	dst = appendFloat64(dst, v.Current)
	dst = appendFloat64(dst, v.Better)
	return appendFloat64(dst, v.Gain)
}

// AppendSNEResponse encodes an OK sne payload. The method string must
// be one of the five /v1 names (it travels as one byte).
func AppendSNEResponse(dst []byte, resp *SNEResponse) []byte {
	code, ok := MethodCode(resp.Method)
	if !ok {
		panic(fmt.Sprintf("wire: unencodable sne method %q", resp.Method))
	}
	dst = append(dst, StatusOK, code)
	dst = appendFloat64(dst, resp.Cost)
	dst = appendFloat64(dst, resp.Fraction)
	dst = appendFloat64(dst, resp.TreeWeight)
	dst = binary.AppendUvarint(dst, uint64(resp.Pivots))
	dst = appendBool(dst, resp.Warm)
	dst = binary.AppendUvarint(dst, uint64(len(resp.Subsidies)))
	for _, s := range resp.Subsidies {
		dst = binary.AppendUvarint(dst, uint64(s.Edge))
		dst = binary.AppendUvarint(dst, uint64(s.U))
		dst = binary.AppendUvarint(dst, uint64(s.V))
		dst = appendFloat64(dst, s.Weight)
		dst = appendFloat64(dst, s.Subsidy)
	}
	return dst
}

// AppendSNDResponse encodes an OK snd payload.
func AppendSNDResponse(dst []byte, resp *SNDResponse) []byte {
	code, ok := SNDMethodCode(resp.Method)
	if !ok {
		panic(fmt.Sprintf("wire: unencodable snd method %q", resp.Method))
	}
	dst = append(dst, StatusOK, code)
	dst = appendBool(dst, resp.FellBack)
	dst = appendFloat64(dst, resp.Weight)
	dst = appendFloat64(dst, resp.SubsidyCost)
	dst = appendFloat64(dst, resp.Budget)
	dst = binary.AppendUvarint(dst, uint64(len(resp.Tree)))
	for _, id := range resp.Tree {
		dst = binary.AppendUvarint(dst, uint64(id))
	}
	return dst
}

// AppendPoSResponse encodes an OK pos payload.
func AppendPoSResponse(dst []byte, resp *PoSResponse) []byte {
	dst = append(dst, StatusOK)
	dst = appendFloat64(dst, resp.OptWeight)
	dst = appendFloat64(dst, resp.BestEq)
	dst = appendFloat64(dst, resp.PoS)
	dst = binary.AppendUvarint(dst, uint64(resp.Converged))
	dst = binary.AppendUvarint(dst, uint64(resp.Starts))
	return binary.AppendUvarint(dst, uint64(resp.Steps))
}

// ---- response decoders (the client side: loadgen, tests) ----

// DecodeStatus splits a response payload into its status, the OK body
// (when status is StatusOK) and the error message (otherwise).
func DecodeStatus(payload []byte) (status byte, body []byte, msg string, err error) {
	r := &reader{b: payload}
	status = r.byte()
	if r.bad {
		return 0, nil, "", errTruncated
	}
	if status == StatusOK {
		return status, payload[1:], "", nil
	}
	n := r.uint()
	if r.bad || n > r.remaining() {
		return 0, nil, "", errTruncated
	}
	msg = string(r.b[r.off : r.off+n])
	r.off += n
	if err := r.done(); err != nil {
		return 0, nil, "", err
	}
	return status, nil, msg, nil
}

// DecodeCheckResponse decodes an OK check body (as returned by
// DecodeStatus) into resp, reusing its Violation slot when present.
func DecodeCheckResponse(body []byte, resp *CheckResponse) error {
	r := &reader{b: body}
	var ok bool
	resp.Equilibrium, _ = r.bool()
	resp.Weight = r.float64()
	resp.Players = r.varint()
	hasViol, ok := r.bool()
	if !ok {
		return errTruncated
	}
	if !hasViol {
		resp.Violation = nil
		return r.done()
	}
	if resp.Violation == nil {
		resp.Violation = &Violation{}
	}
	v := resp.Violation
	v.Node = r.uint()
	v.ViaEdge = r.uint()
	v.Current = r.float64()
	v.Better = r.float64()
	v.Gain = r.float64()
	return r.done()
}

// DecodeSNEResponse decodes an OK sne body into resp, reusing the
// Subsidies scratch.
func DecodeSNEResponse(body []byte, resp *SNEResponse) error {
	r := &reader{b: body}
	method, ok := MethodName(r.byte())
	if r.bad || !ok {
		return fmt.Errorf("wire: bad sne method byte")
	}
	resp.Method = method
	resp.Cost = r.float64()
	resp.Fraction = r.float64()
	resp.TreeWeight = r.float64()
	resp.Pivots = r.uint()
	resp.Warm, _ = r.bool()
	n := r.uint()
	if r.bad {
		return errTruncated
	}
	// Each subsidy costs ≥ 19 body bytes (three 1-byte uvarints + two
	// 8-byte floats).
	if n > r.remaining()/19 {
		return fmt.Errorf("wire: subsidy count %d exceeds payload", n)
	}
	if resp.Subsidies == nil {
		resp.Subsidies = []EdgeSubsidy{} // non-nil, so JSON renders [] like the server struct
	}
	resp.Subsidies = resp.Subsidies[:0]
	for i := 0; i < n; i++ {
		var s EdgeSubsidy
		s.Edge = r.uint()
		s.U = r.uint()
		s.V = r.uint()
		s.Weight = r.float64()
		s.Subsidy = r.float64()
		if r.bad {
			return errTruncated
		}
		resp.Subsidies = append(resp.Subsidies, s)
	}
	return r.done()
}

// DecodeSNDResponse decodes an OK snd body into resp, reusing the Tree
// scratch.
func DecodeSNDResponse(body []byte, resp *SNDResponse) error {
	r := &reader{b: body}
	method, ok := SNDMethodName(r.byte())
	if r.bad || !ok {
		return fmt.Errorf("wire: bad snd method byte")
	}
	resp.Method = method
	resp.FellBack, _ = r.bool()
	resp.Weight = r.float64()
	resp.SubsidyCost = r.float64()
	resp.Budget = r.float64()
	n := r.uint()
	if r.bad {
		return errTruncated
	}
	if n > r.remaining() {
		return fmt.Errorf("wire: tree count %d exceeds payload", n)
	}
	if resp.Tree == nil {
		resp.Tree = []int{}
	}
	resp.Tree = resp.Tree[:0]
	for i := 0; i < n; i++ {
		resp.Tree = append(resp.Tree, r.uint())
	}
	return r.done()
}

// DecodePoSResponse decodes an OK pos body into resp.
func DecodePoSResponse(body []byte, resp *PoSResponse) error {
	r := &reader{b: body}
	resp.OptWeight = r.float64()
	resp.BestEq = r.float64()
	resp.PoS = r.float64()
	resp.Converged = r.uint()
	resp.Starts = r.uint()
	resp.Steps = r.uint()
	return r.done()
}
