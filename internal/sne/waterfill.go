package sne

import (
	"errors"
	"sort"

	"netdesign/internal/broadcast"
	"netdesign/internal/game"
	"netdesign/internal/numeric"
)

// WaterFill is a combinatorial SNE heuristic addressing the paper's first
// open problem (Section 6: "design a combinatorial algorithm for SNE ...
// Lemma 2 may be helpful in this direction"). It works directly on the
// Lemma-2 / LP (3) rows, never solving an LP:
//
// while some row  Σ_{a∈A_r} b_a/n_a − Σ_{a∈B_r} b_a/(n_a+1) ≥ C_r  is
// violated, pour subsidies into the row's A-side edges in order of
// crowdedness — least crowded first, exactly the packing that both the
// Theorem-6 construction and the Theorem-11 lower bound identify as the
// most efficient way to lower one player's cost — until the row closes.
//
// Fully subsidizing a row's A-side always satisfies it regardless of what
// happened on its B-side (the identity Σ_A w/n − Σ_B w/(n+1) = C + w_e
// guarantees slack w_e ≥ 0), so each visit can always close its row;
// because B-side pours can reopen other rows, a row visited more than
// maxVisits times has its A-side saturated outright, which bounds the
// total number of iterations.
//
// The result enforces the target but is not always optimal — the
// returned cost is ≥ the LP (3) optimum, and experiment E11 measures the
// gap. Subsidies only ever increase, so the cost is also ≤ wgt(T).
func WaterFill(st *broadcast.State) (*Result, error) {
	return WaterFillWith(st, nil)
}

// aEntry is one A-side edge of a row, with its accumulated coefficient.
type aEntry struct {
	id   int
	coef float64
}

// WaterFillWorkspace pools every scratch structure WaterFillWith needs —
// the LP (3) row store (model arenas included), the per-row A-side
// orderings and the merge buffers — so a sweep calling the heuristic on
// instance after instance allocates only each call's Result and subsidy
// vector. A zero value is ready; buffers grow to the largest instance
// seen. Not safe for concurrent use: give each worker its own.
type WaterFillWorkspace struct {
	bl *broadcastLP

	// A-side orderings, stored as (offset, length) into one shared entry
	// arena so slices survive the arena's growth.
	aStart []int32
	aLen   []int32
	aEnts  []aEntry

	coef    []float64
	seen    []bool
	touched []int
	visits  []int
}

// NewWaterFillWorkspace returns an empty reusable workspace.
func NewWaterFillWorkspace() *WaterFillWorkspace { return &WaterFillWorkspace{} }

func growI32s(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// WaterFillWith is WaterFill running on a reusable workspace (nil
// behaves like WaterFill).
func WaterFillWith(st *broadcast.State, ws *WaterFillWorkspace) (*Result, error) {
	if ws == nil {
		ws = NewWaterFillWorkspace()
	}
	g := st.BG.G
	ws.bl = buildBroadcastLPInto(st, ws.bl, 1)
	bl := ws.bl
	nRows := bl.model.NumConstraints()
	nVars := bl.model.NumVars()
	b := game.ZeroSubsidy(g)

	// rowValue computes the current LHS of row i under b, straight off
	// the model's CSR arena — no per-row map.
	rowValue := func(i int) float64 {
		cols, vals, _, _ := bl.model.Row(i)
		v := 0.0
		for k, j := range cols {
			v += vals[k] * b[bl.edgeOf[j]]
		}
		return v
	}
	rowRHS := func(i int) float64 {
		_, _, _, rhs := bl.model.Row(i)
		return rhs
	}
	// A-side orderings: row i's positive-coefficient edges, least crowded
	// (largest coefficient 1/n_a) first. The rows never change, so each
	// ordering is built and sorted at most once — on the row's first
	// visit — into the workspace's entry arena; revisits (the hot loop)
	// allocate nothing, and unvisited rows, the overwhelming majority,
	// never pay for a sort.
	ws.aStart = growI32s(ws.aStart, nRows)
	ws.aLen = growI32s(ws.aLen, nRows)
	for i := range ws.aStart[:nRows] {
		ws.aStart[i] = -1
	}
	ws.aEnts = ws.aEnts[:0]
	if cap(ws.coef) < nVars {
		ws.coef = make([]float64, nVars)
		ws.seen = make([]bool, nVars)
	}
	coefScratch := ws.coef[:nVars]
	seen := ws.seen[:nVars]
	touched := ws.touched[:0]
	aSideOf := func(i int) []aEntry {
		if ws.aStart[i] >= 0 {
			return ws.aEnts[ws.aStart[i] : ws.aStart[i]+int32(ws.aLen[i])]
		}
		// Model.Row may expose duplicate column entries whose
		// coefficients sum (the arena contract), so accumulate per
		// variable before reading the A-side off.
		cols, vals, _, _ := bl.model.Row(i)
		touched = touched[:0]
		for k, j := range cols {
			if !seen[j] {
				seen[j] = true
				touched = append(touched, j)
			}
			coefScratch[j] += vals[k]
		}
		start := int32(len(ws.aEnts))
		for _, j := range touched {
			if coefScratch[j] > 0 {
				ws.aEnts = append(ws.aEnts, aEntry{id: bl.edgeOf[j], coef: coefScratch[j]})
			}
			coefScratch[j], seen[j] = 0, false
		}
		ids := ws.aEnts[start:]
		sort.Slice(ids, func(x, y int) bool {
			if ids[x].coef != ids[y].coef {
				return ids[x].coef > ids[y].coef
			}
			return ids[x].id < ids[y].id
		})
		ws.aStart[i], ws.aLen[i] = start, int32(len(ids))
		return ids
	}

	if cap(ws.visits) < nRows {
		ws.visits = make([]int, nRows)
	}
	visits := ws.visits[:nRows]
	for i := range visits {
		visits[i] = 0
	}
	maxVisits := 2*nRows + 8
	iters := 0
	for {
		iters++
		if iters > 1000*(nRows+1) {
			return nil, errors.New("sne: water-filling failed to converge")
		}
		// Most violated row.
		worst, worstGap := -1, numeric.Eps
		for i := 0; i < nRows; i++ {
			if gap := rowRHS(i) - rowValue(i); gap > worstGap {
				worst, worstGap = i, gap
			}
		}
		if worst == -1 {
			break
		}
		visits[worst]++
		saturate := visits[worst] > maxVisits
		need := worstGap
		for _, a := range aSideOf(worst) {
			if need <= 0 && !saturate {
				break
			}
			headroom := g.Weight(a.id) - b[a.id]
			if headroom <= 0 {
				continue
			}
			pour := headroom
			if !saturate {
				// Raising b_id by δ raises the row value by coef·δ.
				if want := need / a.coef; want < pour {
					pour = want
				}
			}
			b[a.id] += pour
			need -= pour * a.coef
		}
		if need > numeric.Eps && !saturate {
			// A-side exhausted yet row still open: impossible by the
			// slack identity unless numerics drifted; saturate next time.
			visits[worst] = maxVisits + 1
		}
	}
	ws.touched = touched // hand grown scratch back to the workspace
	snap(b, g)
	res := &Result{Subsidy: b, Cost: b.Cost(), Iterations: iters}
	if err := VerifyBroadcast(st, b); err != nil {
		return nil, err
	}
	return res, nil
}
