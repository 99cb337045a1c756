package lp

import "math"

// Pricing for the dual simplex: devex reference-framework weights
// (Forrest–Goldfarb) or exact steepest-edge weights with rotating-window
// partial pricing of the leaving row, and the rank-one reduced-cost
// update that keeps the duals incremental between refactorizations.
//
// Devex approximates steepest-edge at a fraction of the cost: each
// candidate's violation is scaled by a running estimate of its edge norm
// relative to a reference framework — the basis at the last weight reset.
// The weights only steer *which* admissible pivot is taken, never whether
// one is admissible, so every selection below stays exact about
// optimality/feasibility; a drifted weight can only cost iterations.
// Reference-framework reset rules (see DESIGN.md §7): weights reset to 1
// when a solve starts and whenever the largest weight passes
// devexWeightCap — past that, the reference basis is too far away for the
// estimates to mean anything.
//
// Partial pricing scans a rotating window (an eighth of the rows, at
// least partialWindowMin) and settles for the best devex score in the
// first non-empty window; only a full empty wrap declares the loop done.
// Bland mode bypasses both devex and the windows: a full scan for the
// worst violation, and the ratio test breaks ties by lowest index — the
// anti-cycling fallback must stay deterministic and complete.

const (
	// devexWeightCap triggers a reference-framework reset.
	devexWeightCap = 1e8

	// partialWindowMin is the smallest partial-pricing window; tiny
	// models always price fully.
	partialWindowMin = 64
)

func (s *sparse) resetDualDevex() {
	for i := range s.dw {
		s.dw[i] = 1
	}
}

// dualViol returns row i's bound violation and whether the basic value
// sits above its upper bound (0 when feasible within tolerance).
func (s *sparse) dualViol(i int) (float64, bool) {
	b := s.basic[i]
	if v := s.lo[b] - s.xB[i]; v > FeasTol*(1+math.Abs(s.lo[b])) {
		return v, false
	}
	if v := s.xB[i] - s.up[b]; v > FeasTol*(1+math.Abs(s.up[b])) {
		return v, true
	}
	return 0, false
}

// chooseDualLeaving picks the leaving row for the dual simplex, or -1
// when the basis is primal feasible.
func (s *sparse) chooseDualLeaving(bland bool) (int, bool) {
	if s.mr == 0 {
		return -1, false
	}
	if bland {
		// Worst violation, full scan: the deterministic fallback rule.
		r, above, worst := -1, false, 0.0
		for i := 0; i < s.mr; i++ {
			if v, ab := s.dualViol(i); v > worst {
				r, above, worst = i, ab, v
			}
		}
		return r, above
	}
	window := s.mr / 8
	if window < partialWindowMin {
		window = partialWindowMin
	}
	start := s.dstart % s.mr
	scanned := 0
	for scanned < s.mr {
		best, bestAbove, bestScore := -1, false, 0.0
		for w := 0; w < window && scanned < s.mr; w++ {
			i := start
			start++
			if start == s.mr {
				start = 0
			}
			scanned++
			v, ab := s.dualViol(i)
			if v == 0 {
				continue
			}
			if score := v * v / s.dw[i]; score > bestScore {
				best, bestAbove, bestScore = i, ab, score
			}
		}
		if best != -1 {
			s.dstart = start
			return best, bestAbove
		}
	}
	return -1, false
}

// pivotRowAlphas fills s.alpha[j] = ρ·A_j for every column not in the
// basis, where ρ (s.rrow) is the BTRANed pivot row e_r.
func (s *sparse) pivotRowAlphas() {
	for j := 0; j < s.n; j++ {
		if s.status[j] == inBasis {
			continue
		}
		var a float64
		for k := s.colStart[j]; k < s.colStart[j+1]; k++ {
			a += s.rrow[s.colRow[k]] * s.colVal[k]
		}
		s.alpha[j] = a
	}
	for i := 0; i < s.mr; i++ {
		s.alpha[s.n+i] = s.rrow[i]
	}
}

// updateDualsAfterPivot applies the rank-one update d′ = d − (d_q/α_q)·α
// for a pivot entering column q and leaving variable lv, using the
// pivot-row alphas in s.alpha. Must run before replaceBasis (it reads the
// pre-pivot statuses). The leaving variable's new reduced cost is exactly
// −d_q/α_q because its tableau-row coefficient is 1.
func (s *sparse) updateDualsAfterPivot(q, lv int) {
	delta := s.d[q] / s.alpha[q]
	for j := 0; j < s.nc; j++ {
		if j == q || s.status[j] == inBasis {
			continue
		}
		if a := s.alpha[j]; a != 0 {
			s.d[j] -= delta * a
		}
	}
	s.d[q] = 0
	s.d[lv] = -delta
}

// dseFloor keeps the steepest-edge recurrence's weights positive: exact
// arithmetic guarantees γ_i ≥ 1/‖B‖² > 0, but the rank-one update can
// round a tiny weight negative, which would corrupt every later score.
const dseFloor = 1e-10

// updateDualSteepestEdge folds a dual pivot on row r into exact
// steepest-edge row weights γ_i = ‖B⁻ᵀe_i‖² via the Forrest–Goldfarb
// recurrence. Inputs: the FTRANed entering column in s.wcol, τ = B⁻¹ρ_r
// in s.tau (one extra FTRAN per pivot — the price of exactness over
// devex), and the exactly recomputed γ_r = ‖ρ_r‖² — so the recurrence
// re-anchors every weight it touches against fresh data and drift never
// compounds along a row's own history.
//
//	γ_i ← γ_i − κ·(2τ_i − κ·γ_r),  κ = w_i/w_r   (i ≠ r)
//	γ_r ← γ_r / w_r²
//
// Unlike devex there is no reference framework and nothing to reset;
// the weights remain exact for the evolving basis (up to round-off, the
// floor, and the one stale-τ retry path after a mid-pivot
// refactorization).
func (s *sparse) updateDualSteepestEdge(r int, gammaR float64) {
	wr := s.wcol[r]
	for i := 0; i < s.mr; i++ {
		if i == r {
			continue
		}
		w := s.wcol[i]
		if w == 0 {
			continue
		}
		kappa := w / wr
		g := s.dw[i] - kappa*(2*s.tau[i]-kappa*gammaR)
		if g < dseFloor {
			g = dseFloor
		}
		s.dw[i] = g
	}
	g := gammaR / (wr * wr)
	if g < dseFloor {
		g = dseFloor
	}
	s.dw[r] = g
}

// updateDualDevex folds a dual pivot on row r (FTRANed entering column
// in s.wcol) into the row weights.
func (s *sparse) updateDualDevex(r int) {
	wr := s.wcol[r]
	wref := s.dw[r]
	wr2 := wr * wr
	mx := 1.0
	for i := 0; i < s.mr; i++ {
		if i == r {
			continue
		}
		w := s.wcol[i]
		if w == 0 {
			continue
		}
		if cand := w * w / wr2 * wref; cand > s.dw[i] {
			s.dw[i] = cand
		}
		if s.dw[i] > mx {
			mx = s.dw[i]
		}
	}
	s.dw[r] = math.Max(wref/wr2, 1)
	if mx > devexWeightCap {
		s.resetDualDevex()
	}
}
