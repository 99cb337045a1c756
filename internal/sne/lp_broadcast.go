package sne

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"netdesign/internal/broadcast"
	"netdesign/internal/game"
	"netdesign/internal/lp"
)

// broadcastLP is the LP (3) of a broadcast state in sparse form: one
// variable per tree edge, one GE row per non-tree edge direction. The
// paper's row for player u and non-tree edge (u,v), relaxed to an
// α-approximate equilibrium (α = 1 is the paper's Nash row), is
//
//	Σ_{a∈T_u} (w_a−b_a)/n_a ≤ α·[ w_uv − b_uv + Σ_{a∈T_v} (w_a−b_a)/(n_a+1−n_a^u) ].
//
// Edges shared by T_u and T_v (those above x = lca(u,v)) appear on both
// sides with denominator n_a; b_uv is fixed to zero because subsidizing
// a non-tree edge only strengthens the deviation. Moving the variables
// left and constants right gives
//
//	Σ_{a∈T_u\T_x} b_a/n_a − α·Σ_{a∈T_v\T_x} b_a/(n_a+1) + (1−α)·Σ_{a∈T_x} b_a/n_a ≥ C_uv,
//
// with C_uv = (up0[u]−up0[x]) − α·w_uv − α·(dev0[v]−dev0[x]) + (1−α)·up0[x]
// evaluated at zero subsidies. At α = 1 the shared segment cancels, so
// rows span only the two disjoint segments below x; the (1−α) terms are
// emitted only when α ≠ 1. Rows are batched straight off the State's
// cached Lemma-2 prefix sums into preallocated sparse buffers: no
// per-row maps, two or three parent-chain walks and one AddRow per
// deviation.
type broadcastLP struct {
	model  *lp.Model
	varOf  []int // edge ID → LP variable (tree edges only; -1 otherwise)
	edgeOf []int // LP variable → edge ID

	// Per-row deviation metadata: the deviating player, the entry node,
	// the non-tree edge and lca(u,v) of each LP row. Shadow pricing reads
	// the first three; patch re-derives each row constant from all four.
	rowU, rowV, rowEdge, rowX []int

	// Row-emission scratch, kept with the workspace.
	cols []int
	vals []float64
}

// buildBroadcastLPInto materializes every LP (3) row of st at
// approximation factor alpha. A non-nil bl is reset in place (model
// arenas and index slices keep their capacity), so rebuilding the LP for
// instance after instance of a sweep allocates nothing in steady state.
func buildBroadcastLPInto(st *broadcast.State, bl *broadcastLP, alpha float64) *broadcastLP {
	g := st.BG.G
	if bl == nil {
		bl = &broadcastLP{model: lp.NewModel()}
	} else {
		bl.model.Reset()
	}
	if cap(bl.varOf) < g.M() {
		bl.varOf = make([]int, g.M())
	}
	bl.varOf = bl.varOf[:g.M()]
	for i := range bl.varOf {
		bl.varOf[i] = -1
	}
	nTree := len(st.Tree.EdgeIDs)
	maxRows := 2 * (g.M() - nTree) // two directions per non-tree edge
	// Nonzero hint: rows hold two disjoint root-path segments, typically
	// far shorter than the tree, so reserve a modest per-row budget plus
	// a tree-sized cushion for deep (path-like) topologies rather than
	// the Θ(rows·n) worst case.
	bl.model.Grow(nTree, maxRows, 4*maxRows+2*nTree)
	bl.edgeOf = grow(bl.edgeOf, nTree)
	bl.rowU = grow(bl.rowU, maxRows)
	bl.rowV = grow(bl.rowV, maxRows)
	bl.rowEdge = grow(bl.rowEdge, maxRows)
	bl.rowX = grow(bl.rowX, maxRows)
	for _, id := range st.Tree.EdgeIDs {
		bl.varOf[id] = bl.model.AddVar(1, g.Weight(id))
		bl.edgeOf = append(bl.edgeOf, id)
	}
	// The Lemma-2 prefix sums at b = 0 come straight from the State's
	// memoized cache: up0 prices the tree path, dev0 the deviation
	// segment, so each row's constant is O(1) on top of the chain walks
	// that emit its coefficients.
	up0, dev0 := st.PrefixSums(nil)
	if cap(bl.cols) == 0 {
		bl.cols = make([]int, 0, 16)
		bl.vals = make([]float64, 0, 16)
	}
	cols, vals := bl.cols, bl.vals
	edges := g.Edges()
	for i := range edges {
		e := &edges[i]
		if st.Tree.Contains(e.ID) {
			continue
		}
		for dir := 0; dir < 2; dir++ {
			u, v := e.U, e.V
			if dir == 1 {
				u, v = v, u
			}
			if u == st.BG.Root {
				continue
			}
			x := st.Tree.LCA(u, v)
			cols, vals = cols[:0], vals[:0]
			for w := u; w != x; w = st.Tree.Parent[w] {
				id := st.Tree.ParEdge[w]
				cols = append(cols, bl.varOf[id])
				vals = append(vals, 1/float64(st.NA[id]))
			}
			for w := v; w != x; w = st.Tree.Parent[w] {
				id := st.Tree.ParEdge[w]
				cols = append(cols, bl.varOf[id])
				vals = append(vals, -alpha/float64(st.NA[id]+1))
			}
			if alpha != 1 {
				for w := x; w != st.BG.Root; w = st.Tree.Parent[w] {
					id := st.Tree.ParEdge[w]
					cols = append(cols, bl.varOf[id])
					vals = append(vals, (1-alpha)/float64(st.NA[id]))
				}
			}
			if len(cols) == 0 {
				// No variables can appear only when α = 1 and u == x (v
				// below u); then C_uv = −w_uv − devseg ≤ 0 and the row is
				// vacuous.
				continue
			}
			bl.model.AddRow(cols, vals, lp.GE, rowConst(up0, dev0, u, v, x, e.W, alpha))
			bl.rowU = append(bl.rowU, u)
			bl.rowV = append(bl.rowV, v)
			bl.rowEdge = append(bl.rowEdge, e.ID)
			bl.rowX = append(bl.rowX, x)
		}
	}
	bl.cols, bl.vals = cols, vals // hand grown scratch back to the workspace
	return bl
}

// rowConst is the constant C_uv of the row for player u entering the
// tree at v through a non-tree edge of weight w, x = lca(u,v), from the
// prefix sums at b = 0. The build and patch both call it, so a patched
// model equals a rebuilt one bit for bit; at α = 1 it is
// (up0[u]−up0[x]) − w − (dev0[v]−dev0[x]) exactly.
func rowConst(up0, dev0 []float64, u, v, x int, w, alpha float64) float64 {
	c := (up0[u] - up0[x]) - alpha*w - alpha*(dev0[v]-dev0[x])
	if alpha != 1 {
		c += (1 - alpha) * up0[x]
	}
	return c
}

// patch rewrites the weight-dependent data of an LP built at alpha from
// a state of identical structure (see lpShape) for st's weights: the
// upper bounds w_a and the row constants C_uv. O(n + rows), and the
// model's column copy stays valid.
func (bl *broadcastLP) patch(st *broadcast.State, alpha float64) {
	g := st.BG.G
	for j, id := range bl.edgeOf {
		bl.model.SetUpperBound(j, g.Weight(id))
	}
	up0, dev0 := st.PrefixSums(nil)
	for r, u := range bl.rowU {
		bl.model.SetRHS(r, rowConst(up0, dev0, u, bl.rowV[r], bl.rowX[r], g.Weight(bl.rowEdge[r]), alpha))
	}
}

// raise lifts every row constant by twice the simplex's primal
// feasibility tolerance at that constant: an answer the simplex accepts
// for the raised model satisfies each original row with room to spare.
// patch restores the constants.
func (bl *broadcastLP) raise() {
	for r := range bl.rowU {
		_, _, _, c := bl.model.Row(r)
		bl.model.SetRHS(r, c+2*lp.FeasTol*(1+math.Abs(c)))
	}
}

// grow returns s emptied with capacity for at least n elements.
func grow(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, 0, n)
	}
	return s[:0]
}

// subsidy converts an LP point into a subsidy assignment.
func (bl *broadcastLP) subsidy(g interface{ Weight(int) float64 }, x []float64, m int) game.Subsidy {
	b := make(game.Subsidy, m)
	for j, id := range bl.edgeOf {
		b[id] = x[j]
	}
	snap(b, g)
	return b
}

// BroadcastLPChain is the LP (3) solver. It owns the LP build workspace
// (model arenas included) and hands each instance's optimal basis to the
// next solve of the same structure, which is the whole point on a
// nearby-instance family — identical structure means the basis is a
// few dual pivots from the new optimum, and the reused workspace means
// the model rebuild allocates nothing. Every LP (3) entry point of this package
// runs on one: the one-shot solvers draw a chain from a pool and solve
// cold. Not safe for concurrent use: one chain per worker. The zero
// chain solves α = 1.
type BroadcastLPChain struct {
	bl    *broadcastLP
	shape lpShape // the structure bl was last built from
	basis *lp.Basis
}

// lpShape records what LP (3)'s variables, rows and coefficients depend
// on besides the tree-edge order (bl.edgeOf) and the row list (bl.rowU,
// rowV, rowEdge, rowX): the approximation factor α, every node's parent
// edge, the usage counts n_a and every edge's endpoints. The root is the
// one node without a parent edge, tree membership is the set of edgeOf,
// and each parent follows from its parent edge's endpoints, so equal
// records mean an equal constraint matrix, row order and variable order.
// Edge weights are absent: they enter only the upper bounds and the row
// constants, which patch rewrites.
type lpShape struct {
	alpha   float64
	parEdge []int
	na      []int64
	ends    []int // U, V of edge id at 2·id, 2·id+1
}

// record captures st's structure at alpha.
func (sh *lpShape) record(st *broadcast.State, alpha float64) {
	edges := st.BG.G.Edges()
	sh.alpha = alpha
	sh.parEdge = append(sh.parEdge[:0], st.Tree.ParEdge...)
	sh.na = append(sh.na[:0], st.NA...)
	sh.ends = sh.ends[:0]
	for i := range edges {
		sh.ends = append(sh.ends, edges[i].U, edges[i].V)
	}
}

// matches reports whether st at alpha has the recorded structure and
// the tree edge order edgeOf, compared element by element. An empty
// record matches no state.
func (sh *lpShape) matches(st *broadcast.State, edgeOf []int, alpha float64) bool {
	edges := st.BG.G.Edges()
	if alpha != sh.alpha || len(edges)*2 != len(sh.ends) ||
		!slices.Equal(st.Tree.EdgeIDs, edgeOf) ||
		!slices.Equal(st.Tree.ParEdge, sh.parEdge) || !slices.Equal(st.NA, sh.na) {
		return false
	}
	for i := range edges {
		if edges[i].U != sh.ends[2*i] || edges[i].V != sh.ends[2*i+1] {
			return false
		}
	}
	return true
}

// NewBroadcastLPChain returns an empty chain.
func NewBroadcastLPChain() *BroadcastLPChain { return &BroadcastLPChain{} }

// Basis exposes the chain's current warm-start basis (nil before the
// first solve).
func (c *BroadcastLPChain) Basis() *lp.Basis { return c.basis }

// Prepare builds the LP (3) of st into the chain's workspace — without
// solving — and returns the model's shape-only structure fingerprint
// (lp.Model.StructureFingerprint; unrelated structures of equal size
// share it). Follow with SolvePrepared.
//
// When st has exactly the structure of the previously prepared state
// (lpShape), Prepare patches the bounds and row constants of the model
// in place instead of rebuilding it: the resulting model, and so every
// solve of it, is bit-identical to a rebuild.
func (c *BroadcastLPChain) Prepare(st *broadcast.State) uint64 {
	c.prepare(st, 1)
	return c.bl.model.StructureFingerprint()
}

// prepare is Prepare at approximation factor alpha, without the
// fingerprint. It reports whether it patched: st has exactly the
// structure the chain last prepared.
func (c *BroadcastLPChain) prepare(st *broadcast.State, alpha float64) bool {
	if c.bl != nil && c.shape.matches(st, c.bl.edgeOf, alpha) {
		c.bl.patch(st, alpha)
		return true
	}
	c.bl = buildBroadcastLPInto(st, c.bl, alpha)
	c.shape.record(st, alpha)
	return false
}

// SolveNearby solves the LP (3) of st, warm-starting from the chain's
// basis only when st has exactly the structure the chain last prepared
// (any other state solves cold), and reports whether it warm-started.
// A failed solve drops the basis, which then fits no held structure.
func (c *BroadcastLPChain) SolveNearby(st *broadcast.State) (*Result, bool, error) {
	var warm *lp.Basis
	if c.prepare(st, 1) {
		warm = c.basis
	}
	_, res, err := c.solve(st, warm)
	if err != nil {
		c.basis = nil
	}
	return res, warm != nil, err
}

// SolvePrepared solves the LP built by the immediately preceding Prepare,
// warm-starting from warm when it is compatible with the prepared model
// (cold otherwise — lp.ResolveFrom's own cold fallback still
// applies on top), verifies the assignment and advances the chain. The
// returned flag reports whether the warm basis was actually attempted:
// the warm-vs-cold solve counters a server exports come from it.
func (c *BroadcastLPChain) SolvePrepared(st *broadcast.State, warm *lp.Basis) (*Result, bool, error) {
	if c.bl == nil {
		c.prepare(st, 1)
	}
	_, res, err := c.solve(st, warm)
	return res, warm.CompatibleWith(c.bl.model), err
}

// solve runs the sparse simplex on the prepared model from warm (cold
// when warm is nil or incompatible), finishes the answer and advances
// the chain. It also returns the final LP solution, whose duals price
// the rows.
func (c *BroadcastLPChain) solve(st *broadcast.State, warm *lp.Basis) (*lp.Solution, *Result, error) {
	sol, err := c.bl.model.ResolveFrom(warm)
	if err != nil {
		return nil, nil, err
	}
	sol, res, err := c.finish(st, sol, true)
	if err != nil {
		return nil, nil, err
	}
	c.basis = res.Basis
	return sol, res, nil
}

// finish converts an LP solution of the prepared model into a Result
// and verifies that it enforces st: VerifyBroadcast at α = 1,
// IsApproxEquilibrium otherwise.
//
// The simplex accepts a row violated by up to lp.FeasTol·(1+|C_uv|),
// while the verifier allows a relative 1e-9, so on a near-tie the
// optimum can fail the check. With retry set, such an answer is
// re-solved once from its own basis with every row constant raised past
// the simplex's tolerance, the constants are restored and the new point
// is verified again; a second failure is an error. Only the failure
// path re-solves, so no passing answer changes.
func (c *BroadcastLPChain) finish(st *broadcast.State, sol *lp.Solution, retry bool) (*lp.Solution, *Result, error) {
	if sol.Status != lp.Optimal {
		return nil, nil, fmt.Errorf("sne: broadcast LP status %v (should be feasible by full subsidy)", sol.Status)
	}
	g := st.BG.G
	b := c.bl.subsidy(g, sol.X, g.M())
	err := c.verify(st, b)
	pivots := sol.Pivots
	if err != nil && retry {
		c.bl.raise()
		again, rerr := c.bl.model.ResolveFrom(sol.Basis)
		c.bl.patch(st, c.shape.alpha)
		if rerr == nil && again.Status == lp.Optimal {
			sol = again
			pivots += sol.Pivots
			b = c.bl.subsidy(g, sol.X, g.M())
			err = c.verify(st, b)
		}
	}
	if err != nil {
		return nil, nil, fmt.Errorf("sne: LP(3) produced a non-enforcing assignment: %w", err)
	}
	return sol, &Result{Subsidy: b, Cost: b.Cost(), Iterations: 1, Pivots: pivots, Basis: sol.Basis}, nil
}

// verify checks that b enforces st at the chain's approximation factor.
func (c *BroadcastLPChain) verify(st *broadcast.State, b game.Subsidy) error {
	if c.shape.alpha == 1 {
		return VerifyBroadcast(st, b)
	}
	if !IsApproxEquilibrium(st, b, c.shape.alpha) {
		return fmt.Errorf("sne: not a %v-approximate equilibrium", c.shape.alpha)
	}
	return nil
}

// chainPool recycles chains across the one-shot solvers: a sweep of cold
// solves then rebuilds into grown arenas (or patches, on a repeated
// structure) instead of allocating every model afresh.
var chainPool = sync.Pool{New: func() any { return NewBroadcastLPChain() }}

// SolveBroadcastLP computes a minimum-cost subsidy assignment enforcing
// the broadcast state st, via the paper's LP (3) on the sparse revised
// simplex, solved cold on a pooled chain. The LP is always feasible
// (full subsidies enforce anything), so the result is always Optimal
// barring numerical failure.
func SolveBroadcastLP(st *broadcast.State) (*Result, error) {
	return SolveBroadcastLPApprox(st, 1)
}

// SolveBroadcastLPNaive solves the same LP on the dense two-phase
// tableau. It is the differential-test oracle for SolveBroadcastLP, in
// the same pattern as the other Naive implementations in this library.
func SolveBroadcastLPNaive(st *broadcast.State) (*Result, error) {
	c := chainPool.Get().(*BroadcastLPChain)
	defer chainPool.Put(c)
	c.prepare(st, 1)
	sol, err := c.bl.model.SolveDense()
	if err != nil {
		return nil, err
	}
	_, res, err := c.finish(st, sol, false)
	return res, err
}
