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
// paper's row for player u and non-tree edge (u,v) is
//
//	Σ_{a∈T_u} (w_a−b_a)/n_a ≤ w_uv − b_uv + Σ_{a∈T_v} (w_a−b_a)/(n_a+1−n_a^u).
//
// Edges shared by T_u and T_v (those above x = lca(u,v)) appear on both
// sides with denominator n_a and cancel; b_uv is fixed to zero because
// subsidizing a non-tree edge only strengthens the deviation. Moving the
// variables left and constants right gives
//
//	Σ_{a∈T_u\T_x} b_a/n_a − Σ_{a∈T_v\T_x} b_a/(n_a+1) ≥ C_uv,
//
// with C_uv = (up0[u]−up0[x]) − w_uv − (dev0[v]−dev0[x]) evaluated at
// zero subsidies. Rows are batched straight off the State's cached
// Lemma-2 prefix sums into preallocated sparse buffers: no per-row maps,
// two parent-chain walks and one AddRow per deviation.
type broadcastLP struct {
	model  *lp.Model
	varOf  []int // edge ID → LP variable (tree edges only; -1 otherwise)
	edgeOf []int // LP variable → edge ID

	// Per-row deviation metadata: the deviating player, the entry node,
	// the non-tree edge and lca(u,v) of each LP row. Shadow pricing reads
	// the first three; patch re-derives each row constant from all four.
	rowU, rowV, rowEdge, rowX []int

	// Row-emission scratch, pooled with the struct.
	cols []int
	vals []float64
}

// buildBroadcastLP materializes every LP (3) row of the state.
func buildBroadcastLP(st *broadcast.State) *broadcastLP {
	return buildBroadcastLPInto(st, nil)
}

// buildBroadcastLPInto is buildBroadcastLP with workspace reuse: a
// non-nil bl is reset in place (model arenas and index slices keep their
// capacity), so rebuilding the LP for instance after instance of a sweep
// allocates nothing in steady state.
func buildBroadcastLPInto(st *broadcast.State, bl *broadcastLP) *broadcastLP {
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
	// segment, so each row's constant is O(1) on top of the two chain
	// walks that emit its coefficients.
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
				vals = append(vals, -1/float64(st.NA[id]+1))
			}
			if len(cols) == 0 {
				// No variables can appear only when u == x (v below u);
				// then rhs = −w_uv − devseg ≤ 0 and the row is vacuous.
				continue
			}
			rhs := (up0[u] - up0[x]) - e.W - (dev0[v] - dev0[x])
			bl.model.AddRow(cols, vals, lp.GE, rhs)
			bl.rowU = append(bl.rowU, u)
			bl.rowV = append(bl.rowV, v)
			bl.rowEdge = append(bl.rowEdge, e.ID)
			bl.rowX = append(bl.rowX, x)
		}
	}
	bl.cols, bl.vals = cols, vals // hand grown scratch back to the pool
	return bl
}

// patch rewrites the weight-dependent data of an LP built from a state
// of identical structure (see lpShape) for st's weights: the upper
// bounds w_a and the row constants C_uv, with the exact expressions the
// build uses, so the patched model equals a rebuilt one bit for bit.
// O(n + rows), and the model's column copy stays valid.
func (bl *broadcastLP) patch(st *broadcast.State) {
	g := st.BG.G
	for j, id := range bl.edgeOf {
		bl.model.SetUpperBound(j, g.Weight(id))
	}
	up0, dev0 := st.PrefixSums(nil)
	for r, u := range bl.rowU {
		v, x := bl.rowV[r], bl.rowX[r]
		rhs := (up0[u] - up0[x]) - g.Weight(bl.rowEdge[r]) - (dev0[v] - dev0[x])
		bl.model.SetRHS(r, rhs)
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

// finishBroadcast converts an Optimal LP solution into a verified Result.
func finishBroadcast(st *broadcast.State, bl *broadcastLP, sol *lp.Solution) (*Result, error) {
	if sol.Status != lp.Optimal {
		return nil, fmt.Errorf("sne: broadcast LP status %v (should be feasible by full subsidy)", sol.Status)
	}
	b := bl.subsidy(st.BG.G, sol.X, st.BG.G.M())
	res := &Result{Subsidy: b, Cost: b.Cost(), Iterations: 1, Pivots: sol.Pivots, Basis: sol.Basis}
	if err := VerifyBroadcast(st, b); err != nil {
		return nil, fmt.Errorf("sne: LP(3) produced a non-enforcing assignment: %w", err)
	}
	return res, nil
}

// blPool recycles LP (3) build workspaces, model and column copy
// included, across the one-shot solvers: a sweep of cold solves then
// rebuilds into grown arenas instead of allocating every model afresh.
var blPool = sync.Pool{New: func() any { return &broadcastLP{model: lp.NewModel()} }}

// solveBroadcastPooled is solveBroadcast on a pooled build workspace.
func solveBroadcastPooled(st *broadcast.State, dense bool, warm *lp.Basis) (*Result, error) {
	bl := blPool.Get().(*broadcastLP)
	defer blPool.Put(bl)
	_, res, err := solveBroadcast(st, bl, dense, warm)
	return res, err
}

// solveBroadcast builds the LP into bl, runs it through the chosen
// solver and verifies the resulting assignment enforces the state. A
// non-nil warm basis — from an earlier solve of this or a structurally
// compatible nearby instance — starts the sparse solver from it
// (lp.ResolveFrom projects and falls back to a cold solve when the basis
// does not help).
func solveBroadcast(st *broadcast.State, bl *broadcastLP, dense bool, warm *lp.Basis) (*lp.Solution, *Result, error) {
	buildBroadcastLPInto(st, bl)
	var sol *lp.Solution
	var err error
	switch {
	case dense:
		sol, err = bl.model.SolveDense()
	case warm != nil:
		sol, err = bl.model.ResolveFrom(warm)
	default:
		sol, err = bl.model.Solve()
	}
	if err != nil {
		return nil, nil, err
	}
	res, err := finishBroadcast(st, bl, sol)
	if err != nil {
		return nil, nil, err
	}
	return sol, res, nil
}

// BroadcastLPChain is the cross-instance homotopy driver for LP (3): it
// pools the LP build workspace (model arenas included) AND hands each
// instance's optimal basis to the next solve, which is the whole point
// on a nearby-instance family — identical structure means the projected
// basis is a few dual pivots from the new optimum, and the pooled build
// means the model rebuild allocates nothing. Not safe for concurrent
// use: one chain per worker.
type BroadcastLPChain struct {
	bl    *broadcastLP
	shape lpShape // the structure bl was last built from
	basis *lp.Basis
}

// lpShape records what LP (3)'s variables, rows and coefficients depend
// on besides the tree-edge order (bl.edgeOf) and the row list (bl.rowU,
// rowV, rowEdge, rowX): every node's parent edge, the usage counts n_a
// and every edge's endpoints. The root is the one node without a parent
// edge, tree membership is the set of edgeOf, and each parent follows
// from its parent edge's endpoints, so equal records mean an equal
// constraint matrix, row order and variable order. Edge weights are
// absent: they enter only the upper bounds and the row constants, which
// patch rewrites.
type lpShape struct {
	parEdge []int
	na      []int64
	ends    []int // U, V of edge id at 2·id, 2·id+1
}

// record captures st's structure.
func (sh *lpShape) record(st *broadcast.State) {
	edges := st.BG.G.Edges()
	sh.parEdge = append(sh.parEdge[:0], st.Tree.ParEdge...)
	sh.na = append(sh.na[:0], st.NA...)
	sh.ends = sh.ends[:0]
	for i := range edges {
		sh.ends = append(sh.ends, edges[i].U, edges[i].V)
	}
}

// matches reports whether st has the recorded structure and the tree
// edge order edgeOf, compared element by element. An empty record
// matches no state.
func (sh *lpShape) matches(st *broadcast.State, edgeOf []int) bool {
	edges := st.BG.G.Edges()
	if len(edges)*2 != len(sh.ends) ||
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

// Solve computes the LP (3) optimum of st warm-started from the chain's
// incumbent basis, and advances the chain. The result is identical to
// SolveBroadcastLP up to pivot path.
func (c *BroadcastLPChain) Solve(st *broadcast.State) (*Result, error) {
	c.Prepare(st)
	res, _, err := c.SolvePrepared(st, c.basis)
	return res, err
}

// Prepare builds the LP (3) of st into the chain's pooled workspace —
// without solving — and returns the model's structure fingerprint. The
// fingerprint is the key a serving layer uses to look up a warm basis
// from a structurally identical earlier instance (a basis cache) before
// committing to a solve; follow with SolvePrepared.
//
// When st has exactly the structure of the previously prepared state
// (lpShape), Prepare patches the bounds and row constants of the pooled
// model in place instead of rebuilding it: the resulting model, and so
// every solve of it, is bit-identical to a rebuild.
func (c *BroadcastLPChain) Prepare(st *broadcast.State) uint64 {
	if c.bl != nil && c.shape.matches(st, c.bl.edgeOf) {
		c.bl.patch(st)
	} else {
		c.build(st)
	}
	return c.bl.model.StructureFingerprint()
}

// build rebuilds the chain's LP from st and records its structure.
func (c *BroadcastLPChain) build(st *broadcast.State) {
	c.bl = buildBroadcastLPInto(st, c.bl)
	c.shape.record(st)
}

// SolvePrepared solves the LP built by the immediately preceding Prepare,
// warm-starting from warm when it is compatible with the prepared model
// (cold otherwise — lp.ResolveFrom's own projection fallback still
// applies on top), verifies the assignment and advances the chain. The
// returned flag reports whether the warm basis was actually attempted:
// the warm-vs-cold solve counters a server exports come from it.
func (c *BroadcastLPChain) SolvePrepared(st *broadcast.State, warm *lp.Basis) (*Result, bool, error) {
	if c.bl == nil {
		c.build(st)
	}
	usedWarm := warm.CompatibleWith(c.bl.model)
	var sol *lp.Solution
	var err error
	if usedWarm {
		sol, err = c.bl.model.ResolveFrom(warm)
	} else {
		sol, err = c.bl.model.Solve()
	}
	if err != nil {
		return nil, usedWarm, err
	}
	res, err := finishBroadcast(st, c.bl, sol)
	if err != nil {
		return nil, usedWarm, err
	}
	c.basis = res.Basis
	return res, usedWarm, nil
}

// SolveBroadcastLP computes a minimum-cost subsidy assignment enforcing
// the broadcast state st, via the paper's LP (3) on the sparse revised
// simplex. The LP is always feasible (full subsidies enforce anything),
// so the result is always Optimal barring numerical failure.
func SolveBroadcastLP(st *broadcast.State) (*Result, error) {
	return solveBroadcastPooled(st, false, nil)
}

// SolveBroadcastLPFrom is SolveBroadcastLP warm-started from the basis of
// a nearby instance's solve — the cross-instance homotopy entry point the
// sne-lp sweep scenario chains through a family. The result is the same
// optimum (the basis only changes the pivot path), and Result.Basis
// carries the chain forward.
func SolveBroadcastLPFrom(st *broadcast.State, warm *lp.Basis) (*Result, error) {
	return solveBroadcastPooled(st, false, warm)
}

// SolveBroadcastLPNaive solves the same LP on the dense two-phase
// tableau. It is the differential-test oracle for SolveBroadcastLP, in
// the same pattern as the other Naive implementations in this library.
func SolveBroadcastLPNaive(st *broadcast.State) (*Result, error) {
	return solveBroadcastPooled(st, true, nil)
}

// MinSubsidyLowerBoundLP returns the LP relaxation value only (no
// verification round-trip); used by analyses that need many optima fast.
func MinSubsidyLowerBoundLP(st *broadcast.State) (float64, error) {
	r, err := SolveBroadcastLP(st)
	if err != nil {
		return math.NaN(), err
	}
	return r.Cost, nil
}
