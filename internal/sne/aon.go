package sne

import (
	"errors"
	"math"
	"sort"
	"sync"

	"netdesign/internal/broadcast"
	"netdesign/internal/game"
	"netdesign/internal/numeric"
	"netdesign/internal/parallel"
)

// ErrAONBudget is returned when branch-and-bound exceeds its node budget.
var ErrAONBudget = errors.New("sne: all-or-nothing search exceeded node budget")

// AONOptions tunes the exact all-or-nothing solver.
type AONOptions struct {
	MaxNodes      int  // search-tree node budget (≤ 0: 50M)
	Workers       int  // parallel top-level split (≤ 0: GOMAXPROCS)
	LightestFirst bool // ablation: decide cheapest edges first (default: heaviest first)
}

// aonRow is an LP (3) row specialized to 0/1 subsidy decisions: the row is
// satisfied iff Σ_{a subsidized} delta_a ≥ rhs, where delta_a = coef_a·w_a.
// Subsidizing an edge with negative delta (an edge of the deviation path
// T_v) makes the row harder — the non-monotonicity at the heart of
// Section 5's hardness results.
type aonRow struct {
	deltas map[int]float64 // keyed by position in the edge ordering
	rhs    float64
}

// aonProblem is the immutable part of a branch-and-bound run.
type aonProblem struct {
	edges   []int     // relevant tree-edge IDs, in decision order
	weights []float64 // weights of those edges
	rows    []aonRow
	touch   [][]int // touch[pos] = indices of rows containing edge pos
}

// buildAONProblem compiles the state's LP (3) rows into decision form.
// Tree edges appearing in no row are never subsidized and are dropped.
func buildAONProblem(st *broadcast.State, lightestFirst bool) *aonProblem {
	g := st.BG.G
	bl := buildBroadcastLPInto(st, nil, 1)
	used := map[int]bool{}
	for i := 0; i < bl.model.NumConstraints(); i++ {
		cols, _, _, _ := bl.model.Row(i)
		for _, j := range cols {
			used[bl.edgeOf[j]] = true
		}
	}
	var edges []int
	for _, id := range st.Tree.EdgeIDs {
		if used[id] {
			edges = append(edges, id)
		}
	}
	// Heaviest edges first by default: cost pruning bites sooner when
	// expensive decisions sit near the root of the search tree. The
	// lightest-first ordering exists for the ablation benchmark.
	sort.Slice(edges, func(i, j int) bool {
		wi, wj := g.Weight(edges[i]), g.Weight(edges[j])
		if wi != wj {
			if lightestFirst {
				return wi < wj
			}
			return wi > wj
		}
		return edges[i] < edges[j]
	})
	pos := make(map[int]int, len(edges))
	p := &aonProblem{edges: edges, weights: make([]float64, len(edges))}
	for i, id := range edges {
		pos[id] = i
		p.weights[i] = g.Weight(id)
	}
	p.touch = make([][]int, len(edges))
	for i := 0; i < bl.model.NumConstraints(); i++ {
		cols, vals, _, rhs := bl.model.Row(i)
		row := aonRow{deltas: map[int]float64{}, rhs: rhs}
		for k, j := range cols {
			id := bl.edgeOf[j]
			// += rather than =: Model.Row may expose duplicate column
			// entries, whose coefficients sum.
			row.deltas[pos[id]] += vals[k] * g.Weight(id)
		}
		p.rows = append(p.rows, row)
		ri := len(p.rows) - 1
		for pe := range row.deltas {
			p.touch[pe] = append(p.touch[pe], ri)
		}
	}
	return p
}

// aonSearch is the mutable DFS state.
type aonSearch struct {
	p        *aonProblem
	total    []float64 // per row: Σ deltas of subsidized decided edges
	future   []float64 // per row: Σ max(0, delta) over undecided edges
	chosen   []bool
	nodes    int
	maxNodes int

	mu       *sync.Mutex // shared incumbent (parallel runs)
	bestCost *float64
	bestSet  *[]bool
}

func newAONSearch(p *aonProblem, maxNodes int, mu *sync.Mutex, bestCost *float64, bestSet *[]bool) *aonSearch {
	s := &aonSearch{
		p:        p,
		total:    make([]float64, len(p.rows)),
		future:   make([]float64, len(p.rows)),
		chosen:   make([]bool, len(p.edges)),
		maxNodes: maxNodes,
		mu:       mu,
		bestCost: bestCost,
		bestSet:  bestSet,
	}
	for ri, r := range p.rows {
		for _, d := range r.deltas {
			if d > 0 {
				s.future[ri] += d
			}
		}
	}
	return s
}

func (s *aonSearch) incumbent() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return *s.bestCost
}

func (s *aonSearch) offer(cost float64, set []bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cost < *s.bestCost {
		*s.bestCost = cost
		cp := append([]bool(nil), set...)
		*s.bestSet = cp
	}
}

// decide applies the decision for edge pos and reports whether any touched
// row became hopeless (optimistic total < rhs). Call undo afterwards.
func (s *aonSearch) decide(pos int, subsidize bool) (feasible bool) {
	feasible = true
	for _, ri := range s.p.touch[pos] {
		d := s.p.rows[ri].deltas[pos]
		if d > 0 {
			s.future[ri] -= d
		}
		if subsidize {
			s.total[ri] += d
		}
		if s.total[ri]+s.future[ri] < s.p.rows[ri].rhs-aonTol(s.p.rows[ri].rhs) {
			feasible = false
		}
	}
	s.chosen[pos] = subsidize
	return feasible
}

func (s *aonSearch) undo(pos int, subsidize bool) {
	for _, ri := range s.p.touch[pos] {
		d := s.p.rows[ri].deltas[pos]
		if d > 0 {
			s.future[ri] += d
		}
		if subsidize {
			s.total[ri] -= d
		}
	}
	s.chosen[pos] = false
}

func aonTol(rhs float64) float64 {
	return numeric.Eps * (1 + math.Abs(rhs))
}

// dfs explores decisions from position k with accumulated subsidy cost.
func (s *aonSearch) dfs(k int, cost float64) error {
	s.nodes++
	if s.nodes > s.maxNodes {
		return ErrAONBudget
	}
	if cost >= s.incumbent()-numeric.Eps {
		return nil
	}
	if k == len(s.p.edges) {
		for ri, r := range s.p.rows {
			if s.total[ri] < r.rhs-aonTol(r.rhs) {
				return nil // infeasible leaf (should have been pruned)
			}
		}
		s.offer(cost, s.chosen)
		return nil
	}
	// Exclude first: cheaper completions are found earlier, improving the
	// incumbent for subsequent pruning.
	if s.decide(k, false) {
		if err := s.dfs(k+1, cost); err != nil {
			return err
		}
	}
	s.undo(k, false)
	if s.decide(k, true) {
		if err := s.dfs(k+1, cost+s.p.weights[k]); err != nil {
			return err
		}
	}
	s.undo(k, true)
	return nil
}

// SolveAON computes a minimum-cost all-or-nothing subsidy assignment
// enforcing the broadcast state st, by exact branch-and-bound over the
// subsets of tree edges. Rows are the LP (3) constraints in 0/1 form;
// pruning combines the incumbent cost bound with a per-row optimistic
// bound (current contribution plus all remaining positive deltas). The
// top of the search tree is split across a worker pool.
func SolveAON(st *broadcast.State, opts AONOptions) (*Result, error) {
	p := buildAONProblem(st, opts.LightestFirst)
	maxNodes := opts.MaxNodes
	if maxNodes <= 0 {
		maxNodes = 50_000_000
	}
	g := st.BG.G

	var mu sync.Mutex
	bestCost := math.Inf(1)
	var bestSet []bool

	// Seed the incumbent with the greedy solution so pruning starts tight.
	if greedy, err := GreedyAON(st); err == nil {
		bestCost = greedy.Cost + numeric.Eps
		seed := make([]bool, len(p.edges))
		for i, id := range p.edges {
			seed[i] = greedy.Subsidy.At(id) > 0
		}
		bestSet = seed
	}

	// Split the first few decision levels into independent prefixes.
	split := 0
	workers := parallel.Workers(opts.Workers)
	for (1<<(split+1)) <= 4*workers && split < len(p.edges) {
		split++
	}
	prefixes := 1 << split
	errs := make([]error, prefixes)
	parallel.ForEach(prefixes, opts.Workers, func(mask int) {
		s := newAONSearch(p, maxNodes, &mu, &bestCost, &bestSet)
		cost := 0.0
		ok := true
		for k := 0; k < split; k++ {
			sub := mask&(1<<k) != 0
			if !s.decide(k, sub) {
				ok = false
				break
			}
			if sub {
				cost += p.weights[k]
			}
		}
		if ok && cost < s.incumbent() {
			errs[mask] = s.dfs(split, cost)
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if math.IsInf(bestCost, 1) {
		// Cannot happen: subsidizing every relevant edge satisfies all
		// rows (Σ all deltas = rhs + w_e ≥ rhs).
		return nil, errors.New("sne: AON search found no feasible assignment")
	}
	b := game.ZeroSubsidy(g)
	cost := 0.0
	for i, id := range p.edges {
		if bestSet[i] {
			b[id] = g.Weight(id)
			cost += b[id]
		}
	}
	res := &Result{Subsidy: b, Cost: cost}
	if err := VerifyBroadcast(st, b); err != nil {
		return nil, err
	}
	return res, nil
}

// GreedyAON enforces st with all-or-nothing subsidies greedily: while some
// LP (3) row is unsatisfied, it subsidizes the unsubsidized edge with the
// largest per-cost contribution to that row. Subsidizing every positive
// edge of a row always satisfies it, so the loop terminates with a valid
// (not necessarily optimal) assignment — the practical heuristic the
// paper's Section 6 asks for.
func GreedyAON(st *broadcast.State) (*Result, error) {
	p := buildAONProblem(st, false)
	g := st.BG.G
	chosen := make([]bool, len(p.edges))
	totals := make([]float64, len(p.rows))
	for {
		worst, worstGap := -1, 0.0
		for ri, r := range p.rows {
			if gap := r.rhs - totals[ri]; gap > aonTol(r.rhs) && gap > worstGap {
				worst, worstGap = ri, gap
			}
		}
		if worst == -1 {
			break
		}
		best, bestScore := -1, 0.0
		for pe, d := range p.rows[worst].deltas {
			if !chosen[pe] && d > 0 {
				if score := d / p.weights[pe]; best == -1 || score > bestScore {
					best, bestScore = pe, score
				}
			}
		}
		if best == -1 {
			return nil, errors.New("sne: greedy invariant broken — unsatisfiable row")
		}
		chosen[best] = true
		for _, ri := range p.touch[best] {
			totals[ri] += p.rows[ri].deltas[best]
		}
	}
	b := game.ZeroSubsidy(g)
	cost := 0.0
	for i, id := range p.edges {
		if chosen[i] {
			b[id] = g.Weight(id)
			cost += b[id]
		}
	}
	res := &Result{Subsidy: b, Cost: cost}
	if err := VerifyBroadcast(st, b); err != nil {
		return nil, err
	}
	return res, nil
}
