// Package directed implements fair-cost-sharing network design games on
// directed graphs. The paper works with undirected games and notes that
// "this strengthens our results since they can be adapted easily to
// network design games on directed graphs"; directed games are also
// where the H_n price-of-stability bound of Anshelevich et al. is tight,
// which this package reproduces (experiment E18). Enforcement remains an
// LP: the package includes a row-generation SNE solver whose separation
// oracle is directed Dijkstra.
package directed

import (
	"container/heap"
	"errors"
	"fmt"
	"math"

	"netdesign/internal/game"
	"netdesign/internal/lp"
	"netdesign/internal/numeric"
)

// Arc is a directed edge with non-negative weight.
type Arc struct {
	ID   int
	From int
	To   int
	W    float64
}

// Digraph is a directed multigraph with stable arc IDs.
type Digraph struct {
	n    int
	arcs []Arc
	out  [][]int // out[v] = arc IDs leaving v
}

// NewDigraph returns a digraph with n nodes.
func NewDigraph(n int) *Digraph {
	if n < 0 {
		panic("directed: negative node count")
	}
	return &Digraph{n: n, out: make([][]int, n)}
}

// N returns the node count.
func (d *Digraph) N() int { return d.n }

// M returns the arc count.
func (d *Digraph) M() int { return len(d.arcs) }

// AddArc inserts from→to with weight w and returns its ID.
func (d *Digraph) AddArc(from, to int, w float64) int {
	if from < 0 || from >= d.n || to < 0 || to >= d.n {
		panic(fmt.Sprintf("directed: AddArc(%d,%d) out of range", from, to))
	}
	if from == to {
		panic("directed: self-loops are not allowed")
	}
	if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
		panic(fmt.Sprintf("directed: invalid weight %v", w))
	}
	id := len(d.arcs)
	d.arcs = append(d.arcs, Arc{ID: id, From: from, To: to, W: w})
	d.out[from] = append(d.out[from], id)
	return id
}

// Arc returns the arc with the given ID.
func (d *Digraph) Arc(id int) Arc { return d.arcs[id] }

// Weight returns an arc's weight.
func (d *Digraph) Weight(id int) float64 { return d.arcs[id].W }

// dijkstra computes shortest directed distances from src under wf.
func (d *Digraph) dijkstra(src int, wf func(id int) float64) ([]float64, []int) {
	dist := make([]float64, d.n)
	par := make([]int, d.n)
	for i := range dist {
		dist[i] = math.Inf(1)
		par[i] = -1
	}
	dist[src] = 0
	h := &arcHeap{{node: src}}
	done := make([]bool, d.n)
	for h.Len() > 0 {
		it := heap.Pop(h).(arcItem)
		if done[it.node] {
			continue
		}
		done[it.node] = true
		for _, id := range d.out[it.node] {
			a := d.arcs[id]
			w := wf(id)
			if w < 0 {
				panic("directed: negative arc cost")
			}
			if nd := it.dist + w; nd < dist[a.To] {
				dist[a.To] = nd
				par[a.To] = id
				heap.Push(h, arcItem{node: a.To, dist: nd})
			}
		}
	}
	return dist, par
}

type arcItem struct {
	node int
	dist float64
}

type arcHeap []arcItem

func (h arcHeap) Len() int            { return len(h) }
func (h arcHeap) Less(i, j int) bool  { return h[i].dist < h[j].dist }
func (h arcHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *arcHeap) Push(x interface{}) { *h = append(*h, x.(arcItem)) }
func (h *arcHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// Player is a directed terminal pair.
type Player struct{ S, T int }

// Game is a directed fair-cost-sharing game.
type Game struct {
	D       *Digraph
	Players []Player
}

// NewGame validates and returns a directed game.
func NewGame(d *Digraph, players []Player) (*Game, error) {
	for i, p := range players {
		if p.S < 0 || p.S >= d.n || p.T < 0 || p.T >= d.n || p.S == p.T {
			return nil, fmt.Errorf("directed: player %d terminals invalid", i)
		}
	}
	if len(players) == 0 {
		return nil, errors.New("directed: no players")
	}
	return &Game{D: d, Players: players}, nil
}

// State is a strategy profile: one directed path (arc-ID list) per player.
type State struct {
	game  *Game
	Paths [][]int
	usage []int
	uses  [][]bool
}

// NewState validates the profile and caches usage counts.
func NewState(gm *Game, paths [][]int) (*State, error) {
	if len(paths) != len(gm.Players) {
		return nil, fmt.Errorf("directed: %d paths for %d players", len(paths), len(gm.Players))
	}
	st := &State{game: gm, Paths: paths, usage: make([]int, gm.D.M()), uses: make([][]bool, len(paths))}
	for i, p := range paths {
		cur := gm.Players[i].S
		visited := map[int]bool{cur: true}
		if len(p) == 0 {
			return nil, fmt.Errorf("directed: player %d path empty", i)
		}
		st.uses[i] = make([]bool, gm.D.M())
		for _, id := range p {
			if id < 0 || id >= gm.D.M() {
				return nil, fmt.Errorf("directed: player %d uses unknown arc %d", i, id)
			}
			a := gm.D.Arc(id)
			if a.From != cur {
				return nil, fmt.Errorf("directed: player %d path breaks at node %d", i, cur)
			}
			cur = a.To
			if visited[cur] {
				return nil, fmt.Errorf("directed: player %d path revisits node %d", i, cur)
			}
			visited[cur] = true
			st.uses[i][id] = true
			st.usage[id]++
		}
		if cur != gm.Players[i].T {
			return nil, fmt.Errorf("directed: player %d path ends at %d", i, cur)
		}
	}
	return st, nil
}

// Usage returns the number of players on an arc.
func (st *State) Usage(id int) int { return st.usage[id] }

// EstablishedWeight is the social cost (total weight of used arcs).
func (st *State) EstablishedWeight() float64 {
	sum := 0.0
	for id, u := range st.usage {
		if u > 0 {
			sum += st.game.D.Weight(id)
		}
	}
	return sum
}

// PlayerCost returns player i's fair share under subsidies b (indexed by
// arc ID; game.Subsidy is reused as a plain []float64).
func (st *State) PlayerCost(i int, b game.Subsidy) float64 {
	sum := 0.0
	for _, id := range st.Paths[i] {
		sum += (st.game.D.Weight(id) - b.At(id)) / float64(st.usage[id])
	}
	return sum
}

// BestResponse returns player i's cheapest deviation and its cost.
func (st *State) BestResponse(i int, b game.Subsidy) ([]int, float64) {
	wf := func(id int) float64 {
		den := st.usage[id] + 1
		if st.uses[i][id] {
			den--
		}
		return (st.game.D.Weight(id) - b.At(id)) / float64(den)
	}
	dist, par := st.game.D.dijkstra(st.game.Players[i].S, wf)
	t := st.game.Players[i].T
	if math.IsInf(dist[t], 1) {
		return nil, dist[t]
	}
	var rev []int
	for v := t; v != st.game.Players[i].S; {
		id := par[v]
		rev = append(rev, id)
		v = st.game.D.Arc(id).From
	}
	for a, z := 0, len(rev)-1; a < z; a, z = a+1, z-1 {
		rev[a], rev[z] = rev[z], rev[a]
	}
	return rev, dist[t]
}

// IsEquilibrium reports whether no player can profitably deviate.
func (st *State) IsEquilibrium(b game.Subsidy) bool {
	for i := range st.Paths {
		cur := st.PlayerCost(i, b)
		if p, c := st.BestResponse(i, b); p != nil && numeric.Less(c, cur) {
			return false
		}
	}
	return true
}

// Potential returns Rosenthal's potential (directed games are potential
// games too, so pure equilibria exist and H_n bounds the PoS — tightly,
// unlike the undirected case).
func (st *State) Potential(b game.Subsidy) float64 {
	sum := 0.0
	for id, u := range st.usage {
		if u > 0 {
			sum += (st.game.D.Weight(id) - b.At(id)) * numeric.Harmonic(u)
		}
	}
	return sum
}

// SolveSNE computes minimum subsidies enforcing st by row generation with
// the directed Dijkstra oracle — Theorem 1 verbatim on digraphs.
func SolveSNE(st *State, maxIters int) (game.Subsidy, float64, error) {
	b, cost, _, err := SolveSNEFrom(st, maxIters, nil)
	return b, cost, err
}

// SolveSNEFrom is SolveSNE seeded with a basis from another solve and
// additionally returning the final optimal basis. The first solve starts
// from warm only where lp.ResolveFrom can seat it dual feasible; a nil
// or unusable basis gives the cold first solve.
func SolveSNEFrom(st *State, maxIters int, warm *lp.Basis) (game.Subsidy, float64, *lp.Basis, error) {
	if maxIters <= 0 {
		maxIters = 10000
	}
	d := st.game.D
	varOf := make([]int, d.M())
	model := lp.NewModel()
	for id, u := range st.usage {
		if u > 0 {
			varOf[id] = model.AddVar(1, d.Weight(id))
		} else {
			varOf[id] = -1
		}
	}
	b := make(game.Subsidy, d.M())
	onPath := make([]bool, d.M())
	cols := make([]int, 0, 16)
	vals := make([]float64, 0, 16)
	basis := warm
	for iter := 0; iter < maxIters; iter++ {
		violID := -1
		var violPath []int
		for i := range st.Paths {
			cur := st.PlayerCost(i, b)
			if p, c := st.BestResponse(i, b); p != nil && numeric.Less(c, cur) {
				violID, violPath = i, p
				break
			}
		}
		if violID == -1 {
			for id := range b {
				b[id] = numeric.Clamp(b[id], 0, d.Weight(id))
			}
			return b, b.Cost(), basis, nil
		}
		for _, id := range violPath {
			onPath[id] = true
		}
		cols, vals = cols[:0], vals[:0]
		rhs := 0.0
		for _, id := range st.Paths[violID] {
			if onPath[id] {
				continue
			}
			na := float64(st.usage[id])
			cols = append(cols, varOf[id])
			vals = append(vals, 1/na)
			rhs += d.Weight(id) / na
		}
		for _, id := range violPath {
			if st.uses[violID][id] {
				continue
			}
			den := float64(st.usage[id] + 1)
			if j := varOf[id]; j >= 0 {
				cols = append(cols, j)
				vals = append(vals, -1/den)
			}
			rhs -= d.Weight(id) / den
		}
		for _, id := range violPath {
			onPath[id] = false
		}
		model.AddRow(cols, vals, lp.GE, rhs)
		sol, err := model.ResolveFrom(basis)
		if err != nil {
			return nil, 0, nil, err
		}
		if sol.Status != lp.Optimal {
			return nil, 0, nil, fmt.Errorf("directed: SNE LP status %v", sol.Status)
		}
		basis = sol.Basis
		for id, j := range varOf {
			if j >= 0 {
				b[id] = numeric.Clamp(sol.X[j], 0, d.Weight(id))
			}
		}
	}
	return nil, 0, nil, errors.New("directed: SNE row generation exceeded budget")
}

// HnInstance builds the classic directed instance showing PoS = H_n is
// tight (Anshelevich et al., recalled in the paper's related work):
// every player i can reach the sink directly for 1/i, or reach a shared
// relay for free and split the relay's 1+ε arc. The optimum shares the
// relay (cost 1+ε); the unique equilibrium is everyone-direct (cost H_n).
type HnInstance struct {
	Game    *Game
	Sink    int
	Relay   int
	Direct  []int // arc per player
	Entry   []int // free arc per player into the relay
	Shared  int   // relay→sink arc of weight 1+ε
	Epsilon float64
}

// NewHnInstance constructs the instance for n players.
func NewHnInstance(n int, eps float64) (*HnInstance, error) {
	if n < 1 || eps <= 0 {
		return nil, errors.New("directed: need n ≥ 1 and ε > 0")
	}
	d := NewDigraph(n + 2)
	sink := n
	relay := n + 1
	inst := &HnInstance{Sink: sink, Relay: relay, Epsilon: eps}
	var players []Player
	for i := 0; i < n; i++ {
		inst.Direct = append(inst.Direct, d.AddArc(i, sink, 1/float64(i+1)))
		inst.Entry = append(inst.Entry, d.AddArc(i, relay, 0))
		players = append(players, Player{S: i, T: sink})
	}
	inst.Shared = d.AddArc(relay, sink, 1+eps)
	gm, err := NewGame(d, players)
	if err != nil {
		return nil, err
	}
	inst.Game = gm
	return inst, nil
}

// OptState returns the all-shared profile (the social optimum).
func (inst *HnInstance) OptState() (*State, error) {
	paths := make([][]int, len(inst.Game.Players))
	for i := range paths {
		paths[i] = []int{inst.Entry[i], inst.Shared}
	}
	return NewState(inst.Game, paths)
}

// DirectState returns the all-direct profile (the unique equilibrium).
func (inst *HnInstance) DirectState() (*State, error) {
	paths := make([][]int, len(inst.Game.Players))
	for i := range paths {
		paths[i] = []int{inst.Direct[i]}
	}
	return NewState(inst.Game, paths)
}
