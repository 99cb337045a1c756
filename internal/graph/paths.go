package graph

import "math"

// WeightFunc maps an edge ID to a non-negative traversal cost. Best-response
// computations in games use it to price edges by their marginal cost share
// (w_a − b_a)/(n_a + 1 − n_a^i) rather than by raw weight.
type WeightFunc func(edgeID int) float64

// DefaultWeights returns the graph's own edge weights as a WeightFunc.
func DefaultWeights(g *Graph) WeightFunc {
	return func(id int) float64 { return g.Weight(id) }
}

// ShortestPaths holds the result of a single-source Dijkstra run.
type ShortestPaths struct {
	Source  int
	Dist    []float64 // Dist[v] = shortest distance, +Inf if unreachable
	ParEdge []int     // ParEdge[v] = edge ID into v on a shortest path, -1 at source/unreachable
	ParNode []int     // ParNode[v] = predecessor node, -1 at source/unreachable
}

// Dijkstra computes single-source shortest paths from src under the given
// weight function (nil means raw edge weights). All weights must be
// non-negative; the game layer guarantees this because subsidies never
// exceed edge weights.
//
// It runs on the graph's frozen CSR view with an indexed 4-ary heap; the
// few allocations that remain are the result slices. Callers in tight
// loops (sweeps, best-response dynamics) should freeze the graph once and
// use (*Scratch).Dijkstra directly, which allocates nothing in steady
// state.
func Dijkstra(g *Graph, src int, w WeightFunc) *ShortestPaths {
	c := g.Freeze()
	var s Scratch
	s.Dijkstra(c, src, w)
	n := c.n
	sp := &ShortestPaths{
		Source:  src,
		Dist:    s.Dist, // owned by the throwaway scratch, safe to hand out
		ParEdge: make([]int, n),
		ParNode: make([]int, n),
	}
	for i := 0; i < n; i++ {
		sp.ParEdge[i] = int(s.ParEdge[i])
		sp.ParNode[i] = int(s.ParNode[i])
	}
	return sp
}

// PathTo reconstructs the edge-ID path from the source to node v, or nil
// if v is unreachable. The path is ordered from source to v.
func (sp *ShortestPaths) PathTo(v int) []int {
	if math.IsInf(sp.Dist[v], 1) {
		return nil
	}
	var rev []int
	for v != sp.Source {
		rev = append(rev, sp.ParEdge[v])
		v = sp.ParNode[v]
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// AllPairsFloydWarshall computes all-pairs shortest distances under the
// given weight function. O(n³); used as a test oracle against Dijkstra and
// by small-instance analyses.
func AllPairsFloydWarshall(g *Graph, w WeightFunc) [][]float64 {
	if w == nil {
		w = DefaultWeights(g)
	}
	n := g.N()
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
		for j := range d[i] {
			if i != j {
				d[i][j] = math.Inf(1)
			}
		}
	}
	for _, e := range g.Edges() {
		wc := w(e.ID)
		if wc < d[e.U][e.V] {
			d[e.U][e.V] = wc
			d[e.V][e.U] = wc
		}
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			dik := d[i][k]
			if math.IsInf(dik, 1) {
				continue
			}
			for j := 0; j < n; j++ {
				if nd := dik + d[k][j]; nd < d[i][j] {
					d[i][j] = nd
				}
			}
		}
	}
	return d
}

// SimplePaths enumerates every simple path between s and t as edge-ID
// slices, invoking fn for each. Enumeration stops early if fn returns
// false or after limit paths (limit ≤ 0 means no limit). It is exponential
// by nature and exists for brute-force validation on tiny games, where the
// strategy set of a player is exactly this path set.
func SimplePaths(g *Graph, s, t int, limit int, fn func(path []int) bool) int {
	visited := make([]bool, g.N())
	var path []int
	count := 0
	stopped := false
	var dfs func(u int)
	dfs = func(u int) {
		if stopped {
			return
		}
		if u == t {
			count++
			cp := append([]int(nil), path...)
			if !fn(cp) || (limit > 0 && count >= limit) {
				stopped = true
			}
			return
		}
		visited[u] = true
		for _, half := range g.Adj(u) {
			if !visited[half.To] {
				path = append(path, half.Edge)
				dfs(half.To)
				path = path[:len(path)-1]
				if stopped {
					break
				}
			}
		}
		visited[u] = false
	}
	dfs(s)
	return count
}
