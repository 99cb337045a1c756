package graph

import (
	"container/heap"
	"math"
	"math/bits"
)

// Naive oracles the differential tests hold the production fast paths
// to: Dijkstra on container/heap, Kruskal re-sorting the edge list, and
// LCA by binary lifting or a parent walk.

// spItem is a heap entry for the naive Dijkstra oracle.
type spItem struct {
	node int
	dist float64
}

type spHeap []spItem

func (h spHeap) Len() int            { return len(h) }
func (h spHeap) Less(i, j int) bool  { return h[i].dist < h[j].dist }
func (h spHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *spHeap) Push(x interface{}) { *h = append(*h, x.(spItem)) }
func (h *spHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// DijkstraNaive is the original container/heap implementation (lazy
// deletion, interface boxing), the differential-test oracle for the CSR
// fast path.
func DijkstraNaive(g *Graph, src int, w WeightFunc) *ShortestPaths {
	if w == nil {
		w = DefaultWeights(g)
	}
	n := g.N()
	sp := &ShortestPaths{
		Source:  src,
		Dist:    make([]float64, n),
		ParEdge: make([]int, n),
		ParNode: make([]int, n),
	}
	for i := range sp.Dist {
		sp.Dist[i] = math.Inf(1)
		sp.ParEdge[i] = -1
		sp.ParNode[i] = -1
	}
	sp.Dist[src] = 0
	done := make([]bool, n)
	h := &spHeap{{node: src, dist: 0}}
	for h.Len() > 0 {
		it := heap.Pop(h).(spItem)
		if done[it.node] {
			continue
		}
		done[it.node] = true
		for _, half := range g.Adj(it.node) {
			wc := w(half.Edge)
			if wc < 0 {
				panic("graph: Dijkstra requires non-negative weights")
			}
			nd := it.dist + wc
			if nd < sp.Dist[half.To] {
				sp.Dist[half.To] = nd
				sp.ParEdge[half.To] = half.Edge
				sp.ParNode[half.To] = it.node
				heap.Push(h, spItem{node: half.To, dist: nd})
			}
		}
	}
	return sp
}

// MSTNaive is the original Kruskal implementation, re-sorting the edge
// list on every call: the differential-test oracle for MST.
func MSTNaive(g *Graph) ([]int, error) {
	ids := g.SortedEdgeIDs()
	dsu := NewUnionFind(g.N())
	tree := make([]int, 0, g.N()-1)
	for _, id := range ids {
		e := g.Edge(id)
		if dsu.Union(e.U, e.V) {
			tree = append(tree, id)
			if len(tree) == g.N()-1 {
				return tree, nil
			}
		}
	}
	if g.N() <= 1 {
		return tree, nil
	}
	return nil, ErrDisconnected
}

// lcaNaive returns the differential-test oracle for t.LCA on t as it is
// now. With a pending swap it is an O(depth) two-pointer walk over the
// live Parent/Depth arrays, exactly the oracle the overlay fast path is
// tested against; otherwise it answers by binary lifting in O(log n) over
// an ancestor table built here, once per call of lcaNaive.
func lcaNaive(t *RootedTree) func(u, v int) int {
	if t.swp.active {
		return func(u, v int) int {
			for t.Depth[u] > t.Depth[v] {
				u = t.Parent[u]
			}
			for t.Depth[v] > t.Depth[u] {
				v = t.Parent[v]
			}
			for u != v {
				u, v = t.Parent[u], t.Parent[v]
			}
			return u
		}
	}
	n := t.G.N()
	levels := 1
	if n > 1 {
		levels = bits.Len(uint(n - 1))
	}
	up := make([][]int, levels)
	up[0] = append([]int(nil), t.Parent...)
	for k := 1; k < levels; k++ {
		up[k] = make([]int, n)
		for v := 0; v < n; v++ {
			mid := up[k-1][v]
			if mid == -1 {
				up[k][v] = -1
			} else {
				up[k][v] = up[k-1][mid]
			}
		}
	}
	return func(u, v int) int {
		if t.Depth[u] < t.Depth[v] {
			u, v = v, u
		}
		diff := t.Depth[u] - t.Depth[v]
		for k := 0; diff != 0; k++ {
			if diff&1 == 1 {
				u = up[k][u]
			}
			diff >>= 1
		}
		if u == v {
			return u
		}
		for k := len(up) - 1; k >= 0; k-- {
			if up[k][u] != up[k][v] {
				u = up[k][u]
				v = up[k][v]
			}
		}
		return t.Parent[u]
	}
}
