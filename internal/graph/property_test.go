package graph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// genGraph derives a deterministic random connected graph from quick's
// fuzzed inputs.
func genGraph(seed int64, n uint8, p uint8) *Graph {
	rng := rand.New(rand.NewSource(seed))
	nodes := 2 + int(n%10)
	prob := 0.2 + float64(p%60)/100
	return RandomConnected(rng, nodes, prob, 0.1, 5)
}

// TestPropertyMSTWeightPermutationInvariant: the MST weight of a graph
// must not depend on edge insertion order.
func TestPropertyMSTWeightPermutationInvariant(t *testing.T) {
	f := func(seed int64, n, p uint8) bool {
		g := genGraph(seed, n, p)
		w1, err := MST(g)
		if err != nil {
			return false
		}
		// Rebuild with edges inserted in reverse order.
		h := New(g.N())
		for i := g.M() - 1; i >= 0; i-- {
			e := g.Edge(i)
			h.AddEdge(e.U, e.V, e.W)
		}
		w2, err := MST(h)
		if err != nil {
			return false
		}
		return math.Abs(g.WeightOf(w1)-h.WeightOf(w2)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestPropertyTreePathEndpoints: TreePath(u,v) is a valid walk between
// u and v whose length equals Depth(u)+Depth(v)−2·Depth(lca).
func TestPropertyTreePathEndpoints(t *testing.T) {
	f := func(seed int64, n, p uint8, a, b uint8) bool {
		g := genGraph(seed, n, p)
		ids, err := MST(g)
		if err != nil {
			return false
		}
		tr, err := NewRootedTree(g, 0, ids)
		if err != nil {
			return false
		}
		u, v := int(a)%g.N(), int(b)%g.N()
		path := tr.TreePath(u, v)
		x := tr.LCA(u, v)
		if len(path) != tr.Depth[u]+tr.Depth[v]-2*tr.Depth[x] {
			return false
		}
		// Walk the path from u; it must end at v.
		cur := u
		for _, id := range path {
			cur = g.Edge(id).Other(cur)
		}
		return cur == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestPropertySubtreeSumsLinear: SubtreeSums is linear in its input and
// the root's entry is the global sum.
func TestPropertySubtreeSumsLinear(t *testing.T) {
	f := func(seed int64, n, p uint8, valSeed int64) bool {
		g := genGraph(seed, n, p)
		ids, err := MST(g)
		if err != nil {
			return false
		}
		tr, err := NewRootedTree(g, 0, ids)
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(valSeed))
		x := make([]int64, g.N())
		y := make([]int64, g.N())
		z := make([]int64, g.N())
		var total int64
		for i := range x {
			x[i] = int64(rng.Intn(100))
			y[i] = int64(rng.Intn(100))
			z[i] = x[i] + y[i]
			total += z[i]
		}
		sx := tr.SubtreeSums(x)
		sy := tr.SubtreeSums(y)
		sz := tr.SubtreeSums(z)
		if sz[0] != total {
			return false
		}
		for v := range sz {
			if sz[v] != sx[v]+sy[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestPropertyDijkstraMatchesNaive: the CSR indexed-heap Dijkstra must
// agree with the retained container/heap oracle — equal distances and a
// consistent shortest-path tree — on random graphs.
func TestPropertyDijkstraMatchesNaive(t *testing.T) {
	f := func(seed int64, n, p uint8, s uint8) bool {
		g := genGraph(seed, n, p)
		src := int(s) % g.N()
		fast := Dijkstra(g, src, nil)
		naive := DijkstraNaive(g, src, nil)
		for v := 0; v < g.N(); v++ {
			if math.Abs(fast.Dist[v]-naive.Dist[v]) > 1e-9 {
				return false
			}
			if v == src {
				continue
			}
			// The parent pointers may pick a different (equally short)
			// tree; each must be internally consistent.
			pe, pn := fast.ParEdge[v], fast.ParNode[v]
			if pe < 0 || pn < 0 {
				return false
			}
			if math.Abs(fast.Dist[pn]+g.Weight(pe)-fast.Dist[v]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestPropertyMSTMatchesNaive: the frozen-order Kruskal must return the
// exact same edge set as the re-sorting oracle (both deterministic with
// (weight, ID) tie-breaks).
func TestPropertyMSTMatchesNaive(t *testing.T) {
	f := func(seed int64, n, p uint8) bool {
		g := genGraph(seed, n, p)
		fast, err1 := MST(g)
		naive, err2 := MSTNaive(g)
		if err1 != nil || err2 != nil {
			return false
		}
		if len(fast) != len(naive) {
			return false
		}
		for i := range fast {
			if fast[i] != naive[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestPropertyLCAMatchesNaive: the Euler-tour O(1) LCA must agree with
// binary lifting on every pair of nodes of random spanning trees.
func TestPropertyLCAMatchesNaive(t *testing.T) {
	f := func(seed int64, n, p uint8, r uint8) bool {
		g := genGraph(seed, n, p)
		ids, err := MST(g)
		if err != nil {
			return false
		}
		tr, err := NewRootedTree(g, int(r)%g.N(), ids)
		if err != nil {
			return false
		}
		naive := lcaNaive(tr)
		for u := 0; u < g.N(); u++ {
			for v := 0; v < g.N(); v++ {
				if tr.LCA(u, v) != naive(u, v) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestPropertyDijkstraWeightFunc: the fast path must honor a custom
// WeightFunc (the game layer's marginal-cost pricing) identically to the
// oracle.
func TestPropertyDijkstraWeightFunc(t *testing.T) {
	f := func(seed int64, n, p uint8, s uint8) bool {
		g := genGraph(seed, n, p)
		src := int(s) % g.N()
		wf := func(id int) float64 { return g.Weight(id) / float64(1+id%3) }
		fast := Dijkstra(g, src, wf)
		naive := DijkstraNaive(g, src, wf)
		for v := 0; v < g.N(); v++ {
			if math.Abs(fast.Dist[v]-naive.Dist[v]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestPropertyDijkstraTriangle: shortest distances satisfy the triangle
// inequality over every edge.
func TestPropertyDijkstraTriangle(t *testing.T) {
	f := func(seed int64, n, p uint8, s uint8) bool {
		g := genGraph(seed, n, p)
		src := int(s) % g.N()
		sp := Dijkstra(g, src, nil)
		for _, e := range g.Edges() {
			if sp.Dist[e.V] > sp.Dist[e.U]+e.W+1e-9 {
				return false
			}
			if sp.Dist[e.U] > sp.Dist[e.V]+e.W+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestPropertySpanningTreeCountMatrixTheorem: the contraction/deletion
// enumerator must agree with Kirchhoff's matrix-tree theorem (computed
// here via fraction-free Gaussian elimination on the reduced Laplacian).
func TestPropertySpanningTreeCountMatrixTheorem(t *testing.T) {
	f := func(seed int64, n, p uint8) bool {
		g := genGraph(seed, n%4, p) // keep counts small (≤ 5 nodes)
		count, err := CountSpanningTrees(g, 2_000_000)
		if err != nil {
			return false
		}
		return count == kirchhoff(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// kirchhoff returns the spanning-tree count via the matrix-tree theorem.
func kirchhoff(g *Graph) int {
	n := g.N()
	if n <= 1 {
		return 1
	}
	// Laplacian with multiplicities.
	lap := make([][]float64, n)
	for i := range lap {
		lap[i] = make([]float64, n)
	}
	for _, e := range g.Edges() {
		lap[e.U][e.U]++
		lap[e.V][e.V]++
		lap[e.U][e.V]--
		lap[e.V][e.U]--
	}
	// Determinant of the reduced Laplacian (drop row/col 0).
	m := n - 1
	a := make([][]float64, m)
	for i := range a {
		a[i] = append([]float64(nil), lap[i+1][1:]...)
	}
	det := 1.0
	for col := 0; col < m; col++ {
		// Partial pivot.
		piv := col
		for r := col + 1; r < m; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[piv][col]) {
				piv = r
			}
		}
		if math.Abs(a[piv][col]) < 1e-12 {
			return 0
		}
		if piv != col {
			a[piv], a[col] = a[col], a[piv]
			det = -det
		}
		det *= a[col][col]
		for r := col + 1; r < m; r++ {
			f := a[r][col] / a[col][col]
			for c := col; c < m; c++ {
				a[r][c] -= f * a[col][c]
			}
		}
	}
	return int(math.Round(det))
}
