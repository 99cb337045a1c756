package graph

import "errors"

// ErrDisconnected is returned by spanning-tree constructions on graphs
// that do not connect all nodes.
var ErrDisconnected = errors.New("graph: graph is not connected")

// MST returns the edge IDs of a minimum spanning tree using Kruskal's
// algorithm (deterministic: ties broken by edge ID). Broadcast games use
// the MST as the socially optimal state, as observed in the paper.
//
// The (weight, ID)-ascending edge order is cached on the graph's frozen
// CSR view, so repeated MST calls on an unchanged graph — the common
// shape in sweeps — skip the O(m log m) sort and reduce to two near-linear
// union-find passes.
func MST(g *Graph) ([]int, error) {
	c := g.Freeze()
	dsu := NewUnionFind(c.n)
	want := c.n - 1
	if want < 0 {
		want = 0
	}
	tree := make([]int, 0, want)
	for _, id := range c.sorted {
		if dsu.Union(int(c.us[id]), int(c.vs[id])) {
			tree = append(tree, int(id))
			if len(tree) == want {
				return tree, nil
			}
		}
	}
	if c.n <= 1 {
		return tree, nil
	}
	return nil, ErrDisconnected
}

// IsMinimumSpanningTree reports whether the given spanning tree has the
// same total weight as an MST of g (there may be many MSTs; the paper's
// hardness construction for SND exploits exactly this).
func IsMinimumSpanningTree(g *Graph, treeIDs []int) bool {
	if !g.IsSpanningTree(treeIDs) {
		return false
	}
	opt, err := MST(g)
	if err != nil {
		return false
	}
	const tol = 1e-9
	diff := g.WeightOf(treeIDs) - g.WeightOf(opt)
	return diff <= tol*(1+g.WeightOf(opt))
}
