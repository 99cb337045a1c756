package graph

import (
	"fmt"
	"math/bits"
)

// RootedTree is a spanning tree of a graph rooted at a designated node,
// with precomputed parents, depths, children, a bottom-up ordering and an
// Euler-tour sparse table for O(1) lowest-common-ancestor queries.
//
// In broadcast games a state *is* a rooted spanning tree: player u's
// strategy is the tree path from u to the root, so almost every quantity
// in the paper (usage counts n_a, costs, LP rows) is a query on this type.
type RootedTree struct {
	G        *Graph
	Root     int
	Parent   []int   // Parent[v] = parent node, -1 at root
	ParEdge  []int   // ParEdge[v] = edge ID to parent, -1 at root
	Depth    []int   // Depth[v] = #edges to root
	Children [][]int // Children[v] = child nodes
	Order    []int   // BFS order from the root (parents precede children)
	EdgeIDs  []int   // the n-1 tree edge IDs, ascending
	inTree   []bool  // indexed by edge ID

	// Euler-tour RMQ structure for O(1) LCA: eulerNode/eulerDepth record
	// the DFS tour (length 2n−1), eulerFirst[v] the first occurrence of
	// v, and sparse[k][i] the tour index of the minimum depth in
	// [i, i+2^k).
	eulerFirst []int32
	eulerNode  []int32
	eulerDepth []int32
	sparse     [][]int32

	// swp holds the state of a pending single-edge swap (see swap.go).
	// While a swap is pending, Parent/ParEdge/Depth/inTree/EdgeIDs
	// describe the swapped tree, whereas Children, Order and the Euler
	// structures still describe the base tree; LCA answers queries for
	// the swapped tree by overlaying the swap on the base structures.
	swp swapOverlay

	eulerStack []eulerFrame // DFS scratch reused across rebuilds
}

// eulerFrame is a DFS stack record for buildEuler.
type eulerFrame struct {
	node int
	next int // index of the next child to descend into
}

// NewRootedTree builds a rooted tree from a spanning edge set. It returns
// an error if the edges do not form a spanning tree of g.
func NewRootedTree(g *Graph, root int, treeEdges []int) (*RootedTree, error) {
	n := g.N()
	if root < 0 || root >= n {
		return nil, fmt.Errorf("graph: root %d out of range", root)
	}
	if len(treeEdges) != n-1 {
		return nil, fmt.Errorf("graph: %d edges cannot span %d nodes", len(treeEdges), n)
	}
	inTree := make([]bool, g.M())
	for _, id := range treeEdges {
		if inTree[id] {
			return nil, fmt.Errorf("graph: duplicate tree edge %d", id)
		}
		inTree[id] = true
	}
	t := &RootedTree{
		G:        g,
		Root:     root,
		Parent:   make([]int, n),
		ParEdge:  make([]int, n),
		Depth:    make([]int, n),
		Children: make([][]int, n),
		inTree:   inTree,
	}
	for i := range t.Parent {
		t.Parent[i] = -1
		t.ParEdge[i] = -1
	}
	seen := make([]bool, n)
	seen[root] = true
	t.Order = append(t.Order, root)
	for i := 0; i < len(t.Order); i++ {
		u := t.Order[i]
		for _, half := range g.Adj(u) {
			if inTree[half.Edge] && !seen[half.To] {
				seen[half.To] = true
				t.Parent[half.To] = u
				t.ParEdge[half.To] = half.Edge
				t.Depth[half.To] = t.Depth[u] + 1
				t.Children[u] = append(t.Children[u], half.To)
				t.Order = append(t.Order, half.To)
			}
		}
	}
	if len(t.Order) != n {
		return nil, ErrDisconnected
	}
	t.EdgeIDs = make([]int, 0, n-1)
	for id, in := range inTree {
		if in {
			t.EdgeIDs = append(t.EdgeIDs, id)
		}
	}
	t.buildEuler()
	return t, nil
}

// buildEuler records the DFS Euler tour and its sparse min-depth table.
// All buffers are reused across rebuilds (Commit re-bases the tour after
// a swap), so steady-state rebuilds allocate nothing.
func (t *RootedTree) buildEuler() {
	n := t.G.N()
	tourLen := 2*n - 1
	if cap(t.eulerFirst) < n {
		t.eulerFirst = make([]int32, n)
		t.eulerNode = make([]int32, 0, tourLen)
		t.eulerDepth = make([]int32, 0, tourLen)
		t.eulerStack = make([]eulerFrame, 0, n)
	}
	t.eulerFirst = t.eulerFirst[:n]
	t.eulerNode = t.eulerNode[:0]
	t.eulerDepth = t.eulerDepth[:0]
	stack := append(t.eulerStack[:0], eulerFrame{node: t.Root})
	t.eulerFirst[t.Root] = 0
	t.eulerNode = append(t.eulerNode, int32(t.Root))
	t.eulerDepth = append(t.eulerDepth, 0)
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.next < len(t.Children[f.node]) {
			c := t.Children[f.node][f.next]
			f.next++
			t.eulerFirst[c] = int32(len(t.eulerNode))
			t.eulerNode = append(t.eulerNode, int32(c))
			t.eulerDepth = append(t.eulerDepth, int32(t.Depth[c]))
			stack = append(stack, eulerFrame{node: c})
		} else {
			stack = stack[:len(stack)-1]
			if len(stack) > 0 {
				p := stack[len(stack)-1].node
				t.eulerNode = append(t.eulerNode, int32(p))
				t.eulerDepth = append(t.eulerDepth, int32(t.Depth[p]))
			}
		}
	}
	t.eulerStack = stack[:0]
	L := len(t.eulerNode)
	levels := bits.Len(uint(L))
	for len(t.sparse) < levels {
		t.sparse = append(t.sparse, nil)
	}
	t.sparse = t.sparse[:levels]
	row0 := growRow(t.sparse[0], L)
	for i := range row0 {
		row0[i] = int32(i)
	}
	t.sparse[0] = row0
	for k := 1; 1<<k <= L; k++ {
		half := 1 << (k - 1)
		prev := t.sparse[k-1]
		row := growRow(t.sparse[k], L-1<<k+1)
		for i := range row {
			a, b := prev[i], prev[i+half]
			if t.eulerDepth[b] < t.eulerDepth[a] {
				a = b
			}
			row[i] = a
		}
		t.sparse[k] = row
	}
}

// growRow returns row resliced to length l, reallocating only when the
// capacity is insufficient.
func growRow(row []int32, l int) []int32 {
	if cap(row) < l {
		return make([]int32, l)
	}
	return row[:l]
}

// Contains reports whether edge id belongs to the tree.
func (t *RootedTree) Contains(id int) bool { return t.inTree[id] }

// LCA returns the lowest common ancestor of u and v in O(1) via the
// Euler-tour sparse table. It performs no allocations, which keeps the
// Lemma-2 violation scan allocation-free. With a pending swap it answers
// for the swapped tree by overlaying the swap on the base structures
// (a constant number of base queries, still O(1) and allocation-free).
func (t *RootedTree) LCA(u, v int) int {
	if !t.swp.active {
		return t.lcaBase(u, v)
	}
	return t.lcaOverlay(u, v)
}

// lcaBase answers the query on the base tree (the tree as of the last
// Commit or construction), ignoring any pending swap.
func (t *RootedTree) lcaBase(u, v int) int {
	l, r := t.eulerFirst[u], t.eulerFirst[v]
	if l > r {
		l, r = r, l
	}
	k := bits.Len(uint(r-l+1)) - 1
	a := t.sparse[k][l]
	b := t.sparse[k][int(r)-1<<k+1]
	if t.eulerDepth[b] < t.eulerDepth[a] {
		a = b
	}
	return int(t.eulerNode[a])
}

// baseDepth returns a node's depth in the base tree (Depth itself is
// rewritten for detached-subtree nodes while a swap is pending).
func (t *RootedTree) baseDepth(w int) int32 { return t.eulerDepth[t.eulerFirst[w]] }

// PathToRoot returns the edge IDs on the tree path from u up to the root,
// ordered from u upward. This is player u's strategy T_u in a broadcast
// game.
func (t *RootedTree) PathToRoot(u int) []int {
	var path []int
	for u != t.Root {
		path = append(path, t.ParEdge[u])
		u = t.Parent[u]
	}
	return path
}

// PathUpTo returns the edge IDs on the path from u up to ancestor anc
// (exclusive of anc), ordered from u upward. anc must be an ancestor of u.
func (t *RootedTree) PathUpTo(u, anc int) []int {
	var path []int
	for u != anc {
		if u == t.Root {
			panic("graph: PathUpTo target is not an ancestor")
		}
		path = append(path, t.ParEdge[u])
		u = t.Parent[u]
	}
	return path
}

// TreePath returns the edge IDs of the unique tree path between u and v
// (through their LCA), ordered u→LCA then LCA→v.
func (t *RootedTree) TreePath(u, v int) []int {
	x := t.LCA(u, v)
	up := t.PathUpTo(u, x)
	down := t.PathUpTo(v, x)
	for i, j := 0, len(down)-1; i < j; i, j = i+1, j-1 {
		down[i], down[j] = down[j], down[i]
	}
	return append(up, down...)
}

// SubtreeSizes returns, for every node v, the number of nodes in the
// subtree rooted at v (including v).
func (t *RootedTree) SubtreeSizes() []int {
	sizes := make([]int, t.G.N())
	for i := range sizes {
		sizes[i] = 1
	}
	t.forEachBottomUp(func(v int) { sizes[t.Parent[v]] += sizes[v] })
	return sizes
}

// SubtreeSums aggregates an arbitrary per-node value bottom-up: the result
// at v is the sum of vals over the subtree rooted at v. Usage counts n_a
// of a broadcast state are SubtreeSums over player multiplicities.
func (t *RootedTree) SubtreeSums(vals []int64) []int64 {
	return t.SubtreeSumsInto(vals, nil)
}

// SubtreeSumsInto is SubtreeSums writing into dst (grown as needed), so
// repeated aggregations — the Theorem-6 per-level packing — reuse one
// buffer and allocate nothing in steady state.
func (t *RootedTree) SubtreeSumsInto(vals []int64, dst []int64) []int64 {
	n := t.G.N()
	if cap(dst) < n {
		dst = make([]int64, n)
	}
	dst = dst[:n]
	copy(dst, vals)
	t.forEachBottomUp(func(v int) { dst[t.Parent[v]] += dst[v] })
	return dst
}

// Leaves returns the nodes with no children.
func (t *RootedTree) Leaves() []int {
	hasChild := make([]bool, t.G.N())
	for v := 0; v < t.G.N(); v++ {
		if v != t.Root {
			hasChild[t.Parent[v]] = true
		}
	}
	var leaves []int
	for v := 0; v < t.G.N(); v++ {
		if !hasChild[v] && v != t.Root {
			leaves = append(leaves, v)
		}
	}
	// A root with no children (n == 1) has no leaves below it.
	return leaves
}

// ForEachTopDown invokes fn for every non-root node in an order where
// parents precede children. Unlike iterating the public Order slice, it
// stays correct while a swap is pending: base-tree nodes keep their BFS
// order and the detached subtree is visited last, in its re-rooted BFS
// order.
func (t *RootedTree) ForEachTopDown(fn func(v int)) {
	if !t.swp.active {
		for _, v := range t.Order {
			if v != t.Root {
				fn(v)
			}
		}
		return
	}
	for _, v := range t.Order {
		if v == t.Root || t.InPendingSubtree(v) {
			continue
		}
		fn(v)
	}
	for _, w := range t.swp.nodes {
		fn(int(w))
	}
}

// forEachBottomUp is the children-before-parents mirror of ForEachTopDown.
func (t *RootedTree) forEachBottomUp(fn func(v int)) {
	if !t.swp.active {
		for i := len(t.Order) - 1; i >= 0; i-- {
			if v := t.Order[i]; v != t.Root {
				fn(v)
			}
		}
		return
	}
	for i := len(t.swp.nodes) - 1; i >= 0; i-- {
		fn(int(t.swp.nodes[i]))
	}
	for i := len(t.Order) - 1; i >= 0; i-- {
		v := t.Order[i]
		if v == t.Root || t.InPendingSubtree(v) {
			continue
		}
		fn(v)
	}
}

// Weight returns the total weight of the tree's edges.
func (t *RootedTree) Weight() float64 { return t.G.WeightOf(t.EdgeIDs) }
