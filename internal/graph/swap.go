package graph

import (
	"fmt"
	"sort"
)

// This file implements the incremental tree-swap engine. The hot loops of
// the paper's analyses — best-response dynamics, AnalyzeTrees, the H_{n/2}
// price-of-stability sweeps — evaluate thousands of candidate spanning
// trees that differ from the current one by a single edge exchange.
// Rebuilding a RootedTree per candidate costs O(n log n) and a dozen
// allocations; ApplySwap updates the tree in O(affected subtree) and
// allocates nothing in steady state.
//
// Model: removing tree edge (p, c) detaches the subtree D rooted at c;
// adding non-tree edge (u, v) with u ∈ D, v ∉ D re-roots D at u and hangs
// it under v. Parent, ParEdge, Depth, inTree and EdgeIDs are rewritten
// in place (with an undo log for Revert); Children, Order and the Euler
// tour are left describing the base tree, and LCA queries are answered
// for the swapped tree by overlaying the swap on the base structures:
//
//   - both endpoints outside D: the base answer is unchanged;
//   - both inside D: the classic re-rooting identity — the deepest of
//     lca(a,b), lca(a,u), lca(b,u) in the base tree;
//   - mixed: the path from D exits through (u,v), so the answer is
//     lca(v, outside endpoint) in the base tree.
//
// Commit makes the pending swap permanent by rebuilding Children, Order
// and the Euler structures from the live Parent array, reusing every
// buffer. Exactly one swap may be pending at a time; Commit (or Revert)
// re-arms the tree for the next one.

// SwapInfo describes a pending swap in base-tree terms.
type SwapInfo struct {
	RemoveID int // tree edge removed: connects C to P
	AddID    int // non-tree edge added: connects U to V
	C        int // root of the detached subtree in the base tree
	P        int // base parent of C
	U        int // AddID endpoint inside the detached subtree (its new root)
	V        int // AddID endpoint outside (U's new parent)
}

// swapOverlay is the pending-swap bookkeeping on a RootedTree.
type swapOverlay struct {
	active bool
	info   SwapInfo

	// Undo log: every node of the detached subtree in new-tree BFS order
	// (parents precede children), with its pre-swap parent, parent edge
	// and depth.
	nodes    []int32
	oldPar   []int32
	oldEdge  []int32
	oldDepth []int32
	queue    []int32 // BFS scratch
}

// Pending reports whether a swap is currently applied but not committed.
func (t *RootedTree) Pending() bool { return t.swp.active }

// PendingSwap returns the pending swap's description. It panics if no
// swap is pending.
func (t *RootedTree) PendingSwap() SwapInfo {
	if !t.swp.active {
		panic("graph: no pending swap")
	}
	return t.swp.info
}

// PendingNodes returns the nodes of the detached subtree in new-tree BFS
// order (parents precede children). The slice is owned by the tree and
// valid until the next ApplySwap/Revert/Commit. It panics if no swap is
// pending.
func (t *RootedTree) PendingNodes() []int32 {
	if !t.swp.active {
		panic("graph: no pending swap")
	}
	return t.swp.nodes
}

// InPendingSubtree reports whether w belongs to the detached subtree of
// the pending swap (false when none is pending). O(1): one base LCA.
func (t *RootedTree) InPendingSubtree(w int) bool {
	return t.swp.active && t.lcaBase(t.swp.info.C, w) == t.swp.info.C
}

// ApplySwap exchanges tree edge removeID for non-tree edge addID,
// updating Parent/ParEdge/Depth/inTree/EdgeIDs in O(affected subtree)
// with no allocations in steady state. It fails (leaving the tree
// untouched) if removeID is not a tree edge, addID is, or addID does not
// reconnect the two components cut by removeID. At most one swap may be
// pending; call Revert to undo it or Commit to make it permanent.
//
// While the swap is pending the public Children and Order slices still
// describe the base tree; use ForEachTopDown/SubtreeSums for traversals
// that must see the swapped tree.
func (t *RootedTree) ApplySwap(removeID, addID int) error {
	if t.swp.active {
		return fmt.Errorf("graph: swap (−%d,+%d) already pending", t.swp.info.RemoveID, t.swp.info.AddID)
	}
	m := t.G.M()
	if removeID < 0 || removeID >= m || addID < 0 || addID >= m {
		return fmt.Errorf("graph: swap edge out of range [0,%d)", m)
	}
	if removeID == addID || !t.inTree[removeID] || t.inTree[addID] {
		return fmt.Errorf("graph: swap (−%d,+%d) must remove a tree edge and add a non-tree edge", removeID, addID)
	}
	re := t.G.Edge(removeID)
	c := re.U
	if t.ParEdge[re.V] == removeID {
		c = re.V
	}
	ae := t.G.Edge(addID)
	uIn := t.lcaBase(c, ae.U) == c
	vIn := t.lcaBase(c, ae.V) == c
	if uIn == vIn {
		return fmt.Errorf("graph: swap (−%d,+%d) does not reconnect the tree", removeID, addID)
	}
	u, v := ae.U, ae.V
	if vIn {
		u, v = v, u
	}

	s := &t.swp
	s.active = true
	s.info = SwapInfo{RemoveID: removeID, AddID: addID, C: c, P: t.Parent[c], U: u, V: v}
	t.inTree[removeID] = false
	t.inTree[addID] = true

	// Re-hang the detached subtree by BFS from u. Every tree edge at a
	// subtree node either stays inside the subtree or is addID (the new
	// parent edge of u); removeID is already flagged off-tree, so the
	// frontier never escapes and no visited set is needed.
	s.nodes, s.oldPar, s.oldEdge, s.oldDepth = s.nodes[:0], s.oldPar[:0], s.oldEdge[:0], s.oldDepth[:0]
	record := func(w, par, edge int) {
		s.nodes = append(s.nodes, int32(w))
		s.oldPar = append(s.oldPar, int32(t.Parent[w]))
		s.oldEdge = append(s.oldEdge, int32(t.ParEdge[w]))
		s.oldDepth = append(s.oldDepth, int32(t.Depth[w]))
		t.Parent[w] = par
		t.ParEdge[w] = edge
		t.Depth[w] = t.Depth[par] + 1
	}
	record(u, v, addID)
	queue := append(s.queue[:0], int32(u))
	for qi := 0; qi < len(queue); qi++ {
		w := int(queue[qi])
		pe := t.ParEdge[w]
		for _, half := range t.G.Adj(w) {
			if t.inTree[half.Edge] && half.Edge != pe {
				record(half.To, w, half.Edge)
				queue = append(queue, int32(half.To))
			}
		}
	}
	s.queue = queue[:0]

	replaceSorted(t.EdgeIDs, removeID, addID)
	return nil
}

// Revert undoes the pending swap, restoring the base tree exactly. It is
// a no-op when no swap is pending.
func (t *RootedTree) Revert() {
	s := &t.swp
	if !s.active {
		return
	}
	for i, w := range s.nodes {
		t.Parent[w] = int(s.oldPar[i])
		t.ParEdge[w] = int(s.oldEdge[i])
		t.Depth[w] = int(s.oldDepth[i])
	}
	t.inTree[s.info.AddID] = false
	t.inTree[s.info.RemoveID] = true
	replaceSorted(t.EdgeIDs, s.info.AddID, s.info.RemoveID)
	s.active = false
}

// Commit makes the pending swap permanent: Children, Order and the Euler
// structures are rebuilt from the live Parent array, reusing their
// buffers (O(n log n), no allocations in steady state). It is a no-op
// when no swap is pending.
func (t *RootedTree) Commit() {
	if !t.swp.active {
		return
	}
	t.swp.active = false
	t.rebuildDerived()
}

// rebuildDerived recomputes Children, Order and the Euler tour from
// Parent/Depth. Children are ordered by node index (deterministic, though
// not necessarily the original BFS discovery order).
func (t *RootedTree) rebuildDerived() {
	n := t.G.N()
	for i := range t.Children {
		t.Children[i] = t.Children[i][:0]
	}
	for v := 0; v < n; v++ {
		if v != t.Root {
			t.Children[t.Parent[v]] = append(t.Children[t.Parent[v]], v)
		}
	}
	t.Order = t.Order[:0]
	t.Order = append(t.Order, t.Root)
	for i := 0; i < len(t.Order); i++ {
		t.Order = append(t.Order, t.Children[t.Order[i]]...)
	}
	t.buildEuler()
}

// lcaOverlay answers an LCA query for the swapped tree from the base
// Euler structures (see the file comment for the case analysis).
func (t *RootedTree) lcaOverlay(a, b int) int {
	c, u, v := t.swp.info.C, t.swp.info.U, t.swp.info.V
	aIn := t.lcaBase(c, a) == c
	bIn := t.lcaBase(c, b) == c
	switch {
	case aIn && bIn:
		best := t.lcaBase(a, b)
		if y := t.lcaBase(a, u); t.baseDepth(y) > t.baseDepth(best) {
			best = y
		}
		if z := t.lcaBase(b, u); t.baseDepth(z) > t.baseDepth(best) {
			best = z
		}
		return best
	case aIn:
		return t.lcaBase(v, b)
	case bIn:
		return t.lcaBase(a, v)
	default:
		return t.lcaBase(a, b)
	}
}

// replaceSorted substitutes old for new in the ascending slice ids,
// keeping it sorted. O(n) memmove, no allocations.
func replaceSorted(ids []int, old, new int) {
	i := sort.SearchInts(ids, old)
	copy(ids[i:], ids[i+1:])
	trimmed := ids[:len(ids)-1]
	j := sort.SearchInts(trimmed, new)
	copy(ids[j+1:], ids[j:len(ids)-1])
	ids[j] = new
}
