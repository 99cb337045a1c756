package graph

import (
	"math/rand"
	"testing"
)

// randomSpanningTree returns a uniformly-ish random spanning tree of g:
// Kruskal over a shuffled edge order.
func randomSpanningTree(t *testing.T, g *Graph, rng *rand.Rand) []int {
	t.Helper()
	ids := rng.Perm(g.M())
	dsu := NewUnionFind(g.N())
	var tree []int
	for _, id := range ids {
		e := g.Edge(id)
		if dsu.Union(e.U, e.V) {
			tree = append(tree, id)
		}
	}
	if len(tree) != g.N()-1 {
		t.Fatal("random spanning tree construction failed")
	}
	return tree
}

// randomSwap picks a random valid (removeID, addID) pair for tr: a random
// non-tree edge plus a random tree edge on the cycle it closes.
func randomSwap(t *testing.T, tr *RootedTree, rng *rand.Rand) (removeID, addID int, ok bool) {
	t.Helper()
	g := tr.G
	var nonTree []int
	for id := 0; id < g.M(); id++ {
		if !tr.Contains(id) {
			nonTree = append(nonTree, id)
		}
	}
	if len(nonTree) == 0 {
		return 0, 0, false
	}
	addID = nonTree[rng.Intn(len(nonTree))]
	e := g.Edge(addID)
	cycle := tr.TreePath(e.U, e.V)
	if len(cycle) == 0 {
		// Parallel edge to a tree edge of zero-length path cannot happen;
		// parallel edges still yield the one tree edge between endpoints.
		return 0, 0, false
	}
	return cycle[rng.Intn(len(cycle))], addID, true
}

// snapshotTree captures the mutable fields ApplySwap touches.
type treeSnapshot struct {
	parent, parEdge, depth, edgeIDs []int
}

func snapshot(tr *RootedTree) treeSnapshot {
	return treeSnapshot{
		parent:  append([]int(nil), tr.Parent...),
		parEdge: append([]int(nil), tr.ParEdge...),
		depth:   append([]int(nil), tr.Depth...),
		edgeIDs: append([]int(nil), tr.EdgeIDs...),
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// assertMatchesFresh checks every query of tr against a freshly-built
// tree over tr's current edge set.
func assertMatchesFresh(t *testing.T, tr *RootedTree, ctx string) {
	t.Helper()
	g := tr.G
	fresh, err := NewRootedTree(g, tr.Root, tr.EdgeIDs)
	if err != nil {
		t.Fatalf("%s: fresh rebuild failed: %v", ctx, err)
	}
	n := g.N()
	if !equalInts(tr.Parent, fresh.Parent) {
		t.Fatalf("%s: Parent mismatch\n got %v\nwant %v", ctx, tr.Parent, fresh.Parent)
	}
	if !equalInts(tr.ParEdge, fresh.ParEdge) {
		t.Fatalf("%s: ParEdge mismatch", ctx)
	}
	if !equalInts(tr.Depth, fresh.Depth) {
		t.Fatalf("%s: Depth mismatch\n got %v\nwant %v", ctx, tr.Depth, fresh.Depth)
	}
	if !equalInts(tr.EdgeIDs, fresh.EdgeIDs) {
		t.Fatalf("%s: EdgeIDs mismatch\n got %v\nwant %v", ctx, tr.EdgeIDs, fresh.EdgeIDs)
	}
	for id := 0; id < g.M(); id++ {
		if tr.Contains(id) != fresh.Contains(id) {
			t.Fatalf("%s: Contains(%d) mismatch", ctx, id)
		}
	}
	naive := lcaNaive(tr)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if got, want := tr.LCA(u, v), fresh.LCA(u, v); got != want {
				t.Fatalf("%s: LCA(%d,%d) = %d, want %d", ctx, u, v, got, want)
			}
			if got, want := naive(u, v), fresh.LCA(u, v); got != want {
				t.Fatalf("%s: naive LCA(%d,%d) = %d, want %d", ctx, u, v, got, want)
			}
		}
	}
	// Subtree aggregation must agree with the fresh tree.
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i%5 + 1)
	}
	got, want := tr.SubtreeSums(vals), fresh.SubtreeSums(vals)
	for v := 0; v < n; v++ {
		if got[v] != want[v] {
			t.Fatalf("%s: SubtreeSums[%d] = %d, want %d", ctx, v, got[v], want[v])
		}
	}
	// ForEachTopDown must put parents before children and cover all nodes.
	seen := make([]bool, n)
	seen[tr.Root] = true
	count := 1
	tr.ForEachTopDown(func(v int) {
		if !seen[tr.Parent[v]] {
			t.Fatalf("%s: ForEachTopDown visited %d before its parent %d", ctx, v, tr.Parent[v])
		}
		if seen[v] {
			t.Fatalf("%s: ForEachTopDown visited %d twice", ctx, v)
		}
		seen[v] = true
		count++
	})
	if count != n {
		t.Fatalf("%s: ForEachTopDown covered %d of %d nodes", ctx, count, n)
	}
}

func assertMatchesSnapshot(t *testing.T, tr *RootedTree, snap treeSnapshot, ctx string) {
	t.Helper()
	if !equalInts(tr.Parent, snap.parent) || !equalInts(tr.ParEdge, snap.parEdge) ||
		!equalInts(tr.Depth, snap.depth) || !equalInts(tr.EdgeIDs, snap.edgeIDs) {
		t.Fatalf("%s: revert did not restore the base tree", ctx)
	}
}

// TestSwapDifferential drives ApplySwap/Revert/Commit on 120 random
// instances, asserting every query matches a from-scratch rebuild at
// every stage.
func TestSwapDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 120; trial++ {
		n := 4 + rng.Intn(12)
		g := RandomConnected(rng, n, 0.25+rng.Float64()*0.5, 0.5, 3)
		tree := randomSpanningTree(t, g, rng)
		tr, err := NewRootedTree(g, rng.Intn(n), tree)
		if err != nil {
			t.Fatal(err)
		}
		// A few committed swaps in sequence exercise buffer reuse.
		for step := 0; step < 3; step++ {
			removeID, addID, ok := randomSwap(t, tr, rng)
			if !ok {
				break
			}
			snap := snapshot(tr)
			if err := tr.ApplySwap(removeID, addID); err != nil {
				t.Fatalf("trial %d step %d: ApplySwap(−%d,+%d): %v", trial, step, removeID, addID, err)
			}
			assertMatchesFresh(t, tr, "pending")
			tr.Revert()
			assertMatchesSnapshot(t, tr, snap, "revert")
			assertMatchesFresh(t, tr, "reverted")
			if err := tr.ApplySwap(removeID, addID); err != nil {
				t.Fatalf("trial %d step %d: re-ApplySwap: %v", trial, step, err)
			}
			tr.Commit()
			assertMatchesFresh(t, tr, "committed")
		}
	}
}

// TestSwapRejectsInvalid verifies the validation paths leave the tree
// untouched.
func TestSwapRejectsInvalid(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := RandomConnected(rng, 8, 0.6, 0.5, 2)
	tree, err := MST(g)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewRootedTree(g, 0, tree)
	if err != nil {
		t.Fatal(err)
	}
	snap := snapshot(tr)
	var nonTree []int
	for id := 0; id < g.M(); id++ {
		if !tr.Contains(id) {
			nonTree = append(nonTree, id)
		}
	}
	if len(nonTree) == 0 {
		t.Skip("instance has no non-tree edge")
	}
	f := nonTree[0]
	if err := tr.ApplySwap(nonTree[0], f); err == nil {
		t.Fatal("removing a non-tree edge must fail")
	}
	if err := tr.ApplySwap(tree[0], tree[1]); err == nil {
		t.Fatal("adding a tree edge must fail")
	}
	if err := tr.ApplySwap(-1, f); err == nil {
		t.Fatal("out-of-range edge must fail")
	}
	// A tree edge off the cycle closed by f cannot be replaced by f.
	e := g.Edge(f)
	onCycle := make(map[int]bool)
	for _, id := range tr.TreePath(e.U, e.V) {
		onCycle[id] = true
	}
	for _, id := range tree {
		if !onCycle[id] {
			if err := tr.ApplySwap(id, f); err == nil {
				t.Fatalf("swap (−%d,+%d) must fail: %d is not on the cycle of %d", id, f, id, f)
			}
			break
		}
	}
	assertMatchesSnapshot(t, tr, snap, "after rejected swaps")
	// Double-apply must fail until Revert.
	removeID, addID, ok := randomSwap(t, tr, rng)
	if !ok {
		t.Skip("no valid swap")
	}
	if err := tr.ApplySwap(removeID, addID); err != nil {
		t.Fatal(err)
	}
	if err := tr.ApplySwap(removeID, addID); err == nil {
		t.Fatal("second ApplySwap with one pending must fail")
	}
	tr.Revert()
	assertMatchesSnapshot(t, tr, snap, "after revert")
}

// TestSwapApplyRevertAllocFree asserts the steady-state apply/revert
// cycle performs zero allocations.
func TestSwapApplyRevertAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := RandomConnected(rng, 200, 0.05, 0.5, 3)
	tree, err := MST(g)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewRootedTree(g, 0, tree)
	if err != nil {
		t.Fatal(err)
	}
	removeID, addID, ok := randomSwap(t, tr, rng)
	if !ok {
		t.Skip("no valid swap")
	}
	// Warm the undo buffers.
	if err := tr.ApplySwap(removeID, addID); err != nil {
		t.Fatal(err)
	}
	tr.Revert()
	allocs := testing.AllocsPerRun(100, func() {
		if err := tr.ApplySwap(removeID, addID); err != nil {
			t.Fatal(err)
		}
		tr.Revert()
	})
	if allocs != 0 {
		t.Fatalf("ApplySwap+Revert allocated %.1f times per run, want 0", allocs)
	}
}
