package graph

import (
	"math"
	"math/rand"
	"testing"
)

func TestMSTSmallKnown(t *testing.T) {
	// Classic 4-node example.
	g := New(4)
	g.AddEdge(0, 1, 1) // in MST
	g.AddEdge(1, 2, 2) // in MST
	g.AddEdge(2, 3, 1) // in MST
	g.AddEdge(0, 3, 5)
	g.AddEdge(0, 2, 4)
	tree, err := MST(g)
	if err != nil {
		t.Fatal(err)
	}
	if w := g.WeightOf(tree); w != 4 {
		t.Errorf("MST weight = %v, want 4", w)
	}
}

func TestMSTDisconnected(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(2, 3, 1)
	if _, err := MST(g); err != ErrDisconnected {
		t.Errorf("MST on disconnected graph: err = %v", err)
	}
	if _, err := MSTNaive(g); err != ErrDisconnected {
		t.Errorf("MSTNaive on disconnected graph: err = %v", err)
	}
}

func TestMSTTrivial(t *testing.T) {
	g := New(1)
	for _, f := range []func(*Graph) ([]int, error){MST, MSTNaive} {
		tree, err := f(g)
		if err != nil || len(tree) != 0 {
			t.Errorf("single node MST: %v %v", tree, err)
		}
	}
}

// TestMSTAlgorithmsAgree cross-checks Kruskal on the frozen edge order
// against the re-sorting oracle on random graphs: both break ties by
// edge ID, so the edge sets must be identical.
func TestMSTAlgorithmsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(12)
		g := RandomConnected(rng, n, 0.4, 0.1, 10)
		k, err1 := MST(g)
		o, err2 := MSTNaive(g)
		if err1 != nil || err2 != nil {
			t.Fatalf("trial %d: errors %v %v", trial, err1, err2)
		}
		if !g.IsSpanningTree(k) || len(k) != len(o) {
			t.Fatalf("trial %d: MST %v, oracle %v", trial, k, o)
		}
		for i := range k {
			if k[i] != o[i] {
				t.Fatalf("trial %d: MST %v, oracle %v", trial, k, o)
			}
		}
	}
}

// TestMSTAgainstBruteForce verifies Kruskal against exhaustive spanning
// tree enumeration on small graphs.
func TestMSTAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(5)
		g := RandomConnected(rng, n, 0.5, 0.1, 5)
		tree, err := MST(g)
		if err != nil {
			t.Fatal(err)
		}
		best := math.Inf(1)
		if _, err := EnumerateSpanningTrees(g, 0, func(tr []int) bool {
			if w := g.WeightOf(tr); w < best {
				best = w
			}
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if math.Abs(g.WeightOf(tree)-best) > 1e-9 {
			t.Fatalf("trial %d: Kruskal %v vs brute force %v", trial, g.WeightOf(tree), best)
		}
	}
}

func TestIsMinimumSpanningTree(t *testing.T) {
	// Square with equal weights has multiple MSTs.
	g := Cycle(3, 1) // 4 nodes 0..3 in a cycle, all weight 1
	tree1 := []int{0, 1, 2}
	tree2 := []int{1, 2, 3}
	if !IsMinimumSpanningTree(g, tree1) || !IsMinimumSpanningTree(g, tree2) {
		t.Error("both cycle paths are MSTs")
	}
	if IsMinimumSpanningTree(g, []int{0, 1}) {
		t.Error("forest accepted as MST")
	}
	g2 := New(3)
	g2.AddEdge(0, 1, 1)
	g2.AddEdge(1, 2, 1)
	g2.AddEdge(0, 2, 5)
	if IsMinimumSpanningTree(g2, []int{0, 2}) {
		t.Error("suboptimal tree accepted as MST")
	}
}

// TestMSTCutProperty: for every tree edge of the MST, removing it splits
// the nodes in two sides, and the edge must be a minimum-weight crossing
// edge (the cut property).
func TestMSTCutProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 30; trial++ {
		n := 3 + rng.Intn(8)
		g := RandomConnected(rng, n, 0.5, 0.1, 9)
		tree, err := MST(g)
		if err != nil {
			t.Fatal(err)
		}
		for _, cut := range tree {
			// Mark one side of the cut.
			dsu := NewUnionFind(g.N())
			for _, id := range tree {
				if id == cut {
					continue
				}
				e := g.Edge(id)
				dsu.Union(e.U, e.V)
			}
			ce := g.Edge(cut)
			for _, e := range g.Edges() {
				if dsu.Same(e.U, ce.U) != dsu.Same(e.V, ce.U) { // e crosses the cut
					if e.W < ce.W-1e-12 {
						t.Fatalf("trial %d: cut property violated: tree edge w=%v but crossing edge w=%v", trial, ce.W, e.W)
					}
				}
			}
		}
	}
}
