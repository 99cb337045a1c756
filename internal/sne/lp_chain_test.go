package sne

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"netdesign/internal/broadcast"
	"netdesign/internal/graph"
	"netdesign/internal/lp"
)

// chainJitterFamily is the E22 nearby-instance family: one base graph
// whose members rescale every non-tree weight by 1 + 0.25·U[0,1), all
// solved on the base MST. Odd members also rescale the tree weights by
// up to 5%, so the patch path rewrites the upper bounds too.
func chainJitterFamily(t testing.TB, n, count int) []*broadcast.State {
	t.Helper()
	base := graph.RandomConnected(rand.New(rand.NewSource(9)), n, 0.12, 0.5, 3)
	mst, err := graph.MST(base)
	if err != nil {
		t.Fatal(err)
	}
	onTree := make([]bool, base.M())
	for _, id := range mst {
		onTree[id] = true
	}
	sts := make([]*broadcast.State, 0, count)
	for i := 0; i < count; i++ {
		g := base.Clone()
		rng := rand.New(rand.NewSource(int64(i + 1)))
		for id := 0; id < g.M(); id++ {
			switch {
			case !onTree[id]:
				g.SetWeight(id, g.Weight(id)*(1+0.25*rng.Float64()))
			case i%2 == 1:
				g.SetWeight(id, g.Weight(id)*(1+0.05*rng.Float64()))
			}
		}
		sts = append(sts, mustState(t, g, 0, nil, mst))
	}
	return sts
}

// mustState builds a broadcast state; mult nil means one player per
// non-root node.
func mustState(t testing.TB, g *graph.Graph, root int, mult []int64, tree []int) *broadcast.State {
	t.Helper()
	var bg *broadcast.Game
	var err error
	if mult == nil {
		bg, err = broadcast.NewGame(g, root)
	} else {
		bg, err = broadcast.NewGameMult(g, root, mult)
	}
	if err != nil {
		t.Fatal(err)
	}
	st, err := broadcast.NewState(bg, tree)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// bitsEqual compares float slices bit for bit.
func bitsEqual(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// solutionDiff names the first field in which two LP solutions differ
// bit for bit ("" when identical).
func solutionDiff(a, b *lp.Solution) string {
	switch {
	case a.Status != b.Status || a.Pivots != b.Pivots:
		return fmt.Sprintf("status/pivots %v/%d vs %v/%d", a.Status, a.Pivots, b.Status, b.Pivots)
	case !bitsEqual(a.X, b.X):
		return "x differs"
	case !bitsEqual([]float64{a.Objective, a.DualityGap}, []float64{b.Objective, b.DualityGap}):
		return fmt.Sprintf("objective/gap %v/%v vs %v/%v", a.Objective, a.DualityGap, b.Objective, b.DualityGap)
	case !bitsEqual(a.Duals, b.Duals):
		return "duals differ"
	case !reflect.DeepEqual(a.Basis, b.Basis):
		return "basis differs"
	}
	return ""
}

// resultDiff is solutionDiff for the chain's verified Results.
func resultDiff(a, b *Result) string {
	switch {
	case math.Float64bits(a.Cost) != math.Float64bits(b.Cost):
		return fmt.Sprintf("cost %v vs %v", a.Cost, b.Cost)
	case !bitsEqual(a.Subsidy, b.Subsidy):
		return "subsidies differ"
	case a.Pivots != b.Pivots:
		return fmt.Sprintf("pivots %d vs %d", a.Pivots, b.Pivots)
	case !reflect.DeepEqual(a.Basis, b.Basis):
		return "basis differs"
	}
	return ""
}

// checkAgainstFresh prepares st on chain c and on a fresh chain (which
// always builds), then requires both models to solve bit-identically
// from warm, and both chains to return bit-identical Results.
func checkAgainstFresh(t *testing.T, tag string, c *BroadcastLPChain, st *broadcast.State, warm *lp.Basis) *Result {
	t.Helper()
	fpC := c.Prepare(st)
	ref := NewBroadcastLPChain()
	if fpR := ref.Prepare(st); fpC != fpR {
		t.Fatalf("%s: fingerprint %x, fresh build %x", tag, fpC, fpR)
	}
	solC, err := c.bl.model.ResolveFrom(warm)
	if err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
	solR, err := ref.bl.model.ResolveFrom(warm)
	if err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
	if d := solutionDiff(solC, solR); d != "" {
		t.Fatalf("%s: LP solution differs from a fresh build's: %s", tag, d)
	}
	got, _, err := c.SolvePrepared(st, warm)
	if err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
	want, _, err := ref.SolvePrepared(st, warm)
	if err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
	if d := resultDiff(got, want); d != "" {
		t.Fatalf("%s: result differs from a fresh build's: %s", tag, d)
	}
	return got
}

// TestChainPatchMatchesRebuild walks a jitter family through one chain,
// warm-starting each member from the previous optimum. Every member
// after the first must take the patch path, and the patched model must
// solve exactly as a freshly built one: cost, subsidies, pivots, duals,
// duality gap and basis, bit for bit.
func TestChainPatchMatchesRebuild(t *testing.T) {
	sts := chainJitterFamily(t, 48, 24)
	c := NewBroadcastLPChain()
	var warm *lp.Basis
	for i, st := range sts {
		if patch := c.bl != nil && c.shape.matches(st, c.bl.edgeOf, 1); patch != (i > 0) {
			t.Fatalf("member %d: patch path %v, want %v", i, patch, i > 0)
		}
		warm = checkAgainstFresh(t, fmt.Sprintf("member %d", i), c, st, warm).Basis
	}
}

// TestChainRebuildsOnStructureChange primes a chain with a base state,
// then prepares a variant that differs in one structural respect. Each
// must take the rebuild path and then solve exactly as a fresh chain;
// the weights-only variant is the control that takes the patch path.
func TestChainRebuildsOnStructureChange(t *testing.T) {
	const n = 14
	g := graph.RandomConnected(rand.New(rand.NewSource(23)), n, 0.35, 0.5, 3)
	mst, err := graph.MST(g)
	if err != nil {
		t.Fatal(err)
	}
	base := mustState(t, g, 0, nil, mst)
	var off graph.Edge // a non-tree edge
	for _, e := range g.Edges() {
		if !base.Tree.Contains(e.ID) {
			off = e
			break
		}
	}
	// rebuildGraph copies g edge by edge, letting edit rewrite one edge.
	rebuildGraph := func(edit func(e *graph.Edge)) *graph.Graph {
		h := graph.New(n)
		for _, e := range g.Edges() {
			edit(&e)
			h.AddEdge(e.U, e.V, e.W)
		}
		return h
	}
	// Re-rooting a 4-node tree with matching multiplicities keeps every
	// n_a, the tree and the endpoints: only the parent edges tell the two
	// states apart.
	small := graph.New(4)
	for _, e := range [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}, {1, 2}, {0, 3}} {
		small.AddEdge(e[0], e[1], 1+0.1*float64(small.M()))
	}
	smallTree := []int{0, 1, 2}
	cases := []struct {
		name  string
		base  *broadcast.State // nil: the random base above
		st    func() *broadcast.State
		patch bool
	}{
		{"weights only", nil, func() *broadcast.State {
			return mustState(t, rebuildGraph(func(e *graph.Edge) { e.W *= 1.1 }), 0, nil, mst)
		}, true},
		{"root", nil, func() *broadcast.State { return mustState(t, g, 3, nil, mst) }, false},
		{"root, same n_a", mustState(t, small, 0, []int64{0, 1, 1, 1}, smallTree), func() *broadcast.State {
			return mustState(t, small, 1, []int64{1, 0, 1, 1}, smallTree)
		}, false},
		{"tree", nil, func() *broadcast.State {
			// Swap off into the tree in place of a tree edge on its cycle.
			w := off.U
			if base.Tree.LCA(off.U, off.V) == w {
				w = off.V
			}
			drop := base.Tree.ParEdge[w]
			tree := []int{off.ID}
			for _, id := range mst {
				if id != drop {
					tree = append(tree, id)
				}
			}
			return mustState(t, g, 0, nil, tree)
		}, false},
		{"tree-edge order", nil, func() *broadcast.State {
			st := mustState(t, g, 0, nil, mst)
			slices.Reverse(st.Tree.EdgeIDs)
			return st
		}, false},
		{"multiplicity", nil, func() *broadcast.State {
			mult := make([]int64, n)
			for v := 1; v < n; v++ {
				mult[v] = 1
			}
			mult[n-1] = 3
			return mustState(t, g, 0, mult, mst)
		}, false},
		{"non-tree endpoints", nil, func() *broadcast.State {
			return mustState(t, rebuildGraph(func(e *graph.Edge) {
				if e.ID == off.ID {
					for e.V = (e.V + 1) % n; e.V == e.U || e.V == off.V; e.V = (e.V + 1) % n {
					}
				}
			}), 0, nil, mst)
		}, false},
		{"edge count", nil, func() *broadcast.State {
			h := g.Clone()
			h.AddEdge(off.U, off.V, off.W+1)
			return mustState(t, h, 0, nil, mst)
		}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.base
			if b == nil {
				b = base
			}
			c := NewBroadcastLPChain()
			c.Prepare(b)
			res, _, err := c.SolvePrepared(b, nil)
			if err != nil {
				t.Fatal(err)
			}
			st := tc.st()
			if patch := c.shape.matches(st, c.bl.edgeOf, 1); patch != tc.patch {
				t.Fatalf("patch path %v, want %v", patch, tc.patch)
			}
			checkAgainstFresh(t, tc.name, c, st, res.Basis)
		})
	}
}

// TestChainSolveNearby walks a jitter family through SolveNearby: the
// first member solves cold, every later one warm from the previous
// member's basis, bit-identical to a second chain driven by hand through
// Prepare and SolvePrepared from its own basis. A state
// with the same shape fingerprint but another variable order (reversed
// tree edges) must then solve cold, bit-identical to SolveBroadcastLP.
func TestChainSolveNearby(t *testing.T) {
	sts := chainJitterFamily(t, 32, 6)
	c, ref := NewBroadcastLPChain(), NewBroadcastLPChain()
	for i, st := range sts {
		got, warm, err := c.SolveNearby(st)
		if err != nil {
			t.Fatal(err)
		}
		if warm != (i > 0) {
			t.Fatalf("member %d: warm %v, want %v", i, warm, i > 0)
		}
		ref.Prepare(st)
		want, _, err := ref.SolvePrepared(st, ref.Basis())
		if err != nil {
			t.Fatal(err)
		}
		if d := resultDiff(got, want); d != "" {
			t.Fatalf("member %d: %s", i, d)
		}
	}
	last := sts[len(sts)-1]
	other := mustState(t, last.BG.G, 0, nil, slices.Clone(last.Tree.EdgeIDs))
	slices.Reverse(other.Tree.EdgeIDs)
	if NewBroadcastLPChain().Prepare(other) != NewBroadcastLPChain().Prepare(last) {
		t.Fatal("reversed tree-edge order changed the shape fingerprint")
	}
	got, warm, err := c.SolveNearby(other)
	if err != nil {
		t.Fatal(err)
	}
	if warm {
		t.Fatal("structure change solved warm")
	}
	want, err := SolveBroadcastLP(other)
	if err != nil {
		t.Fatal(err)
	}
	if d := resultDiff(got, want); d != "" {
		t.Fatalf("structure change: %s", d)
	}
}

// TestChainPreparePatchAllocs pins the patch path at zero allocations:
// once the chain has built the structure, preparing further members of
// the family only rewrites the model in place.
func TestChainPreparePatchAllocs(t *testing.T) {
	sts := chainJitterFamily(t, 48, 4)
	for _, st := range sts {
		st.PrefixSums(nil) // the State's own cache, filled by its first use
	}
	c := NewBroadcastLPChain()
	c.Prepare(sts[0])
	i := 0
	allocs := testing.AllocsPerRun(20, func() {
		i++
		c.Prepare(sts[i%len(sts)])
	})
	if allocs != 0 {
		t.Errorf("same-structure Prepare allocated %v objects/run, want 0", allocs)
	}
}

// BenchmarkBroadcastLPChainJitter runs a chain over the jitter family
// (n = 96, as sne-jitter-v2 serves) one Prepare + warm SolvePrepared
// per member: "patch" is the same-structure path, "rebuild" forgets the
// recorded structure before each member so every Prepare rebuilds.
func BenchmarkBroadcastLPChainJitter(b *testing.B) {
	sts := chainJitterFamily(b, 96, 32)
	for _, mode := range []string{"patch", "rebuild"} {
		b.Run(mode, func(b *testing.B) {
			c := NewBroadcastLPChain()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st := sts[i%len(sts)]
				if mode == "rebuild" {
					c.shape.parEdge = c.shape.parEdge[:0] // matches nothing
				}
				c.Prepare(st)
				if _, _, err := c.SolvePrepared(st, c.Basis()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
