package instancefile

import (
	"bytes"
	"strings"
	"testing"

	"netdesign/internal/broadcast"
	"netdesign/internal/graph"
)

func TestRoundTrip(t *testing.T) {
	g := graph.Cycle(4, 1)
	mult := []int64{0, 1, 3, 1, 2}
	bg, err := broadcast.NewGameMult(g, 0, mult)
	if err != nil {
		t.Fatal(err)
	}
	in := &Instance{Game: bg, Tree: []int{0, 1, 2, 3}}
	var buf bytes.Buffer
	if err := Write(&buf, in); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Game.G.N() != 5 || back.Game.G.M() != 5 || back.Game.Root != 0 {
		t.Fatalf("round trip shape wrong")
	}
	for v, m := range mult {
		if back.Game.Mult[v] != m {
			t.Errorf("mult[%d] = %d, want %d", v, back.Game.Mult[v], m)
		}
	}
	if len(back.Tree) != 4 {
		t.Errorf("tree = %v", back.Tree)
	}
	if _, err := back.State(); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultTreeIsMST(t *testing.T) {
	src := "nodes 3\nedge 0 1 1\nedge 1 2 1\nedge 0 2 5\nroot 0\n"
	in, err := Read(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(in.Tree) != 2 || in.Game.G.WeightOf(in.Tree) != 2 {
		t.Errorf("default tree %v", in.Tree)
	}
}

func TestReadErrors(t *testing.T) {
	bad := []string{
		"",
		"nodes 2\nedge 0 1 1\n",                 // no root
		"nodes 2\nedge 0 1 1\nroot 9\n",         // bad root
		"nodes 2\nedge 0 1 1\nroot 0\ntree 5\n", // bad tree edge
		"nodes 3\nedge 0 1 1\nedge 1 2 1\nroot 0\ntree 0\n", // non-spanning
		"nodes 2\nedge 0 1 1\nroot 0\nmult 9 2\n",           // bad mult node
		"nodes 2\nedge 0 1 1\nroot 0\nmult 1 0\n",           // zero mult
		"nodes 2\nfrobnicate\n",                             // unknown directive
		"nodes 2\nedge 0 0 1\nroot 0\n",                     // self loop
		"edge 0 1 1\n",                                      // edge before nodes
	}
	for i, src := range bad {
		if _, err := Read(strings.NewReader(src)); err == nil {
			t.Errorf("bad input %d accepted", i)
		}
	}
}

func TestComments(t *testing.T) {
	src := "# instance\nnodes 2\n\nedge 0 1 2.5\nroot 0\n"
	in, err := Read(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if in.Game.G.Weight(0) != 2.5 {
		t.Error("weight parsed wrong")
	}
}

// TestReadGraphComments checks that comments and blank lines between the
// nodes and edge lines of the graph section are skipped.
func TestReadGraphComments(t *testing.T) {
	src := "# a graph\nnodes 3\n\nedge 0 1 1.5\n# between edges\nedge 1 2 2\nroot 0\n"
	in, err := Read(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	g := in.Game.G
	if g.N() != 3 || g.M() != 2 || g.Weight(0) != 1.5 || g.Weight(1) != 2 {
		t.Errorf("parsed wrong: %v", g)
	}
}

// TestReadGraphErrors feeds malformed nodes and edge lines; each must be
// refused even though the rest of the instance is well formed.
func TestReadGraphErrors(t *testing.T) {
	bad := []string{
		"nodes x\nroot 0\n",               // bad node count
		"nodes\nroot 0\n",                 // missing node count
		"nodes 2\nedge 0 5 1\nroot 0\n",   // edge endpoint out of range
		"nodes 2\nedge 0 1 -1\nroot 0\n",  // negative weight
		"nodes 2\nedge 0 1\nroot 0\n",     // missing weight
		"nodes 2\nfrobnicate 1\nroot 0\n", // unknown directive with an argument
		"nodes 1000000000\nroot 0\n",      // more nodes than the edges can span
	}
	for _, src := range bad {
		if _, err := Read(strings.NewReader(src)); err == nil {
			t.Errorf("input %q: expected error", src)
		}
	}
}
