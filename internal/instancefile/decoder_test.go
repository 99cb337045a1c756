package instancefile

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"netdesign/internal/broadcast"
	"netdesign/internal/graph"
)

// sameInstance asserts two parsed instances are identical: graph shape,
// exact edge list bits, root, multiplicities and target tree.
func sameInstance(t *testing.T, label string, a, b *Instance) {
	t.Helper()
	ga, gb := a.Game.G, b.Game.G
	if ga.N() != gb.N() || ga.M() != gb.M() {
		t.Fatalf("%s: shape (%d,%d) != (%d,%d)", label, ga.N(), ga.M(), gb.N(), gb.M())
	}
	for id := 0; id < ga.M(); id++ {
		ea, eb := ga.Edge(id), gb.Edge(id)
		if ea.U != eb.U || ea.V != eb.V || math.Float64bits(ea.W) != math.Float64bits(eb.W) {
			t.Fatalf("%s: edge %d %+v != %+v", label, id, ea, eb)
		}
	}
	if a.Game.Root != b.Game.Root {
		t.Fatalf("%s: root %d != %d", label, a.Game.Root, b.Game.Root)
	}
	for v := range a.Game.Mult {
		if a.Game.Mult[v] != b.Game.Mult[v] {
			t.Fatalf("%s: mult[%d] %d != %d", label, v, a.Game.Mult[v], b.Game.Mult[v])
		}
	}
	if len(a.Tree) != len(b.Tree) {
		t.Fatalf("%s: tree %v != %v", label, a.Tree, b.Tree)
	}
	for i := range a.Tree {
		if a.Tree[i] != b.Tree[i] {
			t.Fatalf("%s: tree %v != %v", label, a.Tree, b.Tree)
		}
	}
}

// TestDecoderMatchesRead: Read returns exactly the instance it was
// written from, and on a curated edge-case set Read and one reused
// Decoder both give each case's stated verdict and, when they accept,
// the same instance.
func TestDecoderMatchesRead(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var d Decoder
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(20)
		g := graph.RandomConnected(rng, n, 0.3, 0.5, 4)
		mult := make([]int64, n)
		for v := range mult {
			mult[v] = int64(1 + rng.Intn(3))
		}
		root := rng.Intn(n)
		mult[root] = 0
		bg, err := broadcast.NewGameMult(g, root, mult)
		if err != nil {
			t.Fatal(err)
		}
		tree, err := graph.MST(g)
		if err != nil {
			t.Fatal(err)
		}
		want := &Instance{Game: bg, Tree: tree}
		var buf bytes.Buffer
		if err := Write(&buf, want); err != nil {
			t.Fatal(err)
		}
		text := buf.String()

		got, err := Read(strings.NewReader(text))
		if err != nil {
			t.Fatalf("trial %d: Read: %v", trial, err)
		}
		sameInstance(t, fmt.Sprintf("trial %d: Read", trial), got, want)
		dec, err := d.DecodeString(text)
		if err != nil {
			t.Fatalf("trial %d: Decode: %v", trial, err)
		}
		sameInstance(t, fmt.Sprintf("trial %d: Decode", trial), dec, want)
	}

	cases := []struct {
		text string
		ok   bool
	}{
		{"nodes 3\nedge 0 1 1\nedge 1 2 1\nedge 0 2 5\nroot 0\n", true},
		{"nodes 2\nedge 0 1 2.5\nroot 1\nmult 0 3\ntree 0\n", true},
		{"# comment\n\nnodes 1\nroot 0\n", true},
		{"nodes 1\nroot 0", true},                                                // no trailing newline
		{"nodes 2\nedge 0 1 1\nroot 0\ntree\n", true},                            // bare tree directive → MST default
		{"mult 1 5\nnodes 2\nedge 0 1 1\nroot 0", true},                          // mult before nodes
		{"nodes 2\r\nedge 0 1 1\r\nroot 0\r\n", true},                            // CRLF
		{"nodes 3\nedge 0 1 1\nnodes 3\nedge 0 1 1\nedge 1 2 1\nroot 0\n", true}, // re-declared nodes
		{"nodes 2\nedge 0 1 1\nroot 0\nmult 1 2\nmult 1 7\n", true},              // last mult wins
		{"mult 0 5\nnodes 2\nedge 0 1 1\nroot 0", false},                         // mult on the root
		{"", false},
		{"nodes 0\n", false},
		{"nodes 2\nroot 0\n", false},
		{"nodes 2\nedge 0 1 1\n", false},
		{"nodes 2\nedge 0 1 1\nroot 5\n", false},
		{"nodes 2\nedge 0 0 1\nroot 0\n", false},
		{"nodes 2\nedge 0 1 -3\nroot 0\n", false},
		{"nodes 2\nedge 0 1 nan\nroot 0\n", false},
		{"nodes 2\nedge 0 1 +Inf\nroot 0\n", false},
		{"nodes 2\nedge 0 1 1e309\nroot 0\n", false},
		{"edge 0 1 1\nnodes 2\nroot 0\n", false},
		{"tree 0\nnodes 2\nedge 0 1 1\nroot 0\n", false},
		{"nodes 2\nedge 0 1 1\nroot 0\ntree 9\n", false},
		{"nodes 2\nedge 0 1 1\nroot 0\nmult 9 1\n", false},
		{"nodes 2\nedge 0 1 1\nroot 0\nbogus 1\n", false},
		{"nodes 2\nedge 0 1 1\nroot 0\ntree 0 0\n", false},
		{"nodes two\n", false},
		{"nodes 2 2\n", false},
		{"nodes 99999999999999999999\n", false},
		{"nodes 1000000000\nroot 0\n", false}, // more nodes than the edges can span
	}
	for i, c := range cases {
		got, readErr := Read(strings.NewReader(c.text))
		dec, decErr := d.DecodeString(c.text)
		if (readErr == nil) != c.ok || (decErr == nil) != c.ok {
			t.Fatalf("case %d %q: want ok=%v, Read err %v, Decode err %v", i, c.text, c.ok, readErr, decErr)
		}
		if c.ok {
			sameInstance(t, fmt.Sprintf("case %d", i), got, dec)
		}
	}
}

// TestDecoderScratchReuse: consecutive decodes through one Decoder must
// not alias each other's instances — the returned instance owns its
// graph and tree.
func TestDecoderScratchReuse(t *testing.T) {
	var d Decoder
	a, err := d.DecodeString("nodes 3\nedge 0 1 1\nedge 1 2 2\nroot 0\ntree 0 1\n")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.DecodeString("nodes 2\nedge 0 1 9\nroot 0\n"); err != nil {
		t.Fatal(err)
	}
	if a.Game.G.N() != 3 || a.Game.G.M() != 2 || a.Game.G.Weight(1) != 2 || len(a.Tree) != 2 {
		t.Fatalf("first instance mutated by the second decode: %+v", a)
	}
}
