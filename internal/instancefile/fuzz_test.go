package instancefile

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzRead ensures the instance parser never panics and that everything
// it accepts round-trips through Write.
func FuzzRead(f *testing.F) {
	f.Add("nodes 3\nedge 0 1 1\nedge 1 2 1\nedge 0 2 5\nroot 0\n")
	f.Add("nodes 2\nedge 0 1 2.5\nroot 1\nmult 0 3\ntree 0\n")
	f.Add("# comment\n\nnodes 1\nroot 0\n")
	f.Add("nodes -1\n")
	f.Add("edge a b c\n")
	f.Add("nodes 4\nedge 0 1 1e308\nroot 0\n")
	f.Add("nodes 1000000000\nroot 0\n")
	f.Fuzz(func(t *testing.T, input string) {
		in, err := Read(strings.NewReader(input))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := Write(&buf, in); err != nil {
			t.Fatalf("accepted instance failed to serialize: %v", err)
		}
		back, err := Read(&buf)
		if err != nil {
			t.Fatalf("serialized instance failed to re-parse: %v", err)
		}
		if back.Game.G.N() != in.Game.G.N() || back.Game.G.M() != in.Game.G.M() {
			t.Fatal("round trip changed the graph shape")
		}
	})
}
