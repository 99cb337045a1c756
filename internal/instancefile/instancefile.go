// Package instancefile reads and writes broadcast SNE/SND instances in a
// line-oriented text format shared by the cmd/ tools:
//
//	# comment
//	nodes <n>
//	edge <u> <v> <weight>
//	root <r>
//	mult <node> <multiplicity>     (optional; default 1 per non-root node)
//	tree <edgeID> <edgeID> ...     (optional; default: a minimum spanning tree)
//
// Fields are separated by ASCII whitespace.
// cmd/gadgetgen emits this format; cmd/sne and cmd/snd consume it through
// Read, and sned through a pooled Decoder. Decoder.Decode is the format's
// only parser: Read reads its whole input and decodes it in one call.
package instancefile

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"netdesign/internal/broadcast"
)

// Instance is a parsed broadcast instance: a game plus a target tree.
type Instance struct {
	Game *broadcast.Game
	Tree []int
}

// State materializes the target tree as a broadcast state.
func (in *Instance) State() (*broadcast.State, error) {
	return broadcast.NewState(in.Game, in.Tree)
}

// Write serializes an instance.
func Write(w io.Writer, in *Instance) error {
	bw := bufio.NewWriter(w)
	g := in.Game.G
	fmt.Fprintf(bw, "nodes %d\n", g.N())
	for _, e := range g.Edges() {
		fmt.Fprintf(bw, "edge %d %d %g\n", e.U, e.V, e.W)
	}
	fmt.Fprintf(bw, "root %d\n", in.Game.Root)
	for v, m := range in.Game.Mult {
		if v != in.Game.Root && m != 1 {
			fmt.Fprintf(bw, "mult %d %d\n", v, m)
		}
	}
	if len(in.Tree) > 0 {
		parts := make([]string, len(in.Tree))
		for i, id := range in.Tree {
			parts[i] = strconv.Itoa(id)
		}
		fmt.Fprintf(bw, "tree %s\n", strings.Join(parts, " "))
	}
	return bw.Flush()
}

// Read parses an instance from r: it reads the whole input and hands it
// to one Decoder, the format's only parser. Missing tree lines default
// to a minimum spanning tree; missing mult lines default to one player
// per node.
func Read(r io.Reader) (*Instance, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	var d Decoder
	return d.Decode(data)
}
