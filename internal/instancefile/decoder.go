package instancefile

import (
	"bytes"
	"fmt"
	"math"
	"strconv"

	"netdesign/internal/broadcast"
	"netdesign/internal/graph"
)

// Decoder is the parser of the instance text format. Its scratch (edge
// list, multiplicity tables, tree) is kept between calls, so a pooled
// Decoder on a serving hot path reuses its parse buffers. The returned
// Instance owns freshly allocated graph/game state and is independent of
// the Decoder. A Decoder is not safe for concurrent use — pool them
// (sync.Pool) instead.
type Decoder struct {
	buf      []byte
	edges    []graph.Edge
	multNode []int
	multVal  []int64
	tree     []int
}

// Decode parses one instance from data in the format documented on the
// package: a missing tree defaults to an MST, a missing mult to one
// player per non-root node.
func (d *Decoder) Decode(data []byte) (*Instance, error) {
	d.edges = d.edges[:0]
	d.multNode = d.multNode[:0]
	d.multVal = d.multVal[:0]
	d.tree = d.tree[:0]

	n := -1 // node count; -1 until the 'nodes' directive
	root := -1
	lineNo := 0
	for off := 0; off < len(data); {
		end := bytes.IndexByte(data[off:], '\n')
		var line []byte
		if end < 0 {
			line = data[off:]
			off = len(data)
		} else {
			line = data[off : off+end]
			off += end + 1
		}
		lineNo++
		line = trimSpace(line)
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		dir, rest := nextField(line)
		switch string(dir) {
		case "nodes":
			f1, rest := nextField(rest)
			if f1 == nil || len(trimSpace(rest)) != 0 {
				return nil, fmt.Errorf("instancefile: line %d: want 'nodes <n>'", lineNo)
			}
			v, err := parseInt(f1)
			if err != nil || v < 1 {
				return nil, fmt.Errorf("instancefile: line %d: bad node count", lineNo)
			}
			n = v
			d.edges = d.edges[:0] // re-declaring nodes drops prior edges
		case "edge":
			if n < 0 {
				return nil, fmt.Errorf("instancefile: line %d: 'edge' before 'nodes'", lineNo)
			}
			f1, rest := nextField(rest)
			f2, rest := nextField(rest)
			f3, rest := nextField(rest)
			if f3 == nil || len(trimSpace(rest)) != 0 {
				return nil, fmt.Errorf("instancefile: line %d: want 'edge <u> <v> <w>'", lineNo)
			}
			u, e1 := parseInt(f1)
			v, e2 := parseInt(f2)
			w, e3 := strconv.ParseFloat(string(f3), 64)
			if e1 != nil || e2 != nil || e3 != nil || u < 0 || v < 0 || u >= n || v >= n || u == v ||
				w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
				return nil, fmt.Errorf("instancefile: line %d: malformed edge", lineNo)
			}
			d.edges = append(d.edges, graph.Edge{U: u, V: v, W: w})
		case "root":
			f1, rest := nextField(rest)
			if f1 == nil || len(trimSpace(rest)) != 0 {
				return nil, fmt.Errorf("instancefile: line %d: want 'root <r>'", lineNo)
			}
			r, err := parseInt(f1)
			if err != nil {
				return nil, fmt.Errorf("instancefile: line %d: bad root", lineNo)
			}
			root = r
		case "mult":
			f1, rest := nextField(rest)
			f2, rest := nextField(rest)
			if f2 == nil || len(trimSpace(rest)) != 0 {
				return nil, fmt.Errorf("instancefile: line %d: want 'mult <node> <m>'", lineNo)
			}
			v, e1 := parseInt(f1)
			m, e2 := parseInt64(f2)
			if e1 != nil || e2 != nil {
				return nil, fmt.Errorf("instancefile: line %d: malformed mult", lineNo)
			}
			d.multNode = append(d.multNode, v)
			d.multVal = append(d.multVal, m)
		case "tree":
			if n < 0 {
				return nil, fmt.Errorf("instancefile: line %d: 'tree' before 'nodes'", lineNo)
			}
			for {
				f, r := nextField(rest)
				if f == nil {
					break
				}
				rest = r
				id, err := parseInt(f)
				if err != nil || id < 0 || id >= len(d.edges) {
					return nil, fmt.Errorf("instancefile: line %d: bad tree edge %q", lineNo, f)
				}
				d.tree = append(d.tree, id)
			}
		default:
			return nil, fmt.Errorf("instancefile: line %d: unknown directive %q", lineNo, dir)
		}
	}
	if n < 0 {
		return nil, fmt.Errorf("instancefile: missing 'nodes'")
	}
	if root < 0 || root >= n {
		return nil, fmt.Errorf("instancefile: missing or invalid 'root'")
	}
	// n nodes need n-1 edges to span, so refuse a larger count before
	// allocating it: "nodes 1000000000" alone must not build a graph.
	if n > len(d.edges)+1 {
		return nil, fmt.Errorf("instancefile: %d nodes cannot be spanned by %d edges", n, len(d.edges))
	}
	tree := d.tree
	if len(tree) == 0 {
		// A bare 'tree' directive, like none, selects the MST default.
		tree = nil
	}
	return Assemble(graph.NewBulk(n, d.edges), root, d.multNode, d.multVal, tree)
}

// DecodeString is Decode over a string; the single copy into reusable
// scratch is what lets the parser keep zero-copy field slices.
func (d *Decoder) DecodeString(text string) (*Instance, error) {
	d.buf = append(d.buf[:0], text...)
	return d.Decode(d.buf)
}

// Assemble finalizes a parsed instance: fill default multiplicities
// (one player per non-root node), apply overrides in order (last one
// wins), construct the game, default a missing tree to an MST, and
// verify the tree spans. Both the text decoder and the binary wire
// decoder (internal/serve/wire) funnel through here, so the two formats
// accept and reject exactly the same instances past the syntax layer.
// A nil tree selects the MST default; an empty non-nil tree is invalid
// unless it spans (single-node graphs).
func Assemble(g *graph.Graph, root int, multNode []int, multVal []int64, tree []int) (*Instance, error) {
	if root < 0 || root >= g.N() {
		return nil, fmt.Errorf("instancefile: missing or invalid 'root'")
	}
	mult := make([]int64, g.N())
	for v := range mult {
		if v != root {
			mult[v] = 1
		}
	}
	for i, v := range multNode {
		if v < 0 || v >= g.N() {
			return nil, fmt.Errorf("instancefile: mult node %d out of range", v)
		}
		mult[v] = multVal[i]
	}
	bg, err := broadcast.NewGameMult(g, root, mult)
	if err != nil {
		return nil, err
	}
	if tree == nil {
		tree, err = graph.MST(g)
		if err != nil {
			return nil, err
		}
	} else {
		tree = append([]int(nil), tree...) // detach from decoder scratch
	}
	if !g.IsSpanningTree(tree) {
		return nil, fmt.Errorf("instancefile: 'tree' is not a spanning tree")
	}
	return &Instance{Game: bg, Tree: tree}, nil
}

// trimSpace is bytes.TrimSpace restricted to the ASCII whitespace the
// format uses; it never allocates.
func trimSpace(b []byte) []byte {
	for len(b) > 0 && isSpace(b[0]) {
		b = b[1:]
	}
	for len(b) > 0 && isSpace(b[len(b)-1]) {
		b = b[:len(b)-1]
	}
	return b
}

func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == '\v' || c == '\f'
}

// nextField splits the first whitespace-delimited field off b, returning
// (nil, b) when none remains. It allocates nothing.
func nextField(b []byte) (field, rest []byte) {
	i := 0
	for i < len(b) && isSpace(b[i]) {
		i++
	}
	if i == len(b) {
		return nil, nil
	}
	j := i
	for j < len(b) && !isSpace(b[j]) {
		j++
	}
	return b[i:j], b[j:]
}

// parseInt mirrors strconv.Atoi over bytes without the string copy:
// optional sign, decimal digits, overflow-checked.
func parseInt(b []byte) (int, error) {
	v, err := parseInt64(b)
	if err != nil {
		return 0, err
	}
	if int64(int(v)) != v {
		return 0, errRange
	}
	return int(v), nil
}

var (
	errSyntax = fmt.Errorf("instancefile: invalid integer")
	errRange  = fmt.Errorf("instancefile: integer out of range")
)

func parseInt64(b []byte) (int64, error) {
	if len(b) == 0 {
		return 0, errSyntax
	}
	neg := false
	if b[0] == '+' || b[0] == '-' {
		neg = b[0] == '-'
		b = b[1:]
		if len(b) == 0 {
			return 0, errSyntax
		}
	}
	var v uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, errSyntax
		}
		if v > (1<<63-1)/10 {
			return 0, errRange
		}
		v = v*10 + uint64(c-'0')
		if !neg && v > 1<<63-1 || neg && v > 1<<63 {
			return 0, errRange
		}
	}
	if neg {
		return -int64(v), nil
	}
	return int64(v), nil
}
