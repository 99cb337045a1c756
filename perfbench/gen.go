package main

// The benchmark generates its own inputs, from the seed alone, with code
// in this directory only: no program-side generator (loadgen, the graph
// package's random families) is called, so a change to the program
// cannot change what the benchmark sends. Instances are emitted as
// instancefile text, as /v1 JSON bodies and as /v2 frames; the frame
// encoder below follows the wire format byte for byte (a self-test holds
// it to the program's own encoder).

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
)

// edge is one undirected weighted edge of a generated instance.
type edge struct {
	u, v int
	w    float64
}

// instance is a broadcast instance as the benchmark knows it: the
// graph, the root (always 0) and the target tree (the MST, as edge IDs
// in ascending order).
type instance struct {
	n     int
	edges []edge
	tree  []int
}

// Stream tags keep the per-index seeds of different input streams
// apart.
const (
	streamJitterBase = 1
	streamJitter     = 2
	streamJitterWarm = 3
	streamCold       = 4
	streamColdWarm   = 5
	streamColdOrder  = 6
	streamSweep      = 7
)

// subSeed derives the seed of item idx of a stream (SplitMix64
// finalizer), so any item can be regenerated without generating the
// items before it.
func subSeed(seed int64, stream uint64, idx int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 ^ stream<<48 ^ uint64(idx)
	z += 0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return int64(z ^ z>>31)
}

func weight(rng *rand.Rand) float64 { return 0.5 + 2.5*rng.Float64() }

// randomGraph returns a connected graph on n nodes with exactly m edges:
// a random spanning tree (each node, in random order, joins a random
// earlier one) plus m−n+1 distinct extra edges, weights uniform in
// [0.5, 3).
func randomGraph(rng *rand.Rand, n, m int) []edge {
	perm := rng.Perm(n)
	edges := make([]edge, 0, m)
	has := make([]bool, n*n)
	add := func(u, v int) {
		if u == v || has[u*n+v] {
			return
		}
		has[u*n+v], has[v*n+u] = true, true
		edges = append(edges, edge{u, v, weight(rng)})
	}
	for i := 1; i < n; i++ {
		add(perm[i], perm[rng.Intn(i)])
	}
	for len(edges) < m {
		add(rng.Intn(n), rng.Intn(n))
	}
	return edges
}

// mst returns the minimum spanning tree's edge IDs (Kruskal, ties by
// ID), ascending.
func mst(n int, edges []edge) []int {
	order := make([]int, len(edges))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return edges[order[a]].w < edges[order[b]].w })
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	tree := make([]int, 0, n-1)
	for _, id := range order {
		a, b := find(edges[id].u), find(edges[id].v)
		if a != b {
			parent[a] = b
			tree = append(tree, id)
		}
	}
	sort.Ints(tree)
	return tree
}

// lpRows is the number of LP (3) rows the program builds for an
// instance rooted at 0: one per direction of every non-tree edge,
// except the direction that starts at the root.
func lpRows(in *instance) int {
	onTree := make([]bool, len(in.edges))
	for _, id := range in.tree {
		onTree[id] = true
	}
	rows := 0
	for id, e := range in.edges {
		if onTree[id] {
			continue
		}
		rows += 2
		if e.u == 0 || e.v == 0 {
			rows--
		}
	}
	return rows
}

// ---- sne-jitter-v2: the E22 nearby-instance family ----

const (
	jitterN     = 96
	jitterM     = 760  // edges of the base graph (≈ density 0.15)
	jitterScale = 0.25 // non-tree weights scale by 1 + jitterScale·U[0,1)

	// jitterBaseSeed fixes the base graph: it is part of the workload's
	// definition, like n. Drawn per seed, the base graph alone moved
	// the warm solve between 3.5 and 6.2 pivots and the request time by
	// ±15% from seed to seed, more than any noise bound allows; the
	// seed draws the weight drift.
	jitterBaseSeed = 1
)

// jitterFamily is one base graph; every member rescales only non-tree
// weights upward, which never changes the MST (cycle property), so all
// members share the tree, the LP shape and its structure fingerprint.
type jitterFamily struct {
	base   instance
	onTree []bool
}

func newJitterFamily() *jitterFamily {
	rng := rand.New(rand.NewSource(subSeed(jitterBaseSeed, streamJitterBase, 0)))
	edges := randomGraph(rng, jitterN, jitterM)
	tree := mst(jitterN, edges)
	onTree := make([]bool, len(edges))
	for _, id := range tree {
		onTree[id] = true
	}
	return &jitterFamily{base: instance{n: jitterN, edges: edges, tree: tree}, onTree: onTree}
}

// member returns item idx of the stream (streamJitter for measured
// requests, streamJitterWarm for the warm-up pass).
func (f *jitterFamily) member(seed int64, stream uint64, idx int) *instance {
	rng := rand.New(rand.NewSource(subSeed(seed, stream, idx)))
	edges := append([]edge(nil), f.base.edges...)
	for id := range edges {
		if !f.onTree[id] {
			edges[id].w *= 1 + jitterScale*rng.Float64()
		}
	}
	return &instance{n: f.base.n, edges: edges, tree: f.base.tree}
}

// ---- sne-cold-v1: a stream of fresh structures ----
//
// The basis cache keys on lp.Model.StructureFingerprint, which hashes
// only the LP's shape: variable count (n−1 tree edges) and row count.
// Fresh random graphs therefore collide often, and a collision is a
// cache hit. The cold stream gives every request an (n, rows) point of
// a grid and builds a fresh graph with exactly that many LP rows. The
// grid has coldCycle points, over four times sned's default 512-entry
// cache, and the stream walks all of them before it returns to one; the
// benchmark gives each walk a fresh sned, so every lookup misses.
//
// The row band is centred on the repo's own cold traffic: loadgen's
// adversarial mix at n=64 (RandomConnected, p=0.2, n in 62–66) builds LPs
// of 769 rows on average (sd 50, 5th–95th percentile 691–853, over 5000
// instances). 420 row counts per n, 560–979, keep that mean.

const (
	coldMinN    = 62
	coldNs      = 5   // n in [62, 66]
	coldRows0   = 560 // first row count of the measured grid
	coldRowSpan = 420 // row counts per n in the measured grid
	coldWarmRow = coldRows0 + coldRowSpan

	// coldCycle is the number of grid points, a whole number of rounds:
	// a fingerprint returns only after coldCycle lookups.
	coldCycle = coldNs * coldRowSpan

	// coldStride walks the grid: coprime to coldCycle, and near its
	// golden section, so any run of consecutive requests spreads evenly
	// over n and rows and every round of a run carries the same mix of
	// sizes.
	coldStride = 1297
)

// coldCombo maps measured request idx to its (n, rows) grid point; the
// seed picks where the walk starts.
func coldCombo(seed int64, idx int) (n, rows int) {
	start := int(uint64(subSeed(seed, streamColdOrder, 0)) % coldCycle)
	c := (start + idx%coldCycle*coldStride) % coldCycle
	return coldMinN + c%coldNs, coldRows0 + c/coldNs
}

// coldWarmCombo is the grid point of warm-up request idx: row counts
// above the measured grid, so the warm-up shares no fingerprint with
// the measured requests.
func coldWarmCombo(idx int) (n, rows int) {
	return coldMinN + idx%coldNs, coldWarmRow + idx/coldNs
}

// coldInstance builds a random connected n-node graph whose LP (3) has
// exactly rows rows: it over-generates non-tree edges, then drops
// non-tree edges (two rows each, one if incident to the root) until the
// count matches. Dropping non-tree edges never changes the MST.
func coldInstance(seed int64, stream uint64, idx, n, rows int) *instance {
	for attempt := 0; ; attempt++ {
		rng := rand.New(rand.NewSource(subSeed(seed, stream, idx) + int64(attempt)))
		k := (rows+1)/2 + rows/n + 8
		edges := randomGraph(rng, n, n-1+k)
		in := &instance{n: n, edges: edges, tree: mst(n, edges)}
		if trimRows(rng, in, rows) {
			return in
		}
	}
}

// trimRows drops non-tree edges of in until it has exactly target LP
// rows; false when that is impossible from this graph.
func trimRows(rng *rand.Rand, in *instance, target int) bool {
	onTree := make([]bool, len(in.edges))
	for _, id := range in.tree {
		onTree[id] = true
	}
	var atRoot, inner []int
	for id, e := range in.edges {
		switch {
		case onTree[id]:
		case e.u == 0 || e.v == 0:
			atRoot = append(atRoot, id)
		default:
			inner = append(inner, id)
		}
	}
	drop := make([]bool, len(in.edges))
	take := func(ids []int) []int {
		i := rng.Intn(len(ids))
		drop[ids[i]] = true
		ids[i] = ids[len(ids)-1]
		return ids[:len(ids)-1]
	}
	excess := lpRows(in) - target
	for excess > 0 {
		switch {
		case excess%2 == 1 && len(atRoot) > 0:
			atRoot = take(atRoot)
			excess--
		case excess >= 2 && len(inner) > 0:
			inner = take(inner)
			excess -= 2
		default:
			return false
		}
	}
	if excess < 0 {
		return false
	}
	newID := make([]int, len(in.edges))
	kept := in.edges[:0]
	for id, e := range in.edges {
		newID[id] = len(kept)
		if !drop[id] {
			kept = append(kept, e)
		}
	}
	for i, id := range in.tree {
		in.tree[i] = newID[id]
	}
	in.edges = kept
	return true
}

// ---- encodings ----

// text renders the instance in the instancefile format; weights use the
// shortest representation that round-trips, so the parsed instance is
// bit-identical to the generated one.
func (in *instance) text() string {
	b := make([]byte, 0, 32*len(in.edges)+8*len(in.tree)+32)
	b = append(b, "nodes "...)
	b = strconv.AppendInt(b, int64(in.n), 10)
	b = append(b, '\n')
	for _, e := range in.edges {
		b = append(b, "edge "...)
		b = strconv.AppendInt(b, int64(e.u), 10)
		b = append(b, ' ')
		b = strconv.AppendInt(b, int64(e.v), 10)
		b = append(b, ' ')
		b = strconv.AppendFloat(b, e.w, 'g', -1, 64)
		b = append(b, '\n')
	}
	b = append(b, "root 0\ntree"...)
	for _, id := range in.tree {
		b = append(b, ' ')
		b = strconv.AppendInt(b, int64(id), 10)
	}
	b = append(b, '\n')
	return string(b)
}

// v1Body is the /v1/sne JSON request body (lp method).
func (in *instance) v1Body() []byte {
	body, err := json.Marshal(struct {
		Instance string `json:"instance"`
		Method   string `json:"method"`
	}{in.text(), "lp"})
	if err != nil {
		panic(err) // a struct of two strings always marshals
	}
	return body
}

// v2Frame is the /v2/sne request frame: a 4-byte little-endian payload
// length, then version 1, method 0 (lp), and the instance — uvarint node
// count, root, edge count, per edge uvarint endpoints and the weight's
// IEEE bits (8 bytes LE), a zero multiplicity-override count, the
// tree-present flag and the tree's edge IDs.
func (in *instance) v2Frame() []byte {
	p := make([]byte, 4, 4+16+11*len(in.edges)+2*len(in.tree))
	p = append(p, 1, 0)
	p = binary.AppendUvarint(p, uint64(in.n))
	p = binary.AppendUvarint(p, 0)
	p = binary.AppendUvarint(p, uint64(len(in.edges)))
	for _, e := range in.edges {
		p = binary.AppendUvarint(p, uint64(e.u))
		p = binary.AppendUvarint(p, uint64(e.v))
		p = binary.LittleEndian.AppendUint64(p, math.Float64bits(e.w))
	}
	p = binary.AppendUvarint(p, 0)
	p = append(p, 1)
	p = binary.AppendUvarint(p, uint64(len(in.tree)))
	for _, id := range in.tree {
		p = binary.AppendUvarint(p, uint64(id))
	}
	binary.LittleEndian.PutUint32(p, uint32(len(p)-4))
	return p
}

// ---- input streams of the sne workloads ----

// request is one generated request: the instance and the exact bytes
// sent for it.
type request struct {
	in   *instance
	body []byte
}

// sneInputs generates the warm-up and measured requests of an sne
// workload; item i of either stream depends only on the seed and i.
type sneInputs struct {
	seed   int64
	binary bool // /v2 frames (jitter) or /v1 JSON (cold)
	family *jitterFamily
}

func newSNEInputs(workload string, seed int64) (*sneInputs, error) {
	switch workload {
	case wlJitter:
		return &sneInputs{seed: seed, binary: true, family: newJitterFamily()}, nil
	case wlCold:
		return &sneInputs{seed: seed}, nil
	}
	return nil, fmt.Errorf("no sne inputs for workload %q", workload)
}

// cycle is the number of measured requests after which fingerprints
// repeat; 0 for the jitter family, which has one fingerprint.
func (s *sneInputs) cycle() int {
	if s.family != nil {
		return 0
	}
	return coldCycle
}

func (s *sneInputs) encode(in *instance) request {
	if s.binary {
		return request{in, in.v2Frame()}
	}
	return request{in, in.v1Body()}
}

// warm returns warm-up request i.
func (s *sneInputs) warm(i int) request {
	if s.family != nil {
		return s.encode(s.family.member(s.seed, streamJitterWarm, i))
	}
	n, rows := coldWarmCombo(i)
	return s.encode(coldInstance(s.seed, streamColdWarm, i, n, rows))
}

// measured returns measured request i.
func (s *sneInputs) measured(i int) request {
	if s.family != nil {
		return s.encode(s.family.member(s.seed, streamJitter, i))
	}
	n, rows := coldCombo(s.seed, i)
	return s.encode(coldInstance(s.seed, streamCold, i, n, rows))
}

// batch appends measured requests [from, to) to dst.
func (s *sneInputs) batch(dst []request, from, to int) []request {
	for i := from; i < to; i++ {
		dst = append(dst, s.measured(i))
	}
	return dst
}

// digest hashes the bytes of the warm-up pass and the first
// digestPrefix measured requests — a fixed prefix, so the digest
// depends on the workload and seed only, not on how many requests a
// run had time to send.
func (s *sneInputs) digest(warmup int) string {
	h := sha256.New()
	for i := 0; i < warmup; i++ {
		h.Write(s.warm(i).body)
	}
	for i := 0; i < digestPrefix; i++ {
		h.Write(s.measured(i).body)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

const digestPrefix = 256
