package graph

import "math"

// Scratch is a reusable workspace for the CSR-based shortest-path
// routines. A zero Scratch is ready to use; its buffers
// grow to the largest graph seen and are then reused, so steady-state
// calls allocate nothing. A Scratch is not safe for concurrent use —
// give each goroutine its own.
//
// After a call to (*Scratch).Dijkstra the public result slices Dist,
// ParEdge and ParNode are valid for the nodes of that graph and remain
// valid until the next call on the same Scratch.
type Scratch struct {
	Dist    []float64 // Dist[v] = shortest distance, +Inf if unreachable
	ParEdge []int32   // ParEdge[v] = edge ID into v, -1 at source/unreachable
	ParNode []int32   // ParNode[v] = predecessor node, -1 at source/unreachable

	// Indexed 4-ary min-heap with decrease-key: heap holds node IDs
	// ordered by Dist[node]; pos[v] is v's index in heap, posUnseen
	// before discovery, posDone after settlement.
	heap []int32
	pos  []int32
}

const (
	posUnseen int32 = -1
	posDone   int32 = -2
)

// grow resizes the workspace for a graph with n nodes.
func (s *Scratch) grow(n int) {
	if cap(s.Dist) < n {
		s.Dist = make([]float64, n)
		s.ParEdge = make([]int32, n)
		s.ParNode = make([]int32, n)
		s.pos = make([]int32, n)
		s.heap = make([]int32, 0, n)
	}
	s.Dist = s.Dist[:n]
	s.ParEdge = s.ParEdge[:n]
	s.ParNode = s.ParNode[:n]
	s.pos = s.pos[:n]
}

// heapUp restores heap order after key[h[i]] decreased.
func heapUp(h, pos []int32, key []float64, i int) {
	v := h[i]
	kv := key[v]
	for i > 0 {
		p := (i - 1) >> 2
		if key[h[p]] <= kv {
			break
		}
		h[i] = h[p]
		pos[h[i]] = int32(i)
		i = p
	}
	h[i] = v
	pos[v] = int32(i)
}

// heapDown restores heap order after the root was replaced.
func heapDown(h, pos []int32, key []float64, i int) {
	n := len(h)
	v := h[i]
	kv := key[v]
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		end := c + 4
		if end > n {
			end = n
		}
		best, bk := c, key[h[c]]
		for j := c + 1; j < end; j++ {
			if k := key[h[j]]; k < bk {
				best, bk = j, k
			}
		}
		if kv <= bk {
			break
		}
		h[i] = h[best]
		pos[h[i]] = int32(i)
		i = best
	}
	h[i] = v
	pos[v] = int32(i)
}

// heapPop removes and returns the minimum-key node.
func heapPop(h []int32, pos []int32, key []float64) ([]int32, int32) {
	v := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	if last > 0 {
		heapDown(h, pos, key, 0)
	}
	pos[v] = posDone
	return h, v
}

// Dijkstra runs single-source shortest paths from src over the frozen
// view c, filling s.Dist/s.ParEdge/s.ParNode. A nil WeightFunc means the
// frozen edge weights. The indexed heap performs decrease-key in place,
// so — unlike the container/heap formulation — no duplicate entries and
// no interface boxing occur, and a warmed-up Scratch allocates nothing.
func (s *Scratch) Dijkstra(c *CSR, src int, w WeightFunc) {
	s.dijkstra(c, src, -1, w)
}

// DijkstraTo is Dijkstra with target early exit: the search stops the
// moment dst is settled, which by the Dijkstra invariant makes
// s.Dist[dst] and the PathTo(dst) parent chain identical to a full run —
// only entries for *other* nodes may be left tentative. The separation
// oracles run one of these per player per round, so on large graphs the
// saved half-a-graph of heap traffic is the dominant win.
func (s *Scratch) DijkstraTo(c *CSR, src, dst int, w WeightFunc) {
	s.dijkstra(c, src, dst, w)
}

func (s *Scratch) dijkstra(c *CSR, src, dst int, w WeightFunc) {
	n := c.n
	s.grow(n)
	dist, pe, pn, pos := s.Dist, s.ParEdge, s.ParNode, s.pos
	inf := math.Inf(1)
	for i := 0; i < n; i++ {
		dist[i] = inf
		pe[i] = -1
		pn[i] = -1
		pos[i] = posUnseen
	}
	h := s.heap[:0]
	dist[src] = 0
	h = append(h, int32(src))
	pos[src] = 0
	for len(h) > 0 {
		var u int32
		h, u = heapPop(h, pos, dist)
		if int(u) == dst {
			break
		}
		du := dist[u]
		for k := c.off[u]; k < c.off[u+1]; k++ {
			v := c.to[k]
			if pos[v] == posDone {
				continue
			}
			id := c.eid[k]
			var wc float64
			if w == nil {
				wc = c.w[id]
			} else {
				wc = w(int(id))
			}
			if wc < 0 {
				panic("graph: Dijkstra requires non-negative weights")
			}
			if nd := du + wc; nd < dist[v] {
				dist[v] = nd
				pe[v] = id
				pn[v] = u
				if pos[v] == posUnseen {
					h = append(h, v)
					pos[v] = int32(len(h) - 1)
				}
				heapUp(h, pos, dist, int(pos[v]))
			}
		}
	}
	s.heap = h[:0]
}

// PathTo reconstructs the edge-ID path from the last Dijkstra source to
// node v into dst (reused if capacity allows), or nil if v is
// unreachable. The path is ordered source→v.
func (s *Scratch) PathTo(v int, dst []int) []int {
	if math.IsInf(s.Dist[v], 1) {
		return nil
	}
	dst = dst[:0]
	for s.ParEdge[v] >= 0 {
		dst = append(dst, int(s.ParEdge[v]))
		v = int(s.ParNode[v])
	}
	for i, j := 0, len(dst)-1; i < j; i, j = i+1, j-1 {
		dst[i], dst[j] = dst[j], dst[i]
	}
	return dst
}
