package loadgen

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"

	"netdesign/internal/broadcast"
	"netdesign/internal/graph"
	"netdesign/internal/instancefile"
	"netdesign/internal/serve/wire"
)

// Mix kinds. The jitter mix is the warm-friendly E22 stream: one base
// graph, non-tree weights rescaled per instance, so each request after
// the first on a server chain re-solves warm from that chain's basis. The
// adversarial mix is the cold worst case: every instance a fresh random
// structure, shuffled, so every solve is cold. The mixed stream
// interleaves the two: a jitter request is warm only when the request
// before it on its chain was one too.
const (
	MixJitter      = "jitter"
	MixAdversarial = "adversarial"
	MixMixed       = "mixed"
)

// Bodies builds count ready-to-send /sne request bodies over ~n-node
// instances for the chosen mix, deterministically from seed. With binary
// set they are /v2 frames (lp method); otherwise /v1 JSON bodies.
func Bodies(mix string, binary bool, n, count int, seed int64) ([][]byte, error) {
	rng := rand.New(rand.NewSource(seed))
	var insts []*instancefile.Instance
	switch mix {
	case MixJitter:
		insts = jitterInstances(rng, n, count)
	case MixAdversarial:
		insts = adversarialInstances(rng, n, count)
		rng.Shuffle(len(insts), func(i, j int) { insts[i], insts[j] = insts[j], insts[i] })
	case MixMixed:
		insts = append(jitterInstances(rng, n, (count+1)/2), adversarialInstances(rng, n, count/2)...)
		rng.Shuffle(len(insts), func(i, j int) { insts[i], insts[j] = insts[j], insts[i] })
	default:
		return nil, fmt.Errorf("loadgen: unknown mix %q (want %s|%s|%s)", mix, MixJitter, MixAdversarial, MixMixed)
	}
	bodies := make([][]byte, len(insts))
	for i, inst := range insts {
		if binary {
			bodies[i] = wire.AppendFrame(nil, wire.AppendSNERequest(nil, inst, wire.MethodLP))
			continue
		}
		var buf bytes.Buffer
		if err := instancefile.Write(&buf, inst); err != nil {
			return nil, err
		}
		raw, err := json.Marshal(map[string]string{"instance": buf.String()})
		if err != nil {
			return nil, err
		}
		bodies[i] = raw
	}
	return bodies, nil
}

// jitterInstances is the E22 nearby-instance family: the MST (and with
// it the LP structure) provably never changes when only non-tree
// weights scale upward.
func jitterInstances(rng *rand.Rand, n, count int) []*instancefile.Instance {
	base := graph.RandomConnected(rng, n, 0.15, 0.5, 3)
	mst, err := graph.MST(base)
	if err != nil {
		panic(err) // RandomConnected guarantees connectivity
	}
	onTree := make([]bool, base.M())
	for _, id := range mst {
		onTree[id] = true
	}
	out := make([]*instancefile.Instance, 0, count)
	for k := 0; k < count; k++ {
		g := base.Clone()
		for id := 0; id < g.M(); id++ {
			if !onTree[id] {
				g.SetWeight(id, g.Weight(id)*(1+0.25*rng.Float64()))
			}
		}
		bg, err := broadcast.NewGame(g, 0)
		if err != nil {
			panic(err)
		}
		out = append(out, &instancefile.Instance{Game: bg, Tree: mst})
	}
	return out
}

// adversarialInstances never repeats a structure: each instance is a
// fresh random connected graph (size wobbling around n), so no request
// finds its structure on a server chain.
func adversarialInstances(rng *rand.Rand, n, count int) []*instancefile.Instance {
	out := make([]*instancefile.Instance, 0, count)
	for k := 0; k < count; k++ {
		nk := n - 2 + rng.Intn(5)
		if nk < 4 {
			nk = 4
		}
		g := graph.RandomConnected(rng, nk, 0.2, 0.5, 3)
		mst, err := graph.MST(g)
		if err != nil {
			panic(err)
		}
		bg, err := broadcast.NewGame(g, 0)
		if err != nil {
			panic(err)
		}
		out = append(out, &instancefile.Instance{Game: bg, Tree: mst})
	}
	return out
}
