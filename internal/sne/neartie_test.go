package sne

import (
	"math"
	"os"
	"testing"

	"netdesign/internal/broadcast"
	"netdesign/internal/instancefile"
)

// nearTieFiles are served instances whose LP (3) optimum leaves a
// deviation tied with the player's path cost: the simplex accepts the
// row (violated by < lp.FeasTol) while VerifyBroadcast, at a relative
// 1e-9, rejects it.
var nearTieFiles = []string{
	"testdata/neartie-cold-901-3354.txt",
	"testdata/neartie-jitter-407-3511.txt",
}

func readState(t *testing.T, path string) *broadcast.State {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	in, err := instancefile.Read(f)
	if err != nil {
		t.Fatal(err)
	}
	st, err := in.State()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestNearTieAnswersVerify requires the one-shot solver and a fresh
// chain to return a verified assignment on each near-tie instance, at a
// cost within 1e-5 of the dense tableau's LP optimum.
func TestNearTieAnswersVerify(t *testing.T) {
	for _, path := range nearTieFiles {
		st := readState(t, path)
		res, err := SolveBroadcastLP(st)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if err := VerifyBroadcast(st, res.Subsidy); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		chained, _, err := NewBroadcastLPChain().SolveNearby(st)
		if err != nil {
			t.Fatalf("%s: chain: %v", path, err)
		}
		if d := resultDiff(chained, res); d != "" {
			t.Fatalf("%s: chain and one-shot solve differ: %s", path, d)
		}
		c := NewBroadcastLPChain()
		c.Prepare(st)
		dense, err := c.bl.model.SolveDense()
		if err != nil {
			t.Fatalf("%s: dense: %v", path, err)
		}
		if math.Abs(res.Cost-dense.Objective) > 1e-5*(1+dense.Objective) {
			t.Fatalf("%s: cost %v, dense LP optimum %v", path, res.Cost, dense.Objective)
		}
	}
}
