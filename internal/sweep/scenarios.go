package sweep

import (
	"fmt"
	"math"
	"math/rand"

	"netdesign/internal/broadcast"
	"netdesign/internal/graph"
	"netdesign/internal/numeric"
	"netdesign/internal/sne"
	"netdesign/internal/subsidy"
	"netdesign/internal/table"
)

// sneLPBaseSeed decorrelates the jitter-family base graph from the
// per-instance streams (which use InstanceSeed of the same spec seed).
const sneLPBaseSeed = 0x5eed_ba5e_c0de

// The built-in scenarios: the paper's heavy experiment families, rebased
// from internal/experiments onto the sharded engine. TableIDs match the
// experiments registry (E9/E20/E21) so merged sweep output slots into the
// same report the serial registry run emits.

func init() {
	Register(posTreesScenario())
	Register(posSwapScenario())
	Register(enforceScenario())
	Register(sneLPScenario())
}

// posTreesScenario is the exhaustive PoS landscape study (experiment E9):
// random broadcast games small enough for full spanning-tree enumeration,
// measured against the Anshelevich H_n bound and the
// Mamageishvili–Mihalák–Montemezzani H_{n/2}-style refinement.
//
// Params: spread (default 4) — n is uniform in [Size, Size+spread);
// treelimit (default 20000) — enumeration cap before the instance is
// skipped with a note.
func posTreesScenario() *Scenario {
	return &Scenario{
		Name:    "pos-trees",
		TableID: "E9",
		Title:   "Exact PoS of random broadcast games (tree enumeration)",
		Claim:   "Context (§1): PoS ≤ H_n in general; best known broadcast bounds are [1.818, O(log log n)]",
		Headers: []string{"n", "trees", "equilibria", "OPT", "best eq", "PoS", "H_n bound", "H_n/2", "within"},
		Run: func(spec Spec, idx int, rng *rand.Rand) (Record, error) {
			spread := int(spec.Param("spread", 4))
			if spread < 1 {
				spread = 1
			}
			n := spec.Size + rng.Intn(spread)
			g := graph.RandomConnected(rng, n, 0.45, 0.3, 2)
			bg, err := broadcast.NewGame(g, 0)
			if err != nil {
				return Record{}, err
			}
			a, err := broadcast.AnalyzeTrees(bg, nil, int(spec.Param("treelimit", 20000)))
			if err == graph.ErrTooManyTrees {
				return Record{Notes: []string{fmt.Sprintf("n=%d: skipped (spanning-tree enumeration over limit)", n)}}, nil
			}
			if err != nil {
				return Record{}, err
			}
			if a.Equilibria == 0 {
				// Possible over tree states only when the best equilibria
				// use non-tree states with zero-weight cycles; none here
				// (weights are positive), so flag it.
				return Record{Notes: []string{fmt.Sprintf("n=%d: no spanning-tree equilibrium found (unexpected for positive weights)", n)}}, nil
			}
			players := int(bg.NumPlayers())
			hn := numeric.Harmonic(players)
			hn2 := numeric.Harmonic((players + 1) / 2)
			pos := a.PoS()
			return Record{
				Cells: table.FormatCells(n, a.Trees, a.Equilibria, a.OptWeight, a.BestEq, pos, hn, hn2, pos <= hn+numeric.Eps),
				Vals:  []float64{pos},
			}, nil
		},
		Finalize: func(spec Spec, recs []Record, tb *table.Table) {
			maxPoS := 1.0
			for _, rec := range recs {
				if len(rec.Vals) > 0 && rec.Vals[0] > maxPoS {
					maxPoS = rec.Vals[0]
				}
			}
			tb.Note("maximum PoS observed: %.4f (paper's broadcast lower bound: 1.818)", maxPoS)
		},
	}
}

// posSwapScenario is the large-n PoS estimator (experiment E20): n far
// beyond exhaustive enumeration, bounded above by multi-start
// swap-descent local search (broadcast.EstimatePoS on SwapDynamics +
// SwapPotentialDelta).
//
// Params: spread (default 8) — n uniform in [Size, Size+spread); p
// (default 0.15) — extra-edge density; starts (default 4) — descents per
// instance; maxsteps (default 0 → engine default) — swap budget.
func posSwapScenario() *Scenario {
	return &Scenario{
		Name:    "pos-swap",
		TableID: "E20",
		Title:   "Large-n PoS upper bounds via swap-descent local search",
		Claim:   "Beyond enumeration, every converged swap descent certifies PoS ≤ weight/OPT (far below H_n)",
		Headers: []string{"n", "edges", "starts", "converged", "swaps", "OPT", "best eq", "PoS ≤", "H_n bound"},
		Run: func(spec Spec, idx int, rng *rand.Rand) (Record, error) {
			spread := int(spec.Param("spread", 8))
			if spread < 1 {
				spread = 1
			}
			n := spec.Size + rng.Intn(spread)
			g := graph.RandomConnected(rng, n, spec.Param("p", 0.15), 0.5, 3)
			bg, err := broadcast.NewGame(g, 0)
			if err != nil {
				return Record{}, err
			}
			est, err := broadcast.EstimatePoS(bg, nil, int(spec.Param("starts", 4)), int(spec.Param("maxsteps", 0)), rng)
			if err != nil {
				return Record{}, err
			}
			hn := numeric.Harmonic(int(bg.NumPlayers()))
			bestEq, pos := "—", "—"
			var vals []float64
			if est.Converged > 0 {
				bestEq = fmt.Sprintf("%.4f", est.BestEq)
				pos = fmt.Sprintf("%.4f", est.PoS())
				vals = []float64{est.PoS()}
			}
			return Record{
				Cells: table.FormatCells(n, g.M(), est.Starts, est.Converged, est.Steps, est.OptWeight, bestEq, pos, hn),
				Vals:  vals,
			}, nil
		},
		Finalize: func(spec Spec, recs []Record, tb *table.Table) {
			maxPoS, converged := 0.0, 0
			for _, rec := range recs {
				if len(rec.Vals) > 0 {
					converged++
					if rec.Vals[0] > maxPoS {
						maxPoS = rec.Vals[0]
					}
				}
			}
			if converged > 0 {
				tb.Note("maximum certified PoS upper bound: %.4f over %d/%d converged instances", maxPoS, converged, len(recs))
			} else {
				tb.Note("no descent converged to an equilibrium — raise starts or maxsteps")
			}
		},
	}
}

// sneLPScenario is the optimal-enforcement sweep (experiment E22): the
// Theorem-1 LP (3) optimum on random MST states at sweep scale, through
// the sparse revised simplex. Against Theorem 6's universal 1/e budget
// the LP reports how much an *optimal* designer actually pays per
// instance — the data generator for learning enforcement budgets across
// a family (the Balcan–Pozzi–Sharma direction in PAPERS.md).
//
// Params: spread (default 8) — n uniform in [Size, Size+spread); p
// (default 0.3) — extra-edge density.
//
// jitter (default 0) — when > 0 the family is "nearby instances": one
// base graph of exactly Size nodes (derived from the spec seed alone, so
// every instance regenerates it identically), where each instance
// rescales every NON-tree edge upward by (1 + jitter·u), u uniform in
// [0, 1) from the instance rng. Raising non-MST weights provably never
// changes the MST (cut property), so the whole family shares one built
// tree: every LP has identical variables and coefficients and only its
// right-hand sides move — the "same network, drifting deviation prices"
// family of the Balcan–Pozzi–Sharma subsidy-learning direction, and the
// only family warm starts help. spread is ignored.
//
// warm (default 0) — when nonzero each worker solves through one
// sne.BroadcastLPChain (SolveNearby): instance k warm starts from
// instance k−1's optimal basis only when both have exactly the same LP
// structure, which on this scenario means the jitter family; any other
// instance solves cold, so a non-jitter run prints the warm=0 table byte
// for byte. On the jitter family the optimum — every cost column — is
// unchanged, but the pivot-count column then depends on the chain, i.e.
// on the shard layout; leave warm off wherever byte-identical output
// across layouts matters (the goldens and the resume differential
// harness run warm=0, and TestSweepSNELPWarmMatchesCold pins warm to
// cold on everything but pivots).
func sneLPScenario() *Scenario {
	run := func(spec Spec, idx int, rng *rand.Rand, carry any) (Record, any, error) {
		var g *graph.Graph
		var n int
		if j := spec.Param("jitter", 0); j > 0 {
			n = spec.Size
			g = graph.RandomConnected(rand.New(rand.NewSource(spec.Seed^sneLPBaseSeed)), n, spec.Param("p", 0.3), 0.5, 3)
			mst, err := graph.MST(g)
			if err != nil {
				return Record{}, nil, err
			}
			onTree := make([]bool, g.M())
			for _, id := range mst {
				onTree[id] = true
			}
			for id := 0; id < g.M(); id++ {
				if !onTree[id] {
					g.SetWeight(id, g.Weight(id)*(1+j*rng.Float64()))
				}
			}
		} else {
			spread := int(spec.Param("spread", 8))
			if spread < 1 {
				spread = 1
			}
			n = spec.Size + rng.Intn(spread)
			g = graph.RandomConnected(rng, n, spec.Param("p", 0.3), 0.5, 3)
		}
		bg, err := broadcast.NewGame(g, 0)
		if err != nil {
			return Record{}, nil, err
		}
		mst, err := bg.MST()
		if err != nil {
			return Record{}, nil, err
		}
		st, err := broadcast.NewState(bg, mst)
		if err != nil {
			return Record{}, nil, err
		}
		var res *sne.Result
		var next any
		if spec.Param("warm", 0) != 0 {
			chain, _ := carry.(*sne.BroadcastLPChain)
			if chain == nil {
				chain = sne.NewBroadcastLPChain()
			}
			res, _, err = chain.SolveNearby(st)
			next = chain
		} else {
			res, err = sne.SolveBroadcastLP(st)
		}
		if err != nil {
			return Record{}, nil, err
		}
		frac := res.Cost / st.Weight()
		return Record{
			Cells: table.FormatCells(n, g.M(), st.Weight(), res.Cost, frac, res.Pivots),
			Vals:  []float64{frac},
		}, next, nil
	}
	return &Scenario{
		Name:    "sne-lp",
		TableID: "E22",
		Title:   "Optimal SNE subsidies at sweep scale (sparse revised simplex)",
		Claim:   "Theorem 1: min-cost enforcement is an LP; Theorem 6 caps it at wgt(T)/e",
		Headers: []string{"n", "edges", "wgt(T)", "LP cost", "frac", "pivots"},
		Run: func(spec Spec, idx int, rng *rand.Rand) (Record, error) {
			rec, _, err := run(spec, idx, rng, nil)
			return rec, err
		},
		RunChained: run,
		Finalize: func(spec Spec, recs []Record, tb *table.Table) {
			maxFrac := 0.0
			for _, rec := range recs {
				if len(rec.Vals) > 0 && rec.Vals[0] > maxFrac {
					maxFrac = rec.Vals[0]
				}
			}
			tb.Note("max LP cost fraction: %.4f of wgt(T) (Theorem 6 guarantees ≤ 1/e ≈ %.4f always suffices)",
				maxFrac, numeric.InvE)
		},
	}
}

// enforceScenario is the Theorem-6 enforcement-cost sweep (experiment
// E21): on every instance the construction must spend exactly wgt(T)/e
// (unit multiplicities) and leave the MST an equilibrium.
//
// Params: spread (default 8) — n uniform in [Size, Size+spread); p
// (default 0.3) — extra-edge density.
func enforceScenario() *Scenario {
	return &Scenario{
		Name:    "enforce",
		TableID: "E21",
		Title:   "Theorem-6 enforcement cost at sweep scale",
		Claim:   "Theorem 6: subsidies of wgt(T)/e ≈ 0.3679·wgt(T) always suffice",
		Headers: []string{"n", "wgt(T)", "T6 cost", "T6 frac", "enforced"},
		Run: func(spec Spec, idx int, rng *rand.Rand) (Record, error) {
			spread := int(spec.Param("spread", 8))
			if spread < 1 {
				spread = 1
			}
			n := spec.Size + rng.Intn(spread)
			g := graph.RandomConnected(rng, n, spec.Param("p", 0.3), 0.5, 3)
			bg, err := broadcast.NewGame(g, 0)
			if err != nil {
				return Record{}, err
			}
			mst, err := bg.MST()
			if err != nil {
				return Record{}, err
			}
			st, err := broadcast.NewState(bg, mst)
			if err != nil {
				return Record{}, err
			}
			b, cert, err := subsidy.Enforce(st)
			if err != nil {
				return Record{}, err
			}
			frac := cert.Total / st.Weight()
			return Record{
				Cells: table.FormatCells(n, st.Weight(), cert.Total, frac, st.IsEquilibrium(b)),
				Vals:  []float64{frac},
			}, nil
		},
		Finalize: func(spec Spec, recs []Record, tb *table.Table) {
			maxDev := 0.0
			for _, rec := range recs {
				if len(rec.Vals) > 0 {
					if d := math.Abs(rec.Vals[0] - numeric.InvE); d > maxDev {
						maxDev = d
					}
				}
			}
			tb.Note("max |frac − 1/e| = %.2e across %d instances (Theorem 6 predicts exactly 1/e at unit multiplicities)", maxDev, len(recs))
		},
	}
}
