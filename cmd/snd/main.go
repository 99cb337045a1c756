// Command snd solves STABLE NETWORK DESIGN on a broadcast instance file:
// the lightest network enforceable as an equilibrium within a subsidy
// budget.
//
// Usage:
//
//	snd -in instance.txt -budget B [-exact] [-treelimit N]
//
// The default is snd.HeuristicAuto, the policy sned also serves: the
// polynomial MST+LP heuristic, falling back to the Theorem-6 construction
// when the budget cannot cover the MST's enforcement. -exact enumerates
// all spanning trees (exponential — small instances only).
package main

import (
	"flag"
	"fmt"
	"os"

	"netdesign/internal/instancefile"
	"netdesign/internal/snd"
)

func main() {
	inPath := flag.String("in", "", "instance file (required)")
	budget := flag.Float64("budget", 0, "subsidy budget B")
	exact := flag.Bool("exact", false, "exact solve by spanning-tree enumeration")
	treeLimit := flag.Int("treelimit", 200000, "abort exact solve beyond this many trees")
	flag.Parse()
	if *inPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*inPath, *budget, *exact, *treeLimit); err != nil {
		fmt.Fprintln(os.Stderr, "snd:", err)
		os.Exit(1)
	}
}

func run(inPath string, budget float64, exact bool, treeLimit int) error {
	f, err := os.Open(inPath)
	if err != nil {
		return err
	}
	defer f.Close()
	inst, err := instancefile.Read(f)
	if err != nil {
		return err
	}
	bg := inst.Game
	fmt.Printf("instance: %d nodes, %d edges, budget %.6g\n", bg.G.N(), bg.G.M(), budget)

	var res *snd.Result
	if exact {
		res, err = snd.SolveExact(bg, budget, treeLimit)
	} else {
		var fellBack bool
		res, _, fellBack, err = snd.HeuristicAuto(bg, budget)
		// The diagnostic goes to stderr — stdout is the machine-readable
		// result channel.
		if fellBack {
			fmt.Fprintln(os.Stderr, "snd: MST+LP heuristic infeasible at this budget; trying Theorem-6 construction")
		}
	}
	if err != nil {
		return err
	}
	if err := snd.Verify(bg, res, budget); err != nil {
		return fmt.Errorf("result failed verification: %w", err)
	}
	fmt.Printf("design: weight %.6g, subsidies %.6g (%.2f%% of budget) [verified]\n",
		res.Weight, res.SubsidyCost, pct(res.SubsidyCost, budget))
	fmt.Printf("tree edges: %v\n", res.Tree)
	return nil
}

func pct(x, of float64) float64 {
	if of == 0 {
		return 0
	}
	return 100 * x / of
}
