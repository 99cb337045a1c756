package sweep

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// SpecFlags are the spec-source flags cmd/sweep and cmd/sweepd share:
// -spec, -scenario, -seed, -count, -size and the repeatable -param.
type SpecFlags struct {
	Path     string // -spec: read the spec from this file
	Scenario string // -scenario: build the spec from the flags below
	Seed     int64
	Count    int
	Size     int
	Params   paramFlags
}

// Register declares the spec flags on fs.
func (f *SpecFlags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.Path, "spec", "", "read the sweep spec from this file")
	fs.StringVar(&f.Scenario, "scenario", "", "scenario name (builds the spec from flags)")
	fs.Int64Var(&f.Seed, "seed", 1, "base seed (instance i uses a derived seed)")
	fs.IntVar(&f.Count, "count", 8, "number of instances in the family")
	fs.IntVar(&f.Size, "size", 8, "base instance-size parameter")
	f.Params = paramFlags{}
	fs.Var(f.Params, "param", "scenario parameter name=value (repeatable)")
}

// Resolve builds the sweep spec from, in priority order: an explicit
// spec file, scenario flags, or the spec pinned in the run directory
// dir, so a crashed run restarts with just -dir.
func (f *SpecFlags) Resolve(dir string) (Spec, error) {
	switch {
	case f.Path != "":
		file, err := os.Open(f.Path)
		if err != nil {
			return Spec{}, err
		}
		defer file.Close()
		return ParseSpec(file)
	case f.Scenario != "":
		spec := Spec{Scenario: f.Scenario, Seed: f.Seed, Count: f.Count, Size: f.Size}
		if len(f.Params) > 0 {
			spec.Params = f.Params
		}
		return spec, spec.Validate()
	case dir != "":
		spec, err := LoadRunSpec(dir)
		if err != nil {
			return Spec{}, fmt.Errorf("no -spec/-scenario and no pinned spec in %s: %w", dir, err)
		}
		return spec, nil
	default:
		return Spec{}, fmt.Errorf("need -spec, -scenario, or a -dir with a pinned spec")
	}
}

// paramFlags collects repeatable -param name=value pairs.
type paramFlags map[string]float64

func (p paramFlags) String() string { return fmt.Sprintf("%v", map[string]float64(p)) }

func (p paramFlags) Set(s string) error {
	name, val, ok := strings.Cut(s, "=")
	if !ok || name == "" {
		return fmt.Errorf("want name=value, got %q", s)
	}
	v, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return fmt.Errorf("bad value in %q: %v", s, err)
	}
	p[name] = v
	return nil
}
