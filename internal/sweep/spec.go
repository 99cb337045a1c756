// Package sweep is the distribution layer over the per-instance engines:
// it partitions large seeded instance families into deterministic shards,
// runs shards on worker goroutines, checkpoints per-shard results as
// append-only JSONL behind a Backend (a run directory, or the store of
// the internal/fabric coordinator that leases shards to processes), and
// merges completed shards into the exact tables of a serial run.
//
// The unit of work is an *instance index*, not a materialized graph: a
// Spec names a registered Scenario plus a base seed and a count, and
// instance idx derives its own rng from InstanceSeed(seed, idx). Because
// the derivation ignores shard boundaries, any shard count — and any
// kill/resume interleaving — reproduces bit-identical records, which the
// differential tests assert against the serial oracle.
package sweep

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"unicode"
)

// Spec is a sharded sweep specification: a seeded instance-family
// generator, not a materialized instance set.
type Spec struct {
	Scenario string             // registered scenario name
	Seed     int64              // base seed; instance idx uses InstanceSeed(Seed, idx)
	Count    int                // number of instances in the family
	Size     int                // base instance-size parameter (scenario-interpreted)
	Params   map[string]float64 // scenario-specific knobs (optional)
}

// Param returns the named parameter or def when absent.
func (s Spec) Param(name string, def float64) float64 {
	if v, ok := s.Params[name]; ok {
		return v
	}
	return def
}

// Validate checks the spec's shape (it does not resolve the scenario —
// ParseSpec must accept specs for scenarios the binary doesn't link).
func (s Spec) Validate() error {
	if s.Scenario == "" {
		return fmt.Errorf("sweep: spec has no scenario")
	}
	if strings.IndexFunc(s.Scenario, unicode.IsSpace) >= 0 {
		return fmt.Errorf("sweep: scenario name %q contains whitespace", s.Scenario)
	}
	if s.Count < 1 {
		return fmt.Errorf("sweep: count %d < 1", s.Count)
	}
	if s.Size < 0 {
		return fmt.Errorf("sweep: size %d < 0", s.Size)
	}
	for name, v := range s.Params {
		// Full unicode.IsSpace, matching the strings.Fields tokenizer in
		// ParseSpec: anything narrower lets Write emit a spec Parse then
		// splits differently and rejects.
		if name == "" || strings.IndexFunc(name, unicode.IsSpace) >= 0 {
			return fmt.Errorf("sweep: bad param name %q", name)
		}
		if v != v { // NaN params would break spec equality checks on resume
			return fmt.Errorf("sweep: param %q is NaN", name)
		}
	}
	return nil
}

// WriteSpec serializes a spec in the line-oriented format of the repo's
// other codecs (instancefile):
//
//	sweep <scenario>
//	seed <int64>
//	count <int>
//	size <int>
//	param <name> <float>      (sorted by name)
//
// Floats use the shortest round-tripping representation, so
// ParseSpec(WriteSpec(s)) == s exactly.
func WriteSpec(w io.Writer, s Spec) error {
	if err := s.Validate(); err != nil {
		return err
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "sweep %s\n", s.Scenario)
	fmt.Fprintf(&sb, "seed %d\n", s.Seed)
	fmt.Fprintf(&sb, "count %d\n", s.Count)
	fmt.Fprintf(&sb, "size %d\n", s.Size)
	names := make([]string, 0, len(s.Params))
	for name := range s.Params {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&sb, "param %s %s\n", name, strconv.FormatFloat(s.Params[name], 'g', -1, 64))
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// ParseSpec parses the WriteSpec format. Blank lines and '#' comments are
// ignored; repeated scalar directives take the last value; repeated param
// names are an error.
func ParseSpec(r io.Reader) (Spec, error) {
	var s Spec
	sawSweep, sawCount := false, false
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22) // 64 KiB initial, 4 MiB longest line
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "sweep":
			if len(fields) != 2 {
				return Spec{}, fmt.Errorf("sweep: line %d: want 'sweep <scenario>'", lineNo)
			}
			s.Scenario = fields[1]
			sawSweep = true
		case "seed":
			if len(fields) != 2 {
				return Spec{}, fmt.Errorf("sweep: line %d: want 'seed <int64>'", lineNo)
			}
			v, err := strconv.ParseInt(fields[1], 10, 64)
			if err != nil {
				return Spec{}, fmt.Errorf("sweep: line %d: bad seed %q", lineNo, fields[1])
			}
			s.Seed = v
		case "count":
			if len(fields) != 2 {
				return Spec{}, fmt.Errorf("sweep: line %d: want 'count <int>'", lineNo)
			}
			v, err := strconv.Atoi(fields[1])
			if err != nil || v < 1 {
				return Spec{}, fmt.Errorf("sweep: line %d: bad count %q", lineNo, fields[1])
			}
			s.Count = v
			sawCount = true
		case "size":
			if len(fields) != 2 {
				return Spec{}, fmt.Errorf("sweep: line %d: want 'size <int>'", lineNo)
			}
			v, err := strconv.Atoi(fields[1])
			if err != nil || v < 0 {
				return Spec{}, fmt.Errorf("sweep: line %d: bad size %q", lineNo, fields[1])
			}
			s.Size = v
		case "param":
			if len(fields) != 3 {
				return Spec{}, fmt.Errorf("sweep: line %d: want 'param <name> <value>'", lineNo)
			}
			v, err := strconv.ParseFloat(fields[2], 64)
			if err != nil {
				return Spec{}, fmt.Errorf("sweep: line %d: bad param value %q", lineNo, fields[2])
			}
			if s.Params == nil {
				s.Params = map[string]float64{}
			}
			if _, dup := s.Params[fields[1]]; dup {
				return Spec{}, fmt.Errorf("sweep: line %d: duplicate param %q", lineNo, fields[1])
			}
			s.Params[fields[1]] = v
		default:
			return Spec{}, fmt.Errorf("sweep: line %d: unknown directive %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return Spec{}, err
	}
	if !sawSweep {
		return Spec{}, fmt.Errorf("sweep: missing 'sweep' directive")
	}
	if !sawCount {
		return Spec{}, fmt.Errorf("sweep: missing 'count' directive")
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// Equal reports whether two specs describe the same sweep.
func (s Spec) Equal(o Spec) bool {
	if s.Scenario != o.Scenario || s.Seed != o.Seed || s.Count != o.Count || s.Size != o.Size {
		return false
	}
	if len(s.Params) != len(o.Params) {
		return false
	}
	for k, v := range s.Params {
		if ov, ok := o.Params[k]; !ok || ov != v {
			return false
		}
	}
	return true
}

// InstanceSeed derives instance idx's rng seed from the sweep's base seed
// via a SplitMix64 step: shard-independent, collision-scrambled and
// allocation-free, so any partition of [0, Count) regenerates identical
// instances.
func InstanceSeed(seed int64, idx int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(idx+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}
