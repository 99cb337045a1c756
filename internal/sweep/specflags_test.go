package sweep

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestSpecFlagsPrecedence: a -spec file beats the scenario flags, which
// beat the spec pinned in the run directory.
func TestSpecFlagsPrecedence(t *testing.T) {
	parse := func(args ...string) (*SpecFlags, error) {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		var f SpecFlags
		f.Register(fs)
		return &f, fs.Parse(args)
	}
	dir := t.TempDir()
	if err := WriteRunSpec(dir, Spec{Scenario: "enforce", Seed: 3, Count: 4, Size: 5}); err != nil {
		t.Fatal(err)
	}
	file := filepath.Join(t.TempDir(), "s.sweep")
	if err := os.WriteFile(file, []byte("sweep pos-swap\nseed 9\ncount 2\nsize 6\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		args []string
		want string
		seed int64
	}{
		{[]string{"-spec", file, "-scenario", "enforce"}, "pos-swap", 9},
		{[]string{"-scenario", "pos-trees", "-seed", "7", "-param", "spread=3"}, "pos-trees", 7},
		{nil, "enforce", 3},
	}
	for _, c := range cases {
		f, err := parse(c.args...)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := f.Resolve(dir)
		if err != nil || spec.Scenario != c.want || spec.Seed != c.seed {
			t.Errorf("%v: got %+v, %v; want scenario %s seed %d", c.args, spec, err, c.want, c.seed)
		}
	}
}
