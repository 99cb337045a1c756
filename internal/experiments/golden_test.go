package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the testdata golden files")

// goldenIDs is the deterministic registry subset pinned by golden files:
// experiments whose quick-mode tables depend only on the seed (no
// wall-clock), so a byte diff means a real formatting or computation
// regression. E9/E20/E21 also pin the sweep-scenario output shape end to
// end; E1 and E11 pin the sparse revised-simplex LP rebase byte for byte
// (E1 reports deterministic pivot counts in place of its old wall-clock
// columns exactly so it can live here); E14 pins the α-approximate LP (3)
// rows and the α-equilibrium check.
var goldenIDs = []string{"E1", "E2", "E5b", "E6", "E8", "E9", "E11", "E14", "E20", "E21", "E22"}

// TestGoldenTables renders each pinned experiment at a fixed quick-mode
// config and compares byte-for-byte against testdata/<ID>.golden.
// Regenerate with:
//
//	go test ./internal/experiments -run TestGoldenTables -update
func TestGoldenTables(t *testing.T) {
	cfg := Config{Seed: 1, Quick: true}
	for _, id := range goldenIDs {
		id := id
		t.Run(id, func(t *testing.T) {
			e, ok := Get(id)
			if !ok {
				t.Fatalf("experiment %s not registered", id)
			}
			tb, err := e.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			tb.Render(&buf)
			path := filepath.Join("testdata", id+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update to create): %v", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("%s output differs from golden %s:\n--- got ---\n%s--- want ---\n%s",
					id, path, buf.Bytes(), want)
			}
		})
	}
}

// TestGoldenTablesStable guards the guard: a second render must be
// byte-identical to the first, or the goldens themselves would flake.
func TestGoldenTablesStable(t *testing.T) {
	cfg := Config{Seed: 1, Quick: true}
	for _, id := range goldenIDs {
		e, _ := Get(id)
		a, err := e.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := e.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var ba, bb bytes.Buffer
		a.Render(&ba)
		b.Render(&bb)
		if !bytes.Equal(ba.Bytes(), bb.Bytes()) {
			t.Errorf("%s renders nondeterministically", id)
		}
	}
}
