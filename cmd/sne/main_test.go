package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeInstance(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "cycle.txt")
	// A 7-node unit cycle rooted at 0 with the path tree as target.
	content := "nodes 7\n"
	for i := 0; i < 6; i++ {
		content += "edge " + string(rune('0'+i)) + " " + string(rune('0'+i+1)) + " 1\n"
	}
	content += "edge 6 0 1\nroot 0\ntree 0 1 2 3 4 5\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunAllMethods(t *testing.T) {
	path := writeInstance(t)
	for _, method := range []string{"lp", "theorem6", "aon", "greedy", "full"} {
		if err := run(path, method, true); err != nil {
			t.Errorf("method %s: %v", method, err)
		}
	}
}

func TestRunErrors(t *testing.T) {
	if err := run("/nonexistent/file", "lp", false); err == nil {
		t.Error("missing file accepted")
	}
	path := writeInstance(t)
	if err := run(path, "frobnicate", false); err == nil {
		t.Error("unknown method accepted")
	}
	// Malformed instance.
	bad := filepath.Join(t.TempDir(), "bad.txt")
	if err := os.WriteFile(bad, []byte("nodes -3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(bad, "lp", false); err == nil {
		t.Error("malformed instance accepted")
	}
	// A node count no edge list spans is refused before the graph is
	// allocated.
	huge := filepath.Join(t.TempDir(), "huge.txt")
	if err := os.WriteFile(huge, []byte("nodes 1000000000\nroot 0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(huge, "lp", false); err == nil || !strings.Contains(err.Error(), "cannot be spanned") {
		t.Errorf("huge node count: err = %v, want a 'cannot be spanned' refusal", err)
	}
}
