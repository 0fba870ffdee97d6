package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bpart/internal/gio"
)

// A flag of the mode not selected is a usage error naming it, raised
// before the output file is created.
func TestMixedModeIsUsageError(t *testing.T) {
	for _, tc := range []struct {
		args  []string
		named []string
	}{
		{[]string{"-dataset", "twitter-sim", "-scale", "0.01", "-n", "50", "-degree", "3"}, []string{"-n", "-degree"}},
		{[]string{"-dataset", "lj-sim", "-skew", "0.5", "-locality", "0.1", "-community", "0.2", "-seed", "3"},
			[]string{"-skew", "-locality", "-community", "-seed"}},
		{[]string{"-n", "50", "-scale", "0.01"}, []string{"-scale"}},
	} {
		t.Run(strings.Join(tc.args, "_"), func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "g.el")
			var stdout, stderr bytes.Buffer
			if code := run(append(tc.args, "-o", out), &stdout, &stderr); code != 2 {
				t.Fatalf("exit %d, want 2; stderr %q", code, stderr.String())
			}
			for _, name := range tc.named {
				if !strings.Contains(stderr.String(), name) {
					t.Errorf("diagnostic does not name %s: %q", name, stderr.String())
				}
			}
			if _, err := os.Stat(out); !os.IsNotExist(err) {
				t.Fatalf("a refused run wrote %s (%v)", out, err)
			}
		})
	}
}

// A custom graph is written and reads back with the size it was asked for.
func TestWriteCustomGraph(t *testing.T) {
	out := filepath.Join(t.TempDir(), "g.el")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-n", "50", "-degree", "3", "-seed", "2", "-o", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	g, err := gio.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() > 50 || g.NumEdges() == 0 {
		t.Fatalf("read back %v", g)
	}
	if !strings.Contains(stdout.String(), "wrote") {
		t.Fatalf("stdout %q", stdout.String())
	}
}
