package core

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"bpart/internal/gen"
	"bpart/internal/partition"
)

var update = flag.Bool("update", false, "rewrite golden files")

const sweepGolden = "testdata/sweep.golden"

// TestSweepPinned pins BPart's assignment bytes across the presets: one
// line per (dataset, scale, k) cell with the layer numbers BPart streamed
// and the hashParts of BPart with refine on, BPart with refine off, Fennel
// and LDG. The grid reaches the cells where the layer jump fires and moves
// bytes (twitter-sim 0.05 k=32, for one), which the twitterish pins never
// see. A refactor keeps every line; rewrite the golden with
// `go test ./internal/core -run TestSweepPinned -update` only for a change
// that means to move placements, and name the cells it moves.
func TestSweepPinned(t *testing.T) {
	refineOn := defaultBPart(t)
	refineOff, err := New(Config{DisableRefine: true})
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, d := range gen.Datasets() {
		for _, scale := range []float64{0.02, 0.05} {
			g, err := gen.Preset(d, scale)
			if err != nil {
				t.Fatal(err)
			}
			for k := 4; k <= 256; k *= 2 {
				cell := fmt.Sprintf("%s %.2f k=%d", d, scale, k)
				on, tr, err := refineOn.PartitionWithTrace(g, k)
				if err != nil {
					t.Fatalf("%s: %v", cell, err)
				}
				layers := make([]string, len(tr.Layers))
				for i, l := range tr.Layers {
					layers[i] = strconv.Itoa(l.Layer)
				}
				line := []string{cell, "layers=" + strings.Join(layers, ","), "bpart=" + hashParts(on.Parts)}
				for _, p := range []struct {
					name string
					p    partition.Partitioner
				}{
					{"refine_off", refineOff},
					{"fennel", partition.Fennel{}},
					{"ldg", partition.LDG{}},
				} {
					a, err := p.p.Partition(g, k)
					if err != nil {
						t.Fatalf("%s %s: %v", cell, p.name, err)
					}
					line = append(line, p.name+"="+hashParts(a.Parts))
				}
				lines = append(lines, strings.Join(line, " "))
			}
		}
	}
	got := strings.Join(lines, "\n") + "\n"
	if *update {
		if err := os.WriteFile(sweepGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(sweepGolden)
	if err != nil {
		t.Fatalf("%v (record it on the parent commit with -update)", err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantLines) != len(lines) {
		t.Fatalf("%d sweep cells, golden has %d", len(lines), len(wantLines))
	}
	for i := range lines {
		if lines[i] != wantLines[i] {
			t.Errorf("cell %d differs from %s:\n got %s\nwant %s", i, sweepGolden, lines[i], wantLines[i])
		}
	}
}
