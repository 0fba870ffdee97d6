package walk

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"bpart/internal/fault"
	"bpart/internal/gen"
	"bpart/internal/partition"
)

var update = flag.Bool("update", false, "rewrite golden files")

const walksGolden = "testdata/walks.golden"

// digest is the SHA-256 of a little-endian uint32 stream.
func digest(words func(put func(uint32))) string {
	h := sha256.New()
	var buf [4]byte
	words(func(x uint32) {
		binary.LittleEndian.PutUint32(buf[:], x)
		h.Write(buf[:])
	})
	return hex.EncodeToString(h.Sum(nil))
}

// goldenLine renders one run as a golden row: the counters in the clear,
// and the path corpus (in Result order, each path length-prefixed), the
// visit counts and the traffic matrix as digests.
func goldenLine(name string, r *Result) string {
	paths := digest(func(put func(uint32)) {
		for _, p := range r.Paths {
			put(uint32(len(p)))
			for _, v := range p {
				put(v)
			}
		}
	})
	visits := digest(func(put func(uint32)) {
		for _, c := range r.Visits {
			put(uint32(c))
		}
	})
	traffic := digest(func(put func(uint32)) {
		for _, row := range r.Traffic {
			for _, c := range row {
				put(uint32(c))
			}
		}
	})
	return fmt.Sprintf("%s steps=%d message_walks=%d paths=%d paths_sha256=%s visits_sha256=%s traffic_sha256=%s",
		name, r.TotalSteps, r.MessageWalks, len(r.Paths), paths, visits, traffic)
}

// TestWalkOutputPinned pins every kind's walk output byte for byte at a
// fixed seed and pool widths 1 and 2, with paths collected: the path
// corpus in Result order, visits, traffic, TotalSteps and MessageWalks.
// Three more rows run DeepWalk, PPR and node2vec under a rollback and a
// restream schedule. A refactor keeps every row; rewrite the golden with
// `go test ./internal/walk -run TestWalkOutputPinned -update` only for a
// change that means to move walks, and say so.
func TestWalkOutputPinned(t *testing.T) {
	const k = 4
	g, err := gen.ChungLu(gen.Config{NumVertices: 400, AvgDegree: 6, Skew: 0.6, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	a, err := (partition.ChunkV{}).Partition(g, k)
	if err != nil {
		t.Fatal(err)
	}
	restream, err := fault.ReadSpecFile("../fault/testdata/crash5_restream.json")
	if err != nil {
		t.Fatal(err)
	}
	rollback := &fault.Spec{CheckpointEvery: 2, Events: []fault.Event{{Kind: fault.Crash, Step: 3, Machine: 1}}}
	type row struct {
		name string
		kind Kind
		spec *fault.Spec
	}
	var rows []row
	for _, kind := range []Kind{Simple, PPR, RWJ, RWD, DeepWalk, Node2Vec, BiasedWalk} {
		rows = append(rows, row{kind.String(), kind, nil})
	}
	rows = append(rows,
		row{"DeepWalk/rollback", DeepWalk, rollback},
		row{"PPR/rollback", PPR, rollback},
		row{"node2vec/restream", Node2Vec, restream.ForMachines(k)})

	var lines []string
	for _, r := range rows {
		cfg := Config{Kind: r.kind, WalkersPerVertex: 2, Seed: 11, TrackVisits: true, CollectPaths: true}
		var first string
		for _, w := range []int{1, 2} {
			var spec *fault.Spec
			if r.spec != nil {
				spec = r.spec.Clone()
			}
			res, err := gridEngine(t, g, a.Parts, k, w, true, spec).Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if r.spec != nil && (res.Recovery == nil || res.Recovery.Crashes != 1) {
				t.Fatalf("%s: schedule did not fire: %+v", r.name, res.Recovery)
			}
			line := goldenLine(r.name, res)
			if w == 1 {
				first = line
				lines = append(lines, line)
			} else if line != first {
				t.Errorf("workers=%d:\n got %s\nwant %s", w, line, first)
			}
		}
	}
	got := strings.Join(lines, "\n") + "\n"
	if *update {
		if err := os.WriteFile(walksGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(walksGolden)
	if err != nil {
		t.Fatalf("%v (record it on the parent commit with -update)", err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantLines) != len(lines) {
		t.Fatalf("%d golden rows, want %d", len(lines), len(wantLines))
	}
	for i := range lines {
		if lines[i] != wantLines[i] {
			t.Errorf("row %d differs from %s:\n got %s\nwant %s", i, walksGolden, lines[i], wantLines[i])
		}
	}
}
