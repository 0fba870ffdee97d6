package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"bpart/internal/gen"
	_ "bpart/internal/multilevel" // registers "Multilevel" with partition.Get
	"bpart/internal/partition"
	"bpart/internal/vcut"
)

// pinnedAssignments holds SHA-256 of each scheme's assignment (parts as
// little-endian uint32, in vertex order) on twitterish(), recorded from the
// commit before partition.Stream's candidate loop, LDG's tally and rebalance
// were rewritten (PR 23). A changed hash is a changed placement.
var pinnedAssignments = map[string]string{
	"BPart/k=2":    "196af221c98fb332ee7697e7829895b4a5301584cdb0645c0161715992e0235e",
	"BPart/k=8":    "10babebc6e5c4216dbb88779055078d69f87237d04b180caea6f4fa8e841d8ce",
	"BPart/k=128":  "5be5e8f802d401b225c62f2601e907897f9f76e3352b0d585c39d4aadc0dcecf",
	"BPart/k=512":  "fbf92069ff304c0642b690715ec5d66f1680352f0f80f61a0e55713cad0c66dc",
	"Fennel/k=2":   "d3a60274225a04d428b91ae1a8f01ef9518d47d3f58435d33c9980887d2ce8a9",
	"Fennel/k=8":   "e16fb89b73edfb3b2b3e8d8dd8c30f55da22f3f9467a43f1092b809d3372c8ff",
	"Fennel/k=128": "c0dddcf4c5930fadab4e2d0b6f04959396e1c01edb25b54c1823a262701efc05",
	"Fennel/k=512": "1189484098d7a5f99f0e648c6d14cc9efd78bd3bb9d00d480491a7851f7dd019",
	"LDG/k=2":      "a8a1f972dd2775e28975b66c1d593dad8531df6066249c1e688ecf0952652078",
	"LDG/k=8":      "fbd0f6db96562eddab23550f001334784628a9f1f43e7f269e07fe7b717ecb02",
	"LDG/k=128":    "ef6d25e8781ea3a6edb85432365d540a74ab96115e55478fe8e3907b40ecfdf5",
	"LDG/k=512":    "169844bc9d0d4b9bba95b197ec80e3619bfdc78aa8de1afebbe854a1a7509ddf",
	// The baselines below run on the smaller graph of the test's second
	// half, recorded from the commit before their tuning fields became
	// constants. HDRF's entry hashes its edge assignment, one part per arc
	// in CSR order.
	"GD/k=2":         "3bea531baa582670bfff9580aef5382bb5154d28b1f5663b7d9a95c3fe7a69c7",
	"GD/k=8":         "2131b5c0851cd048a986021ba9af113c08a3d51b974de5e93d5f82314118d028",
	"Spinner/k=2":    "827db14f4f3114aad52122d9979fd9a5507e9fe3e1371e1594daeb3e0ff63265",
	"Spinner/k=8":    "4ec8b3c8e7732c4e039e0a7a105caf2cebf04a846092838e515d67c4969d6364",
	"Multilevel/k=2": "59aa228f64ebb9c18f1954e95b3349c9ec5d2a6961f14d3884a502141fd882b6",
	"Multilevel/k=8": "a985c2d357502483befadc6f913971b3c9dfc078c76875c7213ad8d76a0552ca",
	"HDRF/k=2":       "f859374d11cc600e4476b26d9dd6ab47116c3dde92395ec63f30529e18a259f4",
	"HDRF/k=8":       "a27f59a8c984224b65d513b5e5ca63079ec7ebdaa07f335411d8d21093c7f442",
	// rebalance alone on twitterish from two adversarial starts, recorded
	// from the commit before its shed and pull phases became one pass: the
	// shed start puts 30% of the vertices in part 0, the pull start leaves
	// the first k/8 parts at 0.6 of the mean. Hundreds to thousands of moves,
	// each through the peer sort, pin its tie order.
	"rebalance/shed/k=16":  "859471dfcf8a2a0ed160001f24bd5cdb2d1fc4d1341d0df5f512188abe3d9f61",
	"rebalance/shed/k=128": "72077b5def4313d4e237ab42d15dae77f4d67627d772eb46a9ab0b7681cba0aa",
	"rebalance/pull/k=16":  "720ff35e5114297723ccc01bd5b7eb6ce07f2167fd47d4a748b0d154202b7eec",
	"rebalance/pull/k=128": "6692d527e794870bdd089b5903ad58a2f80b3fdfafd346ebc8d8becc69c59fdc",
}

// hashParts is the SHA-256 of parts as little-endian uint32s, in order.
func hashParts(parts []int) string {
	h := sha256.New()
	var buf [4]byte
	for _, part := range parts {
		binary.LittleEndian.PutUint32(buf[:], uint32(part))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestAssignmentBytesPinned(t *testing.T) {
	check := func(name string, parts []int) {
		t.Helper()
		if got, want := hashParts(parts), pinnedAssignments[name]; got != want {
			t.Errorf("%s: assignment hash %s, pinned %s", name, got, want)
		}
	}
	g := twitterish(t)
	for _, p := range []partition.Partitioner{defaultBPart(t), partition.Fennel{}, partition.LDG{}} {
		for _, k := range []int{2, 8, 128, 512} {
			name := fmt.Sprintf("%s/k=%d", p.Name(), k)
			a, err := p.Partition(g, k)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			check(name, a.Parts)
		}
	}
	for _, k := range []int{16, 128} {
		n := g.NumVertices()
		for _, start := range []struct {
			name  string
			parts []int
			moves func(refineMoves) int // the phase the start exercises
		}{
			{"shed", skewedAssignment(n, k, 0.3), func(m refineMoves) int { return m.Shed }},
			{"pull", deficitAssignment(n, k), func(m refineMoves) int { return m.Pulled }},
		} {
			name := fmt.Sprintf("rebalance/%s/k=%d", start.name, k)
			if moves := start.moves(rebalance(g, start.parts, k, 0.1)); moves < 100 {
				t.Errorf("%s: %d moves in its phase, want ≥ 100", name, moves)
			}
			check(name, start.parts)
		}
	}

	// The slower baselines are pinned on a graph small enough that all
	// eight runs together take well under a second.
	small, err := gen.ChungLu(gen.Config{
		NumVertices: 2000, AvgDegree: 8, Skew: 0.75, Locality: 0.4, Window: 128, Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range []string{"GD", "Spinner", "Multilevel"} {
		p, err := partition.Get(scheme)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{2, 8} {
			name := fmt.Sprintf("%s/k=%d", scheme, k)
			a, err := p.Partition(small, k)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			check(name, a.Parts)
		}
	}
	for _, k := range []int{2, 8} {
		name := fmt.Sprintf("HDRF/k=%d", k)
		a, err := vcut.HDRF{}.Partition(small, k)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		check(name, a.Parts)
	}
}
