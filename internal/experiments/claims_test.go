package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"bpart/internal/gen"
	"bpart/internal/metrics"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenPath pins every table's String() at testScale, in All() order,
// one blank line between tables.
var goldenPath = filepath.Join("testdata", "tables.golden")

// wallClock names, per experiment, the columns that hold host wall-clock
// readings; the golden masks their cells, and only their cells.
var wallClock = map[string][]string{
	"Table 2":    datasetNames(),
	"S5 Related": {"time (s)"},
}

type tableRun struct {
	tbl *Table
	err error
}

var (
	tablesOnce sync.Once
	tables     map[string]tableRun
)

// testTables runs every registered experiment once at testScale and
// shares the results between the golden pin and the claims.
func testTables(t *testing.T) map[string]tableRun {
	t.Helper()
	if testing.Short() {
		t.Skip("runs every experiment; skipped in -short mode")
	}
	tablesOnce.Do(func() {
		tables = map[string]tableRun{}
		for _, ex := range All() {
			tbl, err := ex.Run(Options{Scale: testScale})
			tables[ex.ID] = tableRun{tbl, err}
		}
	})
	return tables
}

// masked renders tbl with its wall-clock cells replaced by "~".
func masked(tbl *Table) string {
	cols := map[int]bool{}
	for i, h := range tbl.Header {
		for _, name := range wallClock[tbl.ID] {
			if h == name {
				cols[i] = true
			}
		}
	}
	m := *tbl
	m.Rows = nil
	for _, row := range tbl.Rows {
		r := append([]string(nil), row...)
		for i := range r {
			if cols[i] {
				r[i] = "~"
			}
		}
		m.Rows = append(m.Rows, r)
	}
	return m.String()
}

func subtestName(id string) string { return strings.ReplaceAll(id, " ", "_") }

// TestAllExperimentsTinyScale runs every registered experiment at a
// minuscule dataset scale and compares each rendered table, wall-clock
// cells masked, with testdata/tables.golden byte for byte. The golden is
// recorded before a refactor of the runners, never regenerated by one:
// `go test ./internal/experiments -run TestAllExperimentsTinyScale -update`.
func TestAllExperimentsTinyScale(t *testing.T) {
	runs := testTables(t)
	got := make([]string, len(All()))
	for i, ex := range All() {
		if r := runs[ex.ID]; r.err == nil {
			got[i] = masked(r.tbl)
		}
	}
	if *update {
		if err := os.WriteFile(goldenPath, []byte(strings.Join(got, "\n")), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	want := strings.Split(string(data), "\n\n")
	if len(want) != len(All()) {
		t.Fatalf("%s holds %d tables, All() has %d", goldenPath, len(want), len(All()))
	}
	for i, ex := range All() {
		i, ex := i, ex
		t.Run(subtestName(ex.ID), func(t *testing.T) {
			r := runs[ex.ID]
			if r.err != nil {
				t.Fatal(r.err)
			}
			if r.tbl.ID != ex.ID {
				t.Fatalf("table ID %q != experiment ID %q", r.tbl.ID, ex.ID)
			}
			if w := strings.TrimSuffix(want[i], "\n") + "\n"; got[i] != w {
				t.Errorf("table differs from %s (record it on the parent commit with -update):\n--- got ---\n%s--- want ---\n%s", goldenPath, got[i], w)
			}
		})
	}
}

// TestClaims checks one claim per registered experiment against the table
// TestAllExperimentsTinyScale pins. Each claim states the paper's shape as
// it holds at testScale; where the test-scale table departs from the
// paper or from the scale-1 run in EXPERIMENTS.md, the claim pins the
// departure and says so, so it cannot drift silently.
func TestClaims(t *testing.T) {
	runs := testTables(t)
	for id := range claims {
		if !slices.ContainsFunc(All(), func(ex Experiment) bool { return ex.ID == id }) {
			t.Errorf("claim for %q, which is not a registered experiment", id)
		}
	}
	for _, ex := range All() {
		ex := ex
		t.Run(subtestName(ex.ID), func(t *testing.T) {
			c, ok := claims[ex.ID]
			if !ok {
				t.Fatalf("experiment %q has no claim", ex.ID)
			}
			r := runs[ex.ID]
			if r.err != nil {
				t.Fatal(r.err)
			}
			c(t, r.tbl)
		})
	}
}

// claim checks one experiment's table.
type claim func(t *testing.T, tbl *Table)

// notAsserted marks the one experiment whose claim has no host-independent
// form yet; its subtest skips with the reason.
func notAsserted(reason string) claim {
	return func(t *testing.T, _ *Table) { t.Skip("not asserted at test scale: " + reason) }
}

// printTol is half a unit in the last place of a 4-decimal cell: a bound
// is met when the printed value meets it to within rounding.
const printTol = 5e-5

func atMost(v, bound float64) bool { return v <= bound || metrics.ApproxEq(v, bound, printTol) }

// num parses a numeric cell; a trailing % is dropped.
func num(t *testing.T, s string) float64 {
	t.Helper()
	x, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil {
		t.Fatalf("cell %q is not a number", s)
	}
	return x
}

func column(t *testing.T, tbl *Table, name string) int {
	t.Helper()
	i := slices.Index(tbl.Header, name)
	if i < 0 {
		t.Fatalf("%s has no column %q", tbl.ID, name)
	}
	return i
}

// cell returns the number in column col of the row whose leading cells
// are key.
func cell(t *testing.T, tbl *Table, col string, key ...string) float64 {
	t.Helper()
	c := column(t, tbl, col)
	for _, row := range tbl.Rows {
		if slices.Equal(row[:len(key)], key) {
			return num(t, row[c])
		}
	}
	t.Fatalf("%s has no row %q", tbl.ID, key)
	return 0
}

// rowsOf returns the rows whose first cell is first.
func rowsOf(tbl *Table, first string) [][]string {
	var out [][]string
	for _, row := range tbl.Rows {
		if row[0] == first {
			out = append(out, row)
		}
	}
	return out
}

func check(t *testing.T, ok bool, format string, args ...any) {
	t.Helper()
	if !ok {
		t.Errorf(format, args...)
	}
}

var claims = map[string]claim{
	// Paper: Chunk-V/Fennel balance vertices but the edge gap reaches 8×;
	// Chunk-E is the mirror image (13×). Here: the balanced dimension's
	// max/min ≤ 1.15 and the other's ≥ 3.
	"Fig 3": func(t *testing.T, tbl *Table) {
		for _, c := range []struct{ scheme, flat, skewed string }{
			{"Chunk-V", "|Vi|/|V|", "|Ei|/|E|"},
			{"Fennel", "|Vi|/|V|", "|Ei|/|E|"},
			{"Chunk-E", "|Ei|/|E|", "|Vi|/|V|"},
		} {
			flat, skewed := cell(t, tbl, "max/min", c.scheme, c.flat), cell(t, tbl, "max/min", c.scheme, c.skewed)
			check(t, flat <= 1.15 && skewed >= 3, "%s: %s max/min %.2f, %s %.2f; want ≤ 1.15 and ≥ 3", c.scheme, c.flat, flat, c.skewed, skewed)
		}
	},
	// Paper: Chunk-V and Fennel start balanced and drift apart as walkers
	// pile onto the hub machine; Chunk-E is imbalanced from iteration 0.
	"Fig 4": func(t *testing.T, tbl *Table) {
		for _, scheme := range []string{"Chunk-V", "Fennel"} {
			prev := 0.0
			for it, row := range rowsOf(tbl, scheme) {
				r := num(t, row[len(row)-1])
				check(t, r >= prev, "%s: max/mean falls at iteration %d (%.2f after %.2f)", scheme, it, r, prev)
				prev = r
			}
			first, last := cell(t, tbl, "max/mean", scheme, "0"), cell(t, tbl, "max/mean", scheme, "3")
			check(t, first <= 1.15 && last >= 2, "%s: max/mean %.2f → %.2f; want ≤ 1.15 at iteration 0, ≥ 2 at 3", scheme, first, last)
		}
		check(t, cell(t, tbl, "max/mean", "Chunk-E", "0") >= 1.5, "Chunk-E is not imbalanced at iteration 0")
		for it := 1; it < 4; it++ {
			check(t, cell(t, tbl, "max/mean", "Chunk-E", strconv.Itoa(it)) < cell(t, tbl, "max/mean", "Chunk-E", "0"),
				"Chunk-E's worst iteration is not iteration 0")
		}
	},
	// Paper: Chunk-E and Hash cut most edges and send the most walks.
	// Here: cut and message walks both order Hash > Chunk-E > Chunk-V >
	// Fennel, and Hash cuts (k−1)/k. The paper's > 2× Hash/Fennel traffic
	// is not reproduced (1.38 here, 1.77 at scale 1).
	"Fig 5": func(t *testing.T, tbl *Table) {
		order := []string{"Hash", "Chunk-E", "Chunk-V", "Fennel"}
		for _, col := range []string{"edge-cut ratio", "message walks"} {
			for i := 1; i < len(order); i++ {
				check(t, cell(t, tbl, col, order[i-1]) > cell(t, tbl, col, order[i]), "%s: %s not above %s", col, order[i-1], order[i])
			}
		}
		hash := cell(t, tbl, "edge-cut ratio", "Hash")
		check(t, metrics.ApproxEq(hash, 7.0/8, 0.005), "Hash cut %.4f, want (k−1)/k = 0.875 ± 0.005", hash)
	},
	// Paper: over 64 pieces the balanced dimension is flat and the other
	// extremely skewed.
	"Fig 6": func(t *testing.T, tbl *Table) {
		for _, c := range []struct{ scheme, flat, skewed string }{
			{"Chunk-V", "|Vi|/|V|", "|Ei|/|E|"},
			{"Chunk-E", "|Ei|/|E|", "|Vi|/|V|"},
		} {
			check(t, cell(t, tbl, "jain", c.scheme, c.flat) >= 0.99 && cell(t, tbl, "bias", c.scheme, c.flat) <= 0.05,
				"%s: %s not flat", c.scheme, c.flat)
			check(t, cell(t, tbl, "bias", c.scheme, c.skewed) >= 1, "%s: %s bias below 1", c.scheme, c.skewed)
		}
	},
	// Paper: the weighted policy's pieces are far less skewed than Fig 6's,
	// and |Vi| and |Ei| are inversely proportional. The skew holds at
	// testScale (every octile within 15% of 1/64); the correlation does not
	// (+0.157 at 0.02, −0.856 at 0.05, −0.629 at 0.1), so it is checked on
	// one extra run at scale 0.05.
	"Fig 8": func(t *testing.T, tbl *Table) {
		for _, row := range tbl.Rows {
			for _, c := range row[1:] {
				share := num(t, c) * 64
				check(t, share >= 0.85 && share <= 1.15, "octile %s: share %s is not within 15%% of 1/64", row[0], c)
			}
		}
		big, err := Fig8(Options{Scale: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		var r float64
		if _, err := fmt.Sscanf(big.Notes[0], "Pearson corr(|Vi|, |Ei|) across pieces = %f", &r); err != nil {
			t.Fatalf("note %q: %v", big.Notes[0], err)
		}
		check(t, r <= -0.5, "Pearson corr(|Vi|, |Ei|) at scale 0.05 = %.3f, want ≤ −0.5", r)
	},
	// Paper: BPart ≤ 0.1 in both dimensions for every graph and k; each
	// one-dimensional scheme hugs one axis.
	"Fig 10": func(t *testing.T, tbl *Table) {
		for _, row := range tbl.Rows {
			v, e := num(t, row[3]), num(t, row[4])
			switch row[1] {
			case "BPart":
				check(t, atMost(v, 0.1) && atMost(e, 0.1), "%v: BPart above 0.1", row)
			case "Chunk-V", "Fennel":
				check(t, atMost(v, 0.11) && e >= 0.75, "%v: not vertex-balanced and edge-skewed", row)
			case "Chunk-E":
				check(t, atMost(e, 0.11) && v >= 0.75, "%v: not edge-balanced and vertex-skewed", row)
			}
		}
	},
	// Paper: BPart's fairness stays ≈ 1 in both dimensions at every k; the
	// one-dimensional schemes' other dimension stays low, Chunk-V's falling
	// as k grows.
	"Fig 11": func(t *testing.T, tbl *Table) {
		prev := 1.0
		for _, row := range tbl.Rows {
			v, e := num(t, row[2]), num(t, row[3])
			switch row[0] {
			case "BPart":
				check(t, v >= 0.99 && e >= 0.99, "%v: BPart fairness below 0.99", row)
			case "Chunk-V":
				check(t, e < 0.9 && e < prev, "%v: Chunk-V edge fairness not below 0.9 and falling", row)
				prev = e
			case "Fennel":
				check(t, e < 0.9, "%v: Fennel edge fairness not below 0.9", row)
			case "Chunk-E":
				check(t, v < 0.9, "%v: Chunk-E vertex fairness not below 0.9", row)
			}
		}
	},
	// The stand-ins keep the paper's average degrees (within 1%) and real
	// Twitter's hub share, max degree = 0.2% of |E|.
	"Table 1": func(t *testing.T, tbl *Table) {
		paper := map[string]float64{"lj-sim": 30.0, "twitter-sim": 35.7, "friendster-sim": 54.9}
		for _, row := range tbl.Rows {
			avg := num(t, row[3])
			check(t, metrics.ApproxEq(avg/paper[row[0]], 1, 0.01), "%s: average degree %.2f, paper %.1f", row[0], avg, paper[row[0]])
			hub := num(t, row[4]) / num(t, row[2])
			check(t, metrics.ApproxEq(hub, 0.002, 1e-4), "%s: max degree is %.4f of |E|, want 0.002", row[0], hub)
		}
	},
	"Table 2": notAsserted("wall clock; proxy waits for ROADMAP item 9's work counters"),
	// Paper: the offline multilevel partitioner balances vertices (bias
	// 0.03) but not edges. Here: Multilevel vertex bias ≤ 0.05 and edge bias
	// ≥ 3× BPart's on every graph, BPart ≤ 0.1 in both. The paper's edge
	// bias of 2.6 is not reached (0.19–0.82 here).
	"S4.2 Mt-KaHIP": func(t *testing.T, tbl *Table) {
		for _, d := range datasetNames() {
			mv, me := cell(t, tbl, "vertex bias", d, "Multilevel"), cell(t, tbl, "edge bias", d, "Multilevel")
			bv, be := cell(t, tbl, "vertex bias", d, "BPart"), cell(t, tbl, "edge bias", d, "BPart")
			check(t, mv <= 0.05 && me >= 3*be, "%s: Multilevel biases %.4f/%.4f vs BPart edge %.4f", d, mv, me, be)
			check(t, atMost(bv, 0.1) && atMost(be, 0.1), "%s: BPart biases %.4f/%.4f above 0.1", d, bv, be)
		}
	},
	// Paper: any two of the 64 pieces share ≥ 50,000 of 3.6B arcs
	// (1.4×10⁻⁵ per arc); scaled by |E|, so must the stand-in.
	"S3.3 Connectivity": func(t *testing.T, tbl *Table) {
		g, err := dataset(gen.FriendsterSim, Options{Scale: testScale})
		if err != nil {
			t.Fatal(err)
		}
		minConn := cell(t, tbl, "arcs", "min pair connectivity")
		check(t, minConn >= 1.4e-5*float64(g.NumEdges()), "min pair connectivity %.0f of %d arcs is below the paper's 1.4e-5 per arc", minConn, g.NumEdges())
	},
	// Paper: ragged per-machine compute columns for the one-dimensional
	// schemes, level ones for BPart.
	"Fig 12": func(t *testing.T, tbl *Table) {
		for _, scheme := range compareSchemes {
			worst := 0.0
			for _, row := range rowsOf(tbl, scheme) {
				worst = max(worst, num(t, row[len(row)-1]))
			}
			if scheme == "BPart" {
				check(t, worst <= 1.1, "BPart max/mean reaches %.2f, want ≤ 1.1", worst)
			} else {
				check(t, worst >= 2, "%s max/mean never reaches 2 (%.2f)", scheme, worst)
			}
		}
	},
	// Paper: the one-dimensional schemes wait ≈ 45% with 4 machines and
	// ≈ 55% with 8; BPart 10–20%. Here: BPart waits least in every row and
	// ≤ 0.15, and every one-dimensional scheme waits more on 8 machines
	// than on 4.
	"Fig 13": func(t *testing.T, tbl *Table) {
		for _, d := range datasetNames() {
			for _, k := range []string{"4", "8"} {
				bp := cell(t, tbl, "BPart", d, k)
				check(t, bp <= 0.15, "%s k=%s: BPart waits %.3f", d, k, bp)
				for _, s := range oneDimSchemes {
					check(t, bp < cell(t, tbl, s, d, k), "%s k=%s: BPart does not wait less than %s", d, k, s)
				}
			}
			for _, s := range oneDimSchemes {
				check(t, cell(t, tbl, s, d, "8") > cell(t, tbl, s, d, "4"), "%s: %s does not wait more on 8 machines", d, s)
			}
		}
	},
	// Paper: BPart cuts running time against every scheme. Here BPart beats
	// Chunk-V and Fennel in 21/21 cells and Chunk-E in 20/21: lj-sim PR
	// (0.675 vs 0.637) is the pinned exception.
	"Fig 14": func(t *testing.T, tbl *Table) {
		for _, row := range tbl.Rows {
			bp := num(t, row[5])
			check(t, bp < num(t, row[2]) && bp < num(t, row[4]), "%v: BPart not below Chunk-V and Fennel", row)
			exception := row[0] == "lj-sim" && row[1] == "PR"
			check(t, (bp < num(t, row[3])) != exception, "%v: BPart vs Chunk-E departs from the pinned 20/21", row)
		}
	},
	// Paper: Hash cuts (k−1)/k and every other scheme cuts less. The
	// documented deviation (DESIGN.md) is pinned: BPart's cut is below
	// Fennel's on twitter-sim and friendster-sim, above it on lj-sim.
	"Table 3": func(t *testing.T, tbl *Table) {
		for _, d := range datasetNames() {
			hash := cell(t, tbl, d, "Hash")
			check(t, metrics.ApproxEq(hash, 7.0/8, 0.005), "%s: Hash cut %.4f, want 0.875 ± 0.005", d, hash)
			for _, s := range []string{"Chunk-V", "Chunk-E", "Fennel", "BPart"} {
				check(t, cell(t, tbl, d, s) < hash, "%s: %s does not cut less than Hash", d, s)
			}
			below := cell(t, tbl, d, "BPart") < cell(t, tbl, d, "Fennel")
			check(t, below == (d != "lj-sim"), "%s: BPart below Fennel = %v, departs from the documented deviation", d, below)
		}
	},
	// Paper: both are 2D-balanced, so BPart's fewer cuts make it faster
	// than Hash everywhere, with the larger gains on PR/CC.
	"Fig 15": func(t *testing.T, tbl *Table) {
		for _, d := range []string{"twitter-sim", "friendster-sim"} {
			slowestIter, fastestWalk := 0.0, 1.0
			for _, row := range rowsOf(tbl, d) {
				bp := num(t, row[3])
				check(t, bp < 1, "%v: BPart not below Hash", row)
				if row[1] == "PR" || row[1] == "CC" {
					slowestIter = max(slowestIter, bp)
				} else {
					fastestWalk = min(fastestWalk, bp)
				}
			}
			check(t, slowestIter < fastestWalk, "%s: PR/CC gain (%.3f) not larger than every walk app's (%.3f)", d, slowestIter, fastestWalk)
		}
	},
	// §5: GD is the other 2D-balanced scheme, LDG is one-dimensional like
	// the other streamers, Multilevel skews edges more than BPart. Spinner
	// balances degree mass only: its edge bias is ≤ 0.1 but its vertex bias
	// is 0.128 here, pinned above 0.1. Times are wall clock and unchecked.
	"S5 Related": func(t *testing.T, tbl *Table) {
		bias := func(s string) (float64, float64) {
			return cell(t, tbl, "vertex bias", s), cell(t, tbl, "edge bias", s)
		}
		for _, s := range []string{"GD", "BPart"} {
			v, e := bias(s)
			check(t, atMost(v, 0.1) && atMost(e, 0.1), "%s biases %.4f/%.4f above 0.1", s, v, e)
		}
		v, e := bias("LDG")
		check(t, atMost(v, 0.11) && e >= 1, "LDG biases %.4f/%.4f: not one-dimensional", v, e)
		v, e = bias("Spinner")
		check(t, v > 0.1 && atMost(e, 0.1), "Spinner biases %.4f/%.4f: want vertex > 0.1, edge ≤ 0.1", v, e)
		_, me := bias("Multilevel")
		_, be := bias("BPart")
		check(t, me > be, "Multilevel edge bias %.4f not above BPart's %.4f", me, be)
	},
	// Vertex-cut schemes: replication factor in [1, k] and at most k
	// replicas; random placement replicates most; edges stay balanced
	// (bias ≤ 0.15).
	"S5 Vertex-cut": func(t *testing.T, tbl *Table) {
		random := cell(t, tbl, "replication factor", "RandomEdge")
		for _, row := range tbl.Rows {
			rf := num(t, row[1])
			check(t, rf >= 1 && rf <= 8 && num(t, row[2]) <= 8, "%v: replication out of [1, k]", row)
			check(t, rf <= random, "%v: replicates more than RandomEdge", row)
			check(t, num(t, row[3]) <= 0.15, "%v: edge bias above 0.15", row)
		}
	},
	// c=½ balances both dimensions (≤ 0.1). At testScale the worst cut is
	// at c=0.75, not c=1 as at scale 1 (EXPERIMENTS.md); pinned.
	"Ablation C": func(t *testing.T, tbl *Table) {
		check(t, atMost(cell(t, tbl, "vertex bias", "0.50"), 0.1) && atMost(cell(t, tbl, "edge bias", "0.50"), 0.1), "c=0.5 is not 2D-balanced")
		worst := ""
		for _, row := range tbl.Rows {
			if worst == "" || num(t, row[3]) > cell(t, tbl, "cut ratio", worst) {
				worst = row[0]
			}
		}
		check(t, worst == "0.75", "worst cut at c=%s, pinned at 0.75", worst)
	},
	// Every over-split factor meets the balance target (≤ 0.1 in both), and
	// a larger factor never needs more layers.
	"Ablation Split": func(t *testing.T, tbl *Table) {
		prev := 1 << 30
		for _, row := range tbl.Rows {
			layers := int(num(t, row[1]))
			check(t, layers <= prev, "split %s uses more layers than a smaller split", row[0])
			prev = layers
			check(t, atMost(num(t, row[2]), 0.1) && atMost(num(t, row[3]), 0.1), "split %s: biases above 0.1", row[0])
		}
	},
	// Both biases stay within ε for every threshold. At testScale the
	// refine pass changes nothing: its on and off rows are identical for
	// every ε (pinned; its scale-1 gains in EXPERIMENTS.md are not
	// asserted).
	"Ablation Refine": func(t *testing.T, tbl *Table) {
		for i, row := range tbl.Rows {
			eps := num(t, row[0])
			check(t, atMost(num(t, row[2]), eps) && atMost(num(t, row[3]), eps), "%v: bias above ε", row)
			if i%2 == 1 {
				check(t, slices.Equal(row[2:], tbl.Rows[i-1][2:]), "ε=%s: refine on and off differ", row[0])
			}
		}
	},
	// IDs are degree-ranked, so ID order and degree-descending order stream
	// alike; a random order balances edges by accident.
	"Ablation Order": func(t *testing.T, tbl *Table) {
		check(t, slices.Equal(tbl.Rows[0][1:], tbl.Rows[2][1:]), "id and degree-desc orders differ")
		check(t, cell(t, tbl, "edge bias", "random") < cell(t, tbl, "edge bias", "id"), "random order does not balance edges better than id order")
	},
	// Uniform balance is optimal only for equal machines: every scheme
	// waits more when machine 0 runs at half speed.
	"Ablation Hetero": func(t *testing.T, tbl *Table) {
		for _, row := range tbl.Rows {
			check(t, num(t, row[2]) > num(t, row[1]), "%s does not wait more on the heterogeneous cluster", row[0])
		}
	},
	// Every fault run checkpoints, replays and costs time; a restream moves
	// vertices and a rollback none; BPart adds the least waiting under both
	// policies.
	"Fault Recovery": func(t *testing.T, tbl *Table) {
		for _, scheme := range compareSchemes {
			free := cell(t, tbl, "sim time (us)", scheme, "none")
			for _, policy := range []string{"rollback", "restream"} {
				key := []string{scheme, policy}
				check(t, cell(t, tbl, "sim time (us)", key...) > free, "%v: no slower than fault-free", key)
				check(t, cell(t, tbl, "ckpts", key...) > 0 && cell(t, tbl, "replayed", key...) > 0, "%v: no recovery work", key)
				moved := cell(t, tbl, "restreamed", key...)
				check(t, (moved > 0) == (policy == "restream"), "%v: restreamed %v vertices", key, moved)
				bp := cell(t, tbl, "added wait", "BPart", policy)
				check(t, scheme == "BPart" || bp < cell(t, tbl, "added wait", key...), "%v: BPart does not add the least wait", key)
			}
		}
	},
	// Message counts positive, imbalance ≥ 1, pair Jain in (0, 1]; BPart's
	// matrix is the flattest (lowest imbalance, highest pair Jain) in both
	// workloads.
	"Comm Matrix": func(t *testing.T, tbl *Table) {
		for _, row := range tbl.Rows {
			imb, jain := num(t, row[3]), num(t, row[4])
			check(t, num(t, row[2]) > 0 && imb >= 1 && jain > 0 && jain <= 1, "%v: metric out of range", row)
			if row[1] != "BPart" {
				check(t, cell(t, tbl, "imbalance", row[0], "BPart") < imb && cell(t, tbl, "pair-jain", row[0], "BPart") > jain,
					"%s: BPart not flatter than %s", row[0], row[1])
			}
		}
	},
}
