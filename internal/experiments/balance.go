package experiments

import (
	"fmt"
	"math"
	"sort"

	"bpart/internal/core"
	"bpart/internal/gen"
	"bpart/internal/graph"
	"bpart/internal/metrics"
	_ "bpart/internal/multilevel" // registers "Multilevel" with partition.Get
	"bpart/internal/partition"
	"bpart/internal/telemetry"
	"bpart/internal/vcut"
)

// Table1 reports the statistics of the synthetic stand-in datasets, the
// analogue of the paper's Table 1 (graph sizes and average degrees).
func Table1(opt Options) (*Table, error) {
	t := &Table{
		ID:     "Table 1",
		Title:  "Statistics of the (synthetic) graph datasets",
		Header: []string{"graph", "|V|", "|E|", "avg deg", "max deg", "degree gini"},
		Notes: []string{
			"synthetic stand-ins: paper used LiveJournal 7.5M/225M, Twitter 41.39M/1.48B, Friendster 65.6M/3.6B",
		},
	}
	for _, d := range gen.Datasets() {
		g, err := dataset(d, opt)
		if err != nil {
			return nil, err
		}
		s := graph.ComputeStats(g)
		t.AddRow(string(d), d0(s.NumVertices), d0(s.NumEdges), f2(s.AvgDegree), d0(s.MaxDegree), f3(s.GiniDegree))
	}
	return t, nil
}

// Fig3 reproduces Figure 3: the per-subgraph vertex and edge shares when
// partitioning twitter-sim into four subgraphs with the one-dimensional
// schemes. Expected shape: Chunk-V/Fennel have even V rows but wildly
// uneven E rows (the paper reports an up-to-8× edge gap); Chunk-E is the
// reverse (13× vertex gap).
func Fig3(opt Options) (*Table, error) {
	const k = 4
	t := &Table{
		ID:     "Fig 3",
		Title:  "Vertex/edge shares of subgraphs G0–G3 (twitter-sim, k=4)",
		Header: []string{"scheme", "series", "G0", "G1", "G2", "G3", "max/min"},
	}
	for _, scheme := range oneDimSchemes {
		r, err := report(gen.TwitterSim, opt, scheme, k)
		if err != nil {
			return nil, err
		}
		vr := metrics.RatioSeries(r.Vertices)
		er := metrics.RatioSeries(r.Edges)
		t.AddRow(scheme, "|Vi|/|V|", f3(vr[0]), f3(vr[1]), f3(vr[2]), f3(vr[3]), f2(metrics.Spread(r.Vertices)))
		t.AddRow(scheme, "|Ei|/|E|", f3(er[0]), f3(er[1]), f3(er[2]), f3(er[3]), f2(metrics.Spread(r.Edges)))
	}
	return t, nil
}

// Fig6 reproduces Figure 6: the distribution of |Vi| and |Ei| over 64
// small subgraphs under Chunk-V and Chunk-E. The balanced dimension is
// flat; the other is heavily skewed.
func Fig6(opt Options) (*Table, error) {
	const k = 64
	t := &Table{
		ID:     "Fig 6",
		Title:  "Distribution of |Vi| and |Ei| over 64 subgraphs (twitter-sim)",
		Header: []string{"scheme", "series", "min ratio", "median", "max ratio", "bias", "jain"},
	}
	for _, scheme := range []string{"Chunk-V", "Chunk-E"} {
		r, err := report(gen.TwitterSim, opt, scheme, k)
		if err != nil {
			return nil, err
		}
		minR, medR, maxR := summarizeRatios(r.Vertices)
		t.AddRow(scheme, "|Vi|/|V|", f4(minR), f4(medR), f4(maxR), f3(r.VertexBias), f3(r.VertexJain))
		minR, medR, maxR = summarizeRatios(r.Edges)
		t.AddRow(scheme, "|Ei|/|E|", f4(minR), f4(medR), f4(maxR), f3(r.EdgeBias), f3(r.EdgeJain))
	}
	return t, nil
}

// Fig8 reproduces Figure 8: 64 pieces produced by the weighted streaming
// policy (c=½). Sorted by |Vi|, the vertex shares ramp up while the edge
// shares ramp down — the inverse proportionality the combining phase
// exploits — and both skews are far below Fig 6's.
func Fig8(opt Options) (*Table, error) {
	const k = 64
	t := &Table{
		ID:     "Fig 8",
		Title:  "|Vi| and |Ei| shares with the weighted policy, pieces sorted by |Vi| (twitter-sim, 64 pieces)",
		Header: []string{"piece octile", "|Vi|/|V|", "|Ei|/|E|"},
	}
	g, err := dataset(gen.TwitterSim, opt)
	if err != nil {
		return nil, err
	}
	res, err := partition.Stream(g, partition.StreamOptions{K: k, C: 0.5, In: g.In()})
	if err != nil {
		return nil, err
	}
	type piece struct{ v, e int }
	pieces := make([]piece, k)
	for i := 0; i < k; i++ {
		pieces[i] = piece{res.VertexCount[i], res.EdgeCount[i]}
	}
	sort.Slice(pieces, func(i, j int) bool { return pieces[i].v < pieces[j].v })
	n, m := float64(g.NumVertices()), float64(g.NumEdges())
	// Report octile means of the sorted series — the ramp of the figure.
	const buckets = 8
	for b := 0; b < buckets; b++ {
		lo, hi := b*k/buckets, (b+1)*k/buckets
		var sv, se float64
		for i := lo; i < hi; i++ {
			sv += float64(pieces[i].v)
			se += float64(pieces[i].e)
		}
		cnt := float64(hi - lo)
		t.AddRow(fmt.Sprintf("%d-%d", lo, hi-1), f4(sv/cnt/n), f4(se/cnt/m))
	}
	// Inverse-proportionality statistic: Pearson correlation of piece
	// |V_i| against |E_i| (the paper's Fig 8 shows the two series as
	// mirror images, i.e. strongly negative correlation). The pieces hold
	// every vertex and arc, so the means are |V|/k and |E|/k.
	mv, me := n/k, m/k
	var cov, varV, varE float64
	for _, p := range pieces {
		dv, de := float64(p.v)-mv, float64(p.e)-me
		cov += dv * de
		varV += dv * dv
		varE += de * de
	}
	r := 0.0
	if varV > 0 && varE > 0 {
		r = cov / (math.Sqrt(varV) * math.Sqrt(varE))
	}
	t.Notes = append(t.Notes, fmt.Sprintf("Pearson corr(|Vi|, |Ei|) across pieces = %.3f (negative ⇒ inversely proportional)", r))
	return t, nil
}

// Fig10 reproduces Figure 10: vertex bias vs edge bias for every scheme,
// dataset and subgraph count. BPart must sit near the origin in both
// dimensions; each one-dimensional scheme hugs one axis.
func Fig10(opt Options) (*Table, error) {
	t := &Table{
		ID:     "Fig 10",
		Title:  "Balanced degree (bias metric) in both dimensions",
		Header: []string{"graph", "scheme", "k", "vertex bias", "edge bias"},
	}
	for _, d := range gen.Datasets() {
		for _, scheme := range compareSchemes {
			for _, k := range []int{4, 8, 16} {
				r, err := report(d, opt, scheme, k)
				if err != nil {
					return nil, err
				}
				t.AddRow(string(d), scheme, d0(k), f4(r.VertexBias), f4(r.EdgeBias))
			}
		}
	}
	return t, nil
}

// Fig11 reproduces Figure 11: Jain's fairness index of both dimensions for
// 8–128 subgraphs on twitter-sim. BPart stays ≈1 in both dimensions at
// every scale.
func Fig11(opt Options) (*Table, error) {
	t := &Table{
		ID:     "Fig 11",
		Title:  "Jain's fairness when partitioning into many subgraphs (twitter-sim)",
		Header: []string{"scheme", "k", "vertex fairness", "edge fairness"},
	}
	for _, scheme := range compareSchemes {
		for _, k := range []int{8, 16, 32, 64, 128} {
			r, err := report(gen.TwitterSim, opt, scheme, k)
			if err != nil {
				return nil, err
			}
			t.AddRow(scheme, d0(k), f4(r.VertexJain), f4(r.EdgeJain))
		}
	}
	return t, nil
}

// Table2 reproduces Table 2: wall-clock partition time for every scheme on
// every dataset (k=8). Expected ordering: Chunk-V ≈ Chunk-E < Hash <
// Fennel < BPart, with Multilevel (the Mt-KaHIP stand-in) slowest.
func Table2(opt Options) (*Table, error) {
	const k = 8
	t := &Table{
		ID:     "Table 2",
		Title:  "Time overhead (s) of partition algorithms (k=8)",
		Header: append([]string{"scheme"}, datasetNames()...),
		Notes: []string{"wall-clock, machine-dependent; orderings are what the paper's Table 2 reports",
			reverseNote},
	}
	schemes := append(append([]string{}, allSchemes...), "Multilevel")
	for _, scheme := range schemes {
		row := []string{scheme}
		for _, d := range gen.Datasets() {
			_, secs, err := timedPartition(d, opt, scheme, k)
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%.4f", secs))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// reverseNote is the note of every table that times partitioners. Most of
// them read the graph's reverse (graph.Graph.In), which a graph builds once
// and keeps; the tables build it before any stopwatch starts, so no time
// depends on which scheme happened to touch the graph first.
const reverseNote = "times exclude the once-per-graph reverse adjacency (graph.Graph.In); " +
	"its cost is the wall-clock benchmark's graph.transpose_ns_per_edge"

// timedPartition is the harness's one partition stopwatch: it runs scheme
// afresh on d's memoized graph (bypassing the assignment memo) and returns
// the parts and the wall seconds the call took. The graph's reverse is
// built before the stopwatch starts (see reverseNote).
func timedPartition(d gen.Dataset, opt Options, scheme string, k int) ([]int, float64, error) {
	g, err := dataset(d, opt)
	if err != nil {
		return nil, 0, err
	}
	g.In()
	p, err := partition.Get(scheme)
	if err != nil {
		return nil, 0, err
	}
	sw := telemetry.NewStopwatch()
	a, err := p.Partition(g, k)
	if err != nil {
		return nil, 0, err
	}
	return a.Parts, sw.Seconds(), nil
}

func datasetNames() []string {
	var out []string
	for _, d := range gen.Datasets() {
		out = append(out, string(d))
	}
	return out
}

// Table3 reproduces Table 3: the edge-cut ratio of every scheme on every
// dataset at k=8. Expected ordering: Fennel < BPart < Chunk-V < Hash ≈
// Chunk-E, with Hash pinned at (k−1)/k ≈ 0.875.
func Table3(opt Options) (*Table, error) {
	const k = 8
	t := &Table{
		ID:     "Table 3",
		Title:  "Edge-cut ratio of partition algorithms (k=8)",
		Header: append([]string{"scheme"}, datasetNames()...),
	}
	for _, scheme := range allSchemes {
		row := []string{scheme}
		for _, d := range gen.Datasets() {
			r, err := report(d, opt, scheme, k)
			if err != nil {
				return nil, err
			}
			row = append(row, f4(r.CutRatio))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// MtKaHIP reproduces the §4.2 comparison against the offline multilevel
// partitioner: vertex bias tiny (paper: 0.03 on all graphs), edge bias
// large (paper: 2.59 / 2.56 / 0.70), while BPart keeps both below ~0.1.
func MtKaHIP(opt Options) (*Table, error) {
	const k = 8
	t := &Table{
		ID:     "S4.2 Mt-KaHIP",
		Title:  "Offline multilevel partitioning vs BPart (k=8)",
		Header: []string{"graph", "scheme", "vertex bias", "edge bias", "cut ratio"},
	}
	for _, d := range gen.Datasets() {
		for _, scheme := range []string{"Multilevel", "BPart"} {
			r, err := report(d, opt, scheme, k)
			if err != nil {
				return nil, err
			}
			t.AddRow(string(d), scheme, f4(r.VertexBias), f4(r.EdgeBias), f4(r.CutRatio))
		}
	}
	return t, nil
}

// Connectivity reproduces the §3.3 check: partition friendster-sim into 64
// small pieces with the weighted policy and count edge connections between
// every pair — the minimum must remain large, so combined subgraphs stay
// well connected.
func Connectivity(opt Options) (*Table, error) {
	const k = 64
	t := &Table{
		ID:     "S3.3 Connectivity",
		Title:  "Edge connections between any two of 64 pieces (friendster-sim)",
		Header: []string{"metric", "arcs"},
	}
	g, err := dataset(gen.FriendsterSim, opt)
	if err != nil {
		return nil, err
	}
	res, err := partition.Stream(g, partition.StreamOptions{K: k, C: 0.5, In: g.In()})
	if err != nil {
		return nil, err
	}
	m := graph.PairConnectivity(g, res.Parts, k)
	var pairs []int
	for a := 0; a < k; a++ {
		for b := 0; b < k; b++ {
			if a != b {
				pairs = append(pairs, m[a][b])
			}
		}
	}
	sort.Ints(pairs)
	t.AddRow("min pair connectivity", d0(pairs[0]))
	t.AddRow("median pair connectivity", d0(pairs[len(pairs)/2]))
	t.AddRow("max pair connectivity", d0(pairs[len(pairs)-1]))
	t.Notes = append(t.Notes,
		"paper (full-size Friendster): min ≈ 50,000 and typically ≈ 500,000; scales with |E|")
	return t, nil
}

// RelatedWork compares BPart against the additional related-work schemes
// of §5 implemented here: LDG (streaming, vertex-balance-only), GD
// (projected gradient descent, two-dimensionally balanced but slow and
// power-of-two-only) and the offline Multilevel baseline.
func RelatedWork(opt Options) (*Table, error) {
	const k = 8
	t := &Table{
		ID:     "S5 Related",
		Title:  "Related-work partitioners vs BPart (twitter-sim, k=8)",
		Header: []string{"scheme", "vertex bias", "edge bias", "cut ratio", "time (s)"},
		Notes: []string{"GD is 2D-balanced like BPart but orders of magnitude slower (and k must be a power of two)",
			reverseNote},
	}
	g, err := dataset(gen.TwitterSim, opt)
	if err != nil {
		return nil, err
	}
	for _, scheme := range []string{"LDG", "Spinner", "GD", "Multilevel", "BPart"} {
		parts, secs, err := timedPartition(gen.TwitterSim, opt, scheme, k)
		if err != nil {
			return nil, err
		}
		r := metrics.NewReport(g, parts, k, false)
		t.AddRow(scheme, f4(r.VertexBias), f4(r.EdgeBias), f4(r.CutRatio), fmt.Sprintf("%.3f", secs))
	}
	return t, nil
}

// VertexCut compares the vertex-cut family (§5: PowerGraph-style Greedy,
// DBH, HDRF vs random edge placement) on twitter-sim. Vertex-cut schemes
// balance edges by construction; their communication metric is the
// replication factor.
func VertexCut(opt Options) (*Table, error) {
	const k = 8
	t := &Table{
		ID:     "S5 Vertex-cut",
		Title:  "Vertex-cut partitioners (twitter-sim, k=8)",
		Header: []string{"scheme", "replication factor", "max replicas", "edge bias"},
		Notes:  []string{"edge-cut schemes' equivalent communication metric is the cut ratio of Table 3"},
	}
	g, err := dataset(gen.TwitterSim, opt)
	if err != nil {
		return nil, err
	}
	for _, p := range []vcut.Partitioner{vcut.RandomEdge{}, vcut.DBH{}, vcut.Greedy{}, vcut.HDRF{}} {
		a, err := p.Partition(g, k)
		if err != nil {
			return nil, err
		}
		r := vcut.NewReport(g, a)
		t.AddRow(p.Name(), f3(r.ReplicationFactor), d0(r.MaxReplicas), f4(metrics.Bias(r.EdgeCounts)))
	}
	return t, nil
}

// AblationC sweeps the weighting factor c of Eq. 1 (design default ½).
// c=1 degenerates to vertex-only balance, c=0 to edge-only; the middle
// balances both.
func AblationC(opt Options) (*Table, error) {
	const k = 8
	t := &Table{
		ID:     "Ablation C",
		Title:  "BPart weighting factor c sweep (twitter-sim, k=8)",
		Header: []string{"c", "vertex bias", "edge bias", "cut ratio"},
	}
	g, err := dataset(gen.TwitterSim, opt)
	if err != nil {
		return nil, err
	}
	for _, c := range []float64{0, 0.25, 0.5, 0.75, 1} {
		r, _, err := ablate(g, core.Config{C: c, Epsilon: 0.1, SplitFactor: 2}, k)
		if err != nil {
			return nil, err
		}
		t.AddRow(f2(c), f4(r.VertexBias), f4(r.EdgeBias), f4(r.CutRatio))
	}
	return t, nil
}

// AblationSplit sweeps the over-split factor (paper: 2× per layer).
func AblationSplit(opt Options) (*Table, error) {
	const k = 8
	t := &Table{
		ID:     "Ablation Split",
		Title:  "BPart over-split factor sweep (twitter-sim, k=8)",
		Header: []string{"split", "layers used", "vertex bias", "edge bias", "cut ratio"},
	}
	g, err := dataset(gen.TwitterSim, opt)
	if err != nil {
		return nil, err
	}
	for _, split := range []int{2, 4, 8} {
		r, layers, err := ablate(g, core.Config{C: 0.5, Epsilon: 0.1, SplitFactor: split}, k)
		if err != nil {
			return nil, err
		}
		t.AddRow(d0(split), d0(layers), f4(r.VertexBias), f4(r.EdgeBias), f4(r.CutRatio))
	}
	return t, nil
}

// AblationOrder sweeps the stream order of the weighted streaming engine
// (C=1, Fennel-style) on twitter-sim: natural ID order (the paper's Fig 2
// stream), seeded random, and degree-descending/ascending. Order shifts
// both the residual edge skew and the cut.
func AblationOrder(opt Options) (*Table, error) {
	const k = 8
	t := &Table{
		ID:     "Ablation Order",
		Title:  "Stream order sweep for Fennel-style streaming (twitter-sim, k=8)",
		Header: []string{"order", "vertex bias", "edge bias", "cut ratio"},
	}
	g, err := dataset(gen.TwitterSim, opt)
	if err != nil {
		return nil, err
	}
	orders := []struct {
		name string
		vs   []graph.VertexID
	}{
		{"id", partition.OrderByID(g.NumVertices())},
		{"random", partition.OrderRandom(g.NumVertices(), 1)},
		{"degree-desc", partition.OrderByDegree(g, false)},
		{"degree-asc", partition.OrderByDegree(g, true)},
	}
	for _, o := range orders {
		res, err := partition.Stream(g, partition.StreamOptions{K: k, C: 1, In: g.In(), Vertices: o.vs})
		if err != nil {
			return nil, err
		}
		r := metrics.NewReport(g, res.Parts, k, false)
		t.AddRow(o.name, f4(r.VertexBias), f4(r.EdgeBias), f4(r.CutRatio))
	}
	return t, nil
}

// AblationRefine compares BPart with and without the final refinement pass
// (the robustness addition over the paper) and across balance thresholds.
func AblationRefine(opt Options) (*Table, error) {
	const k = 8
	t := &Table{
		ID:     "Ablation Refine",
		Title:  "BPart refinement pass and threshold sweep (twitter-sim, k=8)",
		Header: []string{"epsilon", "refine", "vertex bias", "edge bias", "vertex jain", "edge jain"},
	}
	g, err := dataset(gen.TwitterSim, opt)
	if err != nil {
		return nil, err
	}
	for _, eps := range []float64{0.05, 0.1, 0.2} {
		for _, refine := range []bool{true, false} {
			r, _, err := ablate(g, core.Config{C: 0.5, Epsilon: eps, SplitFactor: 2, DisableRefine: !refine}, k)
			if err != nil {
				return nil, err
			}
			t.AddRow(f2(eps), fmt.Sprintf("%v", refine), f4(r.VertexBias), f4(r.EdgeBias), f4(r.VertexJain), f4(r.EdgeJain))
		}
	}
	return t, nil
}

// ablate partitions g into k parts with a BPart variant and reports the
// result with the number of layers it streamed.
func ablate(g *graph.Graph, cfg core.Config, k int) (metrics.Report, int, error) {
	b, err := core.New(cfg)
	if err != nil {
		return metrics.Report{}, 0, err
	}
	a, tr, err := b.PartitionWithTrace(g, k)
	if err != nil {
		return metrics.Report{}, 0, err
	}
	return metrics.NewReport(g, a.Parts, k, false), len(tr.Layers), nil
}
