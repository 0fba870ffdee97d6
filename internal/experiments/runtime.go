package experiments

import (
	"fmt"

	"bpart/internal/cluster"
	"bpart/internal/engine"
	"bpart/internal/gen"
	"bpart/internal/walk"
)

// loadWalkers returns the walkers-per-vertex for the load/waiting figures
// (the paper starts 5|V| walks there).
func (o Options) loadWalkers() int {
	if o.Walkers > 0 {
		return o.Walkers
	}
	return 5
}

// appWalkers returns the walkers-per-vertex for the application running
// time figures (the paper starts |V| walks per application).
func (o Options) appWalkers() int {
	if o.Walkers > 0 {
		return o.Walkers
	}
	return 1
}

// loadWalk runs the load/waiting figures' workload on scheme's placement of
// d: 5|V| simple walks (Options.Walkers overrides) of four steps, seeded.
func loadWalk(d gen.Dataset, opt Options, scheme string, k int, model cluster.CostModel) (*walk.Result, error) {
	e, err := walkEngine(d, opt, scheme, k, model)
	if err != nil {
		return nil, err
	}
	return e.Run(walk.Config{Kind: walk.Simple, WalkersPerVertex: opt.loadWalkers(), Steps: 4, Seed: 1})
}

// Fig4 reproduces Figure 4: per-machine computing load (walk steps) in each
// of the four iterations of a 5|V|-walker, 4-step random walk on
// twitter-sim with four machines. Chunk-V/Fennel start balanced in
// iteration 0 (balanced walker counts) but drift apart as walkers pile onto
// the hub machine; Chunk-E is imbalanced from the start.
func Fig4(opt Options) (*Table, error) {
	const k = 4
	t := &Table{
		ID:     "Fig 4",
		Title:  "Computing load (walk steps) per machine per iteration (twitter-sim, k=4)",
		Header: []string{"scheme", "iter", "M0", "M1", "M2", "M3", "max/mean"},
	}
	for _, scheme := range oneDimSchemes {
		res, err := loadWalk(gen.TwitterSim, opt, scheme, k, cluster.DefaultCostModel())
		if err != nil {
			return nil, err
		}
		for it, st := range res.Stats.Iterations {
			row := []string{scheme, d0(it)}
			loads := make([]float64, len(st.Work.Steps))
			for m, s := range st.Work.Steps {
				row = append(row, i64(s))
				loads[m] = float64(s)
			}
			t.AddRow(append(row, f2(maxOverMean(loads)))...)
		}
	}
	return t, nil
}

// maxOverMean is a per-machine load row's max/mean, 0 for an idle row.
func maxOverMean(loads []float64) float64 {
	var total, maxL float64
	for _, l := range loads {
		total += l
		maxL = max(maxL, l)
	}
	if total <= 0 {
		return 0
	}
	return maxL / (total / float64(len(loads)))
}

// Fig5 reproduces Figure 5: (a) the edge-cut ratio and (b) the total
// message walks of a 5|V|-walker, 4-step walk, for Chunk-V, Chunk-E,
// Fennel and Hash at k=8. Chunk-E and Hash cut ~90% of edges and transmit
// over 2× more walks than Fennel.
func Fig5(opt Options) (*Table, error) {
	const k = 8
	t := &Table{
		ID:     "Fig 5",
		Title:  "Edge cuts and message walks (twitter-sim, k=8, 5|V| walks × 4 steps)",
		Header: []string{"scheme", "edge-cut ratio", "message walks", "vs Fennel"},
	}
	schemes := []string{"Chunk-V", "Chunk-E", "Fennel", "Hash"}
	const fennel = 2
	cuts := make([]float64, len(schemes))
	msgs := make([]int64, len(schemes))
	for i, scheme := range schemes {
		rep, err := report(gen.TwitterSim, opt, scheme, k)
		if err != nil {
			return nil, err
		}
		res, err := loadWalk(gen.TwitterSim, opt, scheme, k, cluster.DefaultCostModel())
		if err != nil {
			return nil, err
		}
		cuts[i], msgs[i] = rep.CutRatio, res.MessageWalks
	}
	for i, scheme := range schemes {
		rel := 0.0
		if msgs[fennel] > 0 {
			rel = float64(msgs[i]) / float64(msgs[fennel])
		}
		t.AddRow(scheme, f4(cuts[i]), i64(msgs[i]), f2(rel))
	}
	return t, nil
}

// Fig12 reproduces Figure 12: the computation time of each of the eight
// machines in each iteration on friendster-sim. Unbalanced partitions give
// ragged columns; BPart's are level.
func Fig12(opt Options) (*Table, error) {
	const k = 8
	t := &Table{
		ID:     "Fig 12",
		Title:  "Computation time (ms) per machine per iteration (friendster-sim, k=8)",
		Header: []string{"scheme", "iter", "M0", "M1", "M2", "M3", "M4", "M5", "M6", "M7", "max/mean"},
	}
	for _, scheme := range compareSchemes {
		res, err := loadWalk(gen.FriendsterSim, opt, scheme, k, cluster.DefaultCostModel())
		if err != nil {
			return nil, err
		}
		for it, st := range res.Stats.Iterations {
			row := []string{scheme, d0(it)}
			for _, c := range st.Compute {
				row = append(row, f2(c/1000))
			}
			t.AddRow(append(row, f2(maxOverMean(st.Compute)))...)
		}
	}
	return t, nil
}

// Fig13 reproduces Figure 13: the ratio of total machine waiting time to
// total running time for 4- and 8-machine clusters across all datasets.
// The paper reports 45–55% average waiting for the one-dimensional schemes
// and 10–20% for BPart.
func Fig13(opt Options) (*Table, error) {
	t := &Table{
		ID:     "Fig 13",
		Title:  "Waiting-time ratio of random walks (5|V| walks × 4 steps)",
		Header: []string{"graph", "machines", "Chunk-V", "Chunk-E", "Fennel", "BPart"},
	}
	for _, d := range gen.Datasets() {
		for _, k := range []int{4, 8} {
			row := []string{string(d), d0(k)}
			for _, scheme := range compareSchemes {
				res, err := loadWalk(d, opt, scheme, k, cluster.DefaultCostModel())
				if err != nil {
					return nil, err
				}
				row = append(row, f3(res.Stats.WaitRatio()))
			}
			t.AddRow(row...)
		}
	}
	return t, nil
}

// apps are the seven graph applications of §4.1 in figure order: five
// random-walk algorithms (run on the KnightKing-sim) and two iteration
// algorithms (run on the Gemini-sim).
var apps = []string{"PPR", "RWJ", "RWD", "DeepWalk", "node2vec", "PR", "CC"}

// appRun executes one application under one scheme and returns the total
// simulated running time.
type appRun func(d gen.Dataset, opt Options, scheme string, k int) (float64, error)

// appRuns is the one table of applications.
var appRuns = map[string]appRun{
	"PPR":      walkApp(walk.PPR),
	"RWJ":      walkApp(walk.RWJ),
	"RWD":      walkApp(walk.RWD),
	"DeepWalk": walkApp(walk.DeepWalk),
	"node2vec": walkApp(walk.Node2Vec),
	"PR":       iterApp(pageRank),
	"CC":       iterApp(components),
}

// iterRun runs one iteration algorithm and returns the run's stats.
type iterRun func(*engine.Engine) (*cluster.RunStats, error)

// pageRank is the paper's ten PageRank iterations.
func pageRank(e *engine.Engine) (*cluster.RunStats, error) {
	r, err := e.PageRank(10, 0.85)
	if err != nil {
		return nil, err
	}
	return &r.Stats, nil
}

// components is connected components run to convergence.
func components(e *engine.Engine) (*cluster.RunStats, error) {
	r, err := e.ConnectedComponents(0)
	if err != nil {
		return nil, err
	}
	return &r.Stats, nil
}

// walkApp runs |V| walks of kind (Options.Walkers overrides).
func walkApp(kind walk.Kind) appRun {
	return func(d gen.Dataset, opt Options, scheme string, k int) (float64, error) {
		e, err := walkEngine(d, opt, scheme, k, cluster.DefaultCostModel())
		if err != nil {
			return 0, err
		}
		res, err := e.Run(walk.Config{Kind: kind, WalkersPerVertex: opt.appWalkers(), Seed: 1})
		if err != nil {
			return 0, err
		}
		return res.Stats.TotalTime(), nil
	}
}

// iterApp runs one iteration algorithm on the Gemini-sim.
func iterApp(run iterRun) appRun {
	return func(d gen.Dataset, opt Options, scheme string, k int) (float64, error) {
		e, err := iterEngine(d, opt, scheme, k)
		if err != nil {
			return 0, err
		}
		stats, err := run(e)
		if err != nil {
			return 0, err
		}
		return stats.TotalTime(), nil
	}
}

// runApp runs the named application.
func runApp(app string, d gen.Dataset, opt Options, scheme string, k int) (float64, error) {
	run, ok := appRuns[app]
	if !ok {
		return 0, fmt.Errorf("experiments: unknown app %q", app)
	}
	return run(d, opt, scheme, k)
}

// Fig14 reproduces Figure 14: the running time of all seven applications
// under Chunk-V, Chunk-E, Fennel and BPart, normalized to Chunk-V = 1.
// BPart should be the fastest column nearly everywhere (the paper reports
// 5–70% reductions).
func Fig14(opt Options) (*Table, error) {
	const k = 8
	t := &Table{
		ID:     "Fig 14",
		Title:  "Normalized running time of graph applications (k=8, Chunk-V = 1)",
		Header: []string{"graph", "app", "Chunk-V", "Chunk-E", "Fennel", "BPart"},
	}
	for _, d := range gen.Datasets() {
		for _, app := range apps {
			times := make([]float64, len(compareSchemes))
			for i, scheme := range compareSchemes {
				x, err := runApp(app, d, opt, scheme, k)
				if err != nil {
					return nil, fmt.Errorf("%s/%s/%s: %w", d, app, scheme, err)
				}
				times[i] = x
			}
			base := times[0]
			row := []string{string(d), app}
			for _, x := range times {
				row = append(row, f3(x/base))
			}
			t.AddRow(row...)
		}
	}
	return t, nil
}

// Fig15 reproduces Figure 15: Hash vs BPart running time (Hash = 1) on
// twitter-sim and friendster-sim. Both are two-dimensionally balanced, so
// the gap isolates the value of fewer edge cuts: the paper reports 5–20%
// for walk applications and 20–35% for PR/CC.
func Fig15(opt Options) (*Table, error) {
	const k = 8
	t := &Table{
		ID:     "Fig 15",
		Title:  "Normalized computation time, Hash vs BPart (k=8, Hash = 1)",
		Header: []string{"graph", "app", "Hash", "BPart"},
	}
	for _, d := range []gen.Dataset{gen.TwitterSim, gen.FriendsterSim} {
		for _, app := range apps {
			hash, err := runApp(app, d, opt, "Hash", k)
			if err != nil {
				return nil, err
			}
			bp, err := runApp(app, d, opt, "BPart", k)
			if err != nil {
				return nil, err
			}
			t.AddRow(string(d), app, "1.000", f3(bp/hash))
		}
	}
	return t, nil
}

// AblationHetero probes a limitation the paper leaves implicit: BPart (and
// every balance-driven scheme) targets *uniform* loads, which is optimal
// only for homogeneous clusters. On a cluster whose machine 0 runs at half
// speed, a uniformly balanced partition makes machine 0 the permanent
// straggler; the waiting advantage over Hash narrows and everyone's wait
// ratio floor rises.
func AblationHetero(opt Options) (*Table, error) {
	const k = 8
	t := &Table{
		ID:     "Ablation Hetero",
		Title:  "Waiting ratio on homogeneous vs heterogeneous clusters (twitter-sim, k=8)",
		Header: []string{"scheme", "homogeneous", "machine0 at half speed"},
		Notes: []string{
			"uniform 2D balance is the optimum only for equal machines; heterogeneity-aware targets are future work",
		},
	}
	slow := cluster.DefaultCostModel()
	slow.Speeds = make([]float64, k)
	for i := range slow.Speeds {
		slow.Speeds[i] = 1
	}
	slow.Speeds[0] = 0.5

	for _, scheme := range []string{"Chunk-V", "Hash", "BPart"} {
		row := []string{scheme}
		for _, model := range []cluster.CostModel{cluster.DefaultCostModel(), slow} {
			res, err := loadWalk(gen.TwitterSim, opt, scheme, k, model)
			if err != nil {
				return nil, err
			}
			row = append(row, f3(res.Stats.WaitRatio()))
		}
		t.AddRow(row...)
	}
	return t, nil
}
