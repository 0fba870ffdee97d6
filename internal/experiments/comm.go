package experiments

import (
	"fmt"

	"bpart/internal/cluster"
	"bpart/internal/commview"
	"bpart/internal/gen"
	"bpart/internal/walk"
)

// commSchemes are the partitioners whose communication topology the comm
// experiment compares: the streaming baselines (Fennel, LDG), the offline
// multilevel stand-in, and BPart.
var commSchemes = []string{"Fennel", "LDG", "Multilevel", "BPart"}

// CommMatrix measures who-talks-to-whom flatness: with matrix capture on,
// it runs a random walk and a PageRank on lj-sim (k=8) under each scheme
// and reports the comm imbalance ratio, the Jain fairness of the pair
// traffic, and the hottest src→dst pair with its share of all messages.
// A flat matrix (imbalance near 1, Jain near 1, hot share near 1/(k²-k))
// means no machine pair is a bandwidth hotspot; edge-cut alone cannot see
// this, because two partitions with the same cut can concentrate it on one
// pair or spread it across all of them.
func CommMatrix(opt Options) (*Table, error) {
	const k = 8
	t := &Table{
		ID:     "Comm Matrix",
		Title:  "Communication-topology flatness (lj-sim, k=8, matrix capture on)",
		Header: []string{"workload", "scheme", "messages", "imbalance", "pair-jain", "hot pair", "hot share"},
	}
	for _, workload := range []string{"walk", "pagerank"} {
		for _, scheme := range commSchemes {
			var stats *cluster.RunStats
			switch workload {
			case "walk":
				e, err := walkEngine(gen.LJSim, opt, scheme, k, cluster.DefaultCostModel())
				if err != nil {
					return nil, err
				}
				e.Cluster().SetCommMatrix(true)
				res, err := e.Run(walk.Config{Kind: walk.Simple, WalkersPerVertex: opt.appWalkers(), Steps: 4, Seed: 1})
				if err != nil {
					return nil, err
				}
				stats = &res.Stats
			case "pagerank":
				e, err := iterEngine(gen.LJSim, opt, scheme, k)
				if err != nil {
					return nil, err
				}
				e.Cluster().SetCommMatrix(true)
				if stats, err = pageRank(e); err != nil {
					return nil, err
				}
			}
			s, hotShare := commSummary(stats)
			t.AddRow(workload, scheme, i64(s.Messages), f3(s.ImbalanceRatio), f4(s.PairJain),
				fmt.Sprintf("M%d->M%d", s.HotSrc, s.HotDst), f4(hotShare))
		}
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("a perfectly flat matrix has hot share 1/(k²-k) = %s", f4(1.0/float64(k*k-k))))
	return t, nil
}

// commSummary reads a capture-on run's comm matrix: its summary and the hot
// pair's share of all cross-machine messages (1/(k²-k) when flat).
func commSummary(stats *cluster.RunStats) (commview.Summary, float64) {
	s := commview.Summarize(commview.FromRunStats(stats))
	share := 0.0
	if s.Messages > 0 {
		share = float64(s.HotMessages) / float64(s.Messages)
	}
	return s, share
}
