// Pagerank: the Gemini-like iteration engine. Runs PageRank and Connected
// Components under Chunk-V, Hash and BPart placements and reports per-
// machine compute balance and simulated running time (Figs 14/15 for the
// iteration-based applications).
//
// With -trace out.jsonl the engines stream telemetry: one run-level span
// per algorithm (engine.pagerank, engine.cc) and one cluster.superstep
// record per BSP iteration carrying the per-machine IterationStats. With
// -workers N the supersteps run on an N-worker goroutine pool; every
// number printed is bit-identical to the sequential run.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"

	"bpart"
)

func main() {
	tracePath := flag.String("trace", "", "write a JSONL telemetry trace to this file")
	workers := flag.Int("workers", 0, "superstep worker-pool size (0 = min(GOMAXPROCS, machines); results are bit-identical at any setting)")
	flag.Parse()

	tracer := bpart.NopTrace()
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			log.Fatal(err)
		}
		jl := bpart.NewJSONLTrace(f)
		tracer = jl
		defer func() {
			jl.Close()
			f.Close()
		}()
	}

	g, err := bpart.Preset(bpart.LJSim, 0.2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("graph:", bpart.Stats(g))
	const machines = 8

	for _, scheme := range []string{"Chunk-V", "Hash", "BPart"} {
		a, err := bpart.Partition(g, scheme, machines)
		if err != nil {
			log.Fatal(err)
		}
		eng, err := bpart.NewIterationEngine(g, a, bpart.DefaultCostModel())
		if err != nil {
			log.Fatal(err)
		}
		eng.Cluster().SetWorkers(*workers)
		bpart.Instrument(eng, tracer, nil)
		pr, err := eng.PageRank(10, 0.85)
		if err != nil {
			log.Fatal(err)
		}
		cc, err := eng.ConnectedComponents(0)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n%s:\n", scheme)
		fmt.Printf("  PageRank(10 iters): %8.1f ms simulated, wait ratio %.3f, %d messages\n",
			pr.Stats.TotalTime()/1000, pr.Stats.WaitRatio(), pr.Stats.TotalMessages())
		fmt.Printf("  CC (%d components, %d iters): %8.1f ms simulated, wait ratio %.3f\n",
			cc.Components, len(cc.Stats.Iterations), cc.Stats.TotalTime()/1000, cc.Stats.WaitRatio())

		if scheme == "BPart" {
			top := topRanks(pr.Ranks, 5)
			fmt.Printf("  top PageRank vertices: %v (hubs have low IDs by construction)\n", top)
		}
	}
}

func topRanks(ranks []float64, n int) []int {
	idx := make([]int, len(ranks))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return ranks[idx[a]] > ranks[idx[b]] })
	return idx[:n]
}
