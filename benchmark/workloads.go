package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"runtime"
	"time"

	"bpart/internal/cluster"
	"bpart/internal/engine"
	"bpart/internal/gio"
	"bpart/internal/metrics"
	"bpart/internal/partition"
	"bpart/internal/walk"
)

// workload is one kind of job: the unit a user of the system waits for.
type workload struct {
	name string
	run  func(in *inputs, j *job)
}

// workloads lists the jobs in the fixed order a round executes them.
var workloads = []workload{
	{"pipeline", runPipeline},
	{"partition-k8", func(in *inputs, j *job) { runPartition(in, j, 8, biasLimitK8) }},
	{"partition-k128", func(in *inputs, j *job) { runPartition(in, j, 128, biasLimitK128) }},
	{"iterate", runIterate},
	{"walk", runWalk},
	{"serve", runServe},
}

func allWorkloads() []*workload {
	var sel []*workload
	for i := range workloads {
		sel = append(sel, &workloads[i])
	}
	return sel
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// job is one execution of a workload: its timed region, its spans when
// traced, and the outcome of its correctness checks.
type job struct {
	workload string
	round    int
	first    map[string]any // outputs of the workload's first job, which later jobs must repeat

	tr   *tracer
	run  int
	self spanRef

	start, end time.Time
	mem0, mem1 runtime.MemStats

	attempted, failed int
	firstErr          error
}

// begin opens a span for one call into a layer, caused by the job.
func (j *job) begin(name string) spanRef { return j.beginUnder(j.self, name) }

func (j *job) beginUnder(parent spanRef, name string) spanRef {
	return j.tr.begin(j.run, parent, j.workload, name)
}

// done ends the timed region. A job calls it after its last call into the
// product and before checking outputs, so checks are not measured.
func (j *job) done() {
	if !j.end.IsZero() {
		return
	}
	j.end = time.Now()
	j.self.end()
	runtime.ReadMemStats(&j.mem1)
}

// op counts one attempted operation, failed when err is not nil.
func (j *job) op(err error) {
	j.attempted++
	if err != nil {
		j.failed++
		if j.firstErr == nil {
			j.firstErr = fmt.Errorf("%s round %d: %w", j.workload, j.round, err)
		}
	}
}

// repeats checks that a deterministic output equals the one the
// workload's first job produced.
func (j *job) repeats(what string, v any) error {
	if want, ok := j.first[what]; !ok {
		j.first[what] = v
	} else if want != v {
		return fmt.Errorf("%s = %v, first job had %v", what, v, want)
	}
	return nil
}

// checkAssignment validates a partition result: every vertex assigned in
// range, the same bytes as the first job, both balance dimensions within
// the limit.
func checkAssignment(in *inputs, j *job, a *partition.Assignment, rep metrics.Report, limit float64) error {
	if err := a.Validate(in.g); err != nil {
		return err
	}
	h := sha256.New()
	var buf [8]byte
	for _, p := range a.Parts {
		binary.LittleEndian.PutUint64(buf[:], uint64(p))
		h.Write(buf[:])
	}
	if err := j.repeats(fmt.Sprintf("sha256(k=%d)", a.K), fmt.Sprintf("%x", h.Sum(nil))); err != nil {
		return err
	}
	if rep.VertexBias > limit || rep.EdgeBias > limit {
		return fmt.Errorf("k=%d vertex bias %.4f edge bias %.4f, limit %.2f", a.K, rep.VertexBias, rep.EdgeBias, limit)
	}
	return nil
}

func runPartition(in *inputs, j *job, k int, limit float64) {
	sp := j.begin("core.bpart_partition")
	a, err := in.bp.Partition(in.g, k)
	sp.end("vertices", int64(in.g.NumVertices()), "edges", int64(in.g.NumEdges()))
	j.done()
	if err == nil {
		err = checkAssignment(in, j, a, metrics.NewReport(in.g, a.Parts, k, false), limit)
	}
	j.op(err)
}

// runPipeline is the cmd/bpart path end to end: load, partition, report,
// write the assignment, then one iteration-engine and one walk-engine run
// on it.
func runPipeline(in *inputs, j *job) {
	j.op(func() error {
		sp := j.begin("gio.read_file")
		g, err := gio.ReadFile(in.graphPath)
		if err != nil {
			return err
		}
		sp.end("edges", int64(g.NumEdges()))

		sp = j.begin("core.bpart_partition")
		a, err := in.bp.Partition(g, serveK)
		if err != nil {
			return err
		}
		sp.end("vertices", int64(g.NumVertices()))

		sp = j.begin("metrics.new_report")
		rep := metrics.NewReport(g, a.Parts, a.K, false)
		sp.end()

		sp = j.begin("gio.write_assignment")
		if err := gio.WriteAssignmentFile(in.partsPath, a.Parts, a.K); err != nil {
			return err
		}
		sp.end("vertices", int64(len(a.Parts)))

		sp = j.begin("engine.new")
		e, err := engine.New(g, a.Parts, a.K, cluster.DefaultCostModel())
		if err != nil {
			return err
		}
		e.Cluster().SetWorkers(in.cfg.workers)
		sp.end()

		sp = j.begin("engine.pagerank")
		pr, err := e.PageRank(pipelinePRIters, damping)
		if err != nil {
			return err
		}
		sp.end("edges", int64(pipelinePRIters*g.NumEdges()))

		sp = j.begin("walk.new")
		w, err := walk.New(g, a.Parts, a.K, cluster.DefaultCostModel())
		if err != nil {
			return err
		}
		sp.end()

		sp = j.begin("walk.run_deepwalk")
		wr, err := w.Run(walk.Config{Kind: walk.DeepWalk, Seed: in.cfg.seed})
		if err != nil {
			return err
		}
		sp.end("steps", wr.TotalSteps)
		j.done()

		if g.NumVertices() != in.g.NumVertices() || g.NumEdges() != in.g.NumEdges() {
			return fmt.Errorf("loaded %v, wrote %v", g, in.g)
		}
		if err := checkAssignment(in, j, a, rep, biasLimitK8); err != nil {
			return err
		}
		if err := ranksMatch(pr.Ranks, in.oracle.ranks[pipelinePRIters]); err != nil {
			return err
		}
		return j.repeats("deepwalk steps", wr.TotalSteps)
	}())
}

// runIterate is the iteration engine on the BPart assignment: dense push
// (PageRank), dense-to-sparse (CC) and sparse frontiers (SSSP, BFS).
func runIterate(in *inputs, j *job) {
	j.op(func() error {
		sp := j.begin("engine.new")
		e, err := engine.New(in.g, in.assign[0], serveK, cluster.DefaultCostModel())
		if err != nil {
			return err
		}
		e.Cluster().SetWorkers(in.cfg.workers)
		sp.end()

		sp = j.begin("engine.pagerank")
		pr, err := e.PageRank(iteratePRIters, damping)
		if err != nil {
			return err
		}
		sp.end("edges", int64(iteratePRIters*in.g.NumEdges()))

		sp = j.begin("engine.cc")
		cc, err := e.ConnectedComponents(0)
		if err != nil {
			return err
		}
		sp.end("supersteps", int64(len(cc.Stats.Iterations)))

		sp = j.begin("engine.sssp")
		sssp, err := e.SSSP(in.source)
		if err != nil {
			return err
		}
		sp.end("supersteps", int64(len(sssp.Stats.Iterations)))

		sp = j.begin("engine.bfs")
		bfs, err := e.BFS(in.source)
		if err != nil {
			return err
		}
		sp.end("supersteps", int64(len(bfs.Stats.Iterations)))
		j.done()

		if err := ranksMatch(pr.Ranks, in.oracle.ranks[iteratePRIters]); err != nil {
			return err
		}
		if cc.Components != in.oracle.components {
			return fmt.Errorf("cc: %d components, oracle %d", cc.Components, in.oracle.components)
		}
		if err := sameInts("cc label", cc.Labels, in.oracle.labels); err != nil {
			return err
		}
		if err := sameInts("sssp distance", sssp.Dist, in.oracle.sssp); err != nil {
			return err
		}
		return sameInts("bfs distance", bfs.Dist, in.oracle.bfs)
	}())
}

// walkKinds are the four applications of the walk job, |V| walkers each.
var walkKinds = []walk.Kind{walk.Simple, walk.PPR, walk.DeepWalk, walk.Node2Vec}

func runWalk(in *inputs, j *job) {
	j.op(func() error {
		sp := j.begin("walk.new")
		w, err := walk.New(in.g, in.assign[0], serveK, cluster.DefaultCostModel())
		if err != nil {
			return err
		}
		sp.end()
		results := make([]*walk.Result, len(walkKinds))
		for i, kind := range walkKinds {
			sp = j.begin("walk.run_" + kind.String())
			if results[i], err = w.Run(walk.Config{Kind: kind, Seed: in.cfg.seed}); err != nil {
				return err
			}
			sp.end("steps", results[i].TotalSteps, "message_walks", results[i].MessageWalks)
		}
		j.done()

		for i, kind := range walkKinds {
			if results[i].Finished != int64(in.g.NumVertices()) {
				return fmt.Errorf("%v: %d walkers finished of %d", kind, results[i].Finished, in.g.NumVertices())
			}
			if err := j.repeats(kind.String()+" steps", results[i].TotalSteps); err != nil {
				return err
			}
		}
		return nil
	}())
}

// runServe is one closed-loop chunk against the loopback server with an
// assignment swap in the middle. Each round plays the next stream of the
// pool.
func runServe(in *inputs, j *job) {
	reqs := in.streams[j.round%streamPool]
	sp := j.begin("servestats.closed_loop")
	in.closedLoop(j, sp, reqs)
	sp.end("requests", int64(len(reqs)))
	j.done()
}
