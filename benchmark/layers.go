package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"time"

	"bpart/internal/cluster"
	"bpart/internal/core"
	"bpart/internal/engine"
	"bpart/internal/gio"
	"bpart/internal/graph"
	"bpart/internal/metrics"
	"bpart/internal/partition"
	"bpart/internal/servestats"
	"bpart/internal/telemetry"
	"bpart/internal/walk"
)

// layerReps is how often each direct layer call is repeated; the median is
// reported. Calls that take about a second are made once (noted inline).
const layerReps = 3

// layerPRIters keeps the per-edge PageRank measurements short; the cost
// per edge does not depend on the iteration count.
const layerPRIters = 5

// timeCalls runs the functions round-robin, reps times each, collecting
// garbage before every call, and returns per function the median wall time
// in seconds and the median MB allocated. Functions timed in one call see
// the same host, so the ratios between them mean something even when the
// host's speed drifts.
func timeCalls(reps int, fns ...func()) (sec, allocMB []float64) {
	secs, allocs := make([][]float64, len(fns)), make([][]float64, len(fns))
	var m0, m1 runtime.MemStats
	for r := 0; r < reps; r++ {
		for i, fn := range fns {
			runtime.GC()
			runtime.ReadMemStats(&m0)
			t := time.Now()
			fn()
			secs[i] = append(secs[i], time.Since(t).Seconds())
			runtime.ReadMemStats(&m1)
			allocs[i] = append(allocs[i], float64(m1.TotalAlloc-m0.TotalAlloc)/1e6)
		}
	}
	for i := range fns {
		sec = append(sec, median(secs[i]))
		allocMB = append(allocMB, median(allocs[i]))
	}
	return sec, allocMB
}

func timeCall(reps int, fn func()) (sec, allocMB float64) {
	secs, allocs := timeCalls(reps, fn)
	return secs[0], allocs[0]
}

// perCall times n back-to-back calls and returns the mean time per call
// in seconds and the mean heap objects allocated per call.
func perCall(n int, fn func(i int)) (sec, allocs float64) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	t := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	d := time.Since(t).Seconds()
	runtime.ReadMemStats(&m1)
	return d / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// discardWriter is an http.ResponseWriter that keeps nothing, so handler
// measurements below HTTP count the handler's own allocations only.
type discardWriter struct {
	h    http.Header
	code int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }

// layerPass measures every layer by calling its public functions directly
// and stores one metric per unit cost. j collects the pass's correctness
// checks. Each block names the layer it times.
func layerPass(in *inputs, ms metricSet, j *job) error {
	g := in.g
	n, m := float64(g.NumVertices()), float64(g.NumEdges())
	nsPerEdge := func(sec float64) float64 { return sec * 1e9 / m }
	var firstErr error
	must := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}

	// gio
	sec, alloc := timeCall(layerReps, func() {
		_, err := gio.ReadFile(in.graphPath)
		must(err)
	})
	ms.put("gio.read_binary_ns_per_edge", "ns", nsPerEdge(sec))
	ms.put("gio.read_binary_alloc_mb", "MB", alloc)
	sec, _ = timeCall(layerReps, func() { must(gio.WriteFile(filepath.Join(in.cfg.outDir, "layer.bg"), g)) })
	ms.put("gio.write_binary_ns_per_edge", "ns", nsPerEdge(sec))
	var text bytes.Buffer
	must(gio.WriteEdgeList(&text, g))
	sec, _ = timeCall(1, func() { // about a second at full scale
		_, err := gio.ReadEdgeList(bytes.NewReader(text.Bytes()))
		must(err)
	})
	ms.put("gio.read_edgelist_ns_per_edge", "ns", nsPerEdge(sec))
	text = bytes.Buffer{}

	// graph
	edges := g.EdgeList()
	sec, _ = timeCall(layerReps, func() { graph.FromEdges(g.NumVertices(), edges) })
	ms.put("graph.build_ns_per_edge", "ns", nsPerEdge(sec))
	edges = nil
	var trans *graph.Graph
	sec, alloc = timeCall(layerReps, func() { trans = g.Transpose() })
	ms.put("graph.transpose_ns_per_edge", "ns", nsPerEdge(sec))
	ms.put("graph.transpose_alloc_mb", "MB", alloc)

	// partition
	var stream *partition.StreamResult
	for _, c := range []struct {
		name string
		opt  partition.StreamOptions
	}{
		{"stream_k8", partition.StreamOptions{K: 8, C: 0.5, In: trans}},
		{"stream_k128", partition.StreamOptions{K: 128, C: 0.5, In: trans}},
		{"stream_noin_k8", partition.StreamOptions{K: 8, C: 0.5}},
	} {
		sec, _ = timeCall(layerReps, func() {
			res, err := partition.Stream(g, c.opt)
			must(err)
			if c.name == "stream_k8" {
				stream = res
			}
		})
		ms.put("partition."+c.name+"_s", "s", sec)
	}
	if stream != nil {
		ms.put("partition.stream_capw_skips", "count", float64(stream.Stats.CapWSkips))
		ms.put("partition.stream_tie_breaks", "count", float64(stream.Stats.TieBreaks))
		ms.put("partition.stream_fallbacks", "count", float64(stream.Stats.Fallbacks))
	}
	sec, _ = timeCall(layerReps, func() {
		_, err := partition.Fennel{}.Partition(g, 128)
		must(err)
	})
	ms.put("partition.fennel_k128_s", "s", sec)

	// core, with metrics as the quality guard on what it produced. At k=8
	// BPart, BPart under the repo's own tracer and Fennel run interleaved:
	// two of the metrics are ratios between them.
	traced, err := core.New(core.Config{})
	if err != nil {
		return err
	}
	traced.SetTelemetry(telemetry.NewMemory(), telemetry.NewRegistry())
	results := map[int]*partition.Assignment{}
	traces := map[int]*core.Trace{}
	bpart := func(k int) func() {
		return func() {
			a, trace, err := in.bp.PartitionWithTrace(g, k)
			must(err)
			results[k], traces[k] = a, trace
		}
	}
	secs, allocs := timeCalls(layerReps, bpart(8),
		func() { _, err := traced.Partition(g, 8); must(err) },
		func() { _, err := partition.Fennel{}.Partition(g, 8); must(err) })
	ms.put("core.bpart_k8_s", "s", secs[0])
	ms.put("core.bpart_k8_alloc_mb", "MB", allocs[0])
	ms.put("telemetry.traced_partition_ratio", "ratio", secs[1]/secs[0])
	ms.put("partition.fennel_k8_s", "s", secs[2])
	ms.put("core.bpart_over_fennel_k8", "ratio", secs[0]/secs[2])
	sec, _ = timeCall(layerReps, bpart(128))
	ms.put("core.bpart_k128_s", "s", sec)
	for _, k := range []int{8, 128} {
		a, trace := results[k], traces[k]
		if a == nil {
			return firstErr
		}
		pieces := 0
		for _, l := range trace.Layers {
			pieces += l.Pieces
		}
		ms.put(fmt.Sprintf("core.layers_k%d", k), "count", float64(len(trace.Layers)))
		ms.put(fmt.Sprintf("core.pieces_k%d", k), "count", float64(pieces))
		var rep metrics.Report
		sec, _ = timeCall(layerReps, func() { rep = metrics.NewReport(g, a.Parts, k, false) })
		ms.put(fmt.Sprintf("metrics.bpart_k%d_vbias", k), "ratio", rep.VertexBias)
		ms.put(fmt.Sprintf("metrics.bpart_k%d_ebias", k), "ratio", rep.EdgeBias)
		ms.put(fmt.Sprintf("metrics.bpart_k%d_cut_ratio", k), "ratio", rep.CutRatio)
		if k == 8 {
			ms.put("metrics.report_s", "s", sec)
		}
	}

	// cluster
	cl, err := cluster.New(in.assign[0], serveK, cluster.DefaultCostModel())
	if err != nil {
		return err
	}
	cl.SetWorkers(in.cfg.workers)
	w := cl.NewCounters()
	for i := range w.Edges {
		w.Edges[i], w.Vertices[i], w.Messages[i] = int64(m)/serveK, int64(n)/serveK, int64(m)/(2*serveK)
	}
	sec, _ = perCall(2000, func(int) { cl.FinishIteration(w) })
	ms.put("cluster.finish_iteration_ns", "ns", sec*1e9)
	const tasks = 4096
	sec, _ = perCall(200, func(int) { cl.RunTasks(tasks, func(int) {}) })
	ms.put("cluster.runtasks_ns_per_task", "ns", sec*1e9/tasks)

	// engine
	chunkV, err := partition.ChunkV{}.Partition(g, serveK)
	if err != nil {
		return err
	}
	newEngine := func(parts []int, workers int) *engine.Engine {
		e, err := engine.New(g, parts, serveK, cluster.DefaultCostModel())
		must(err)
		if e != nil {
			e.Cluster().SetWorkers(workers)
			must(e.SetTranspose(trans))
		}
		return e
	}
	sec, _ = timeCall(layerReps, func() { newEngine(in.assign[0], in.cfg.workers) })
	ms.put("engine.new_s", "s", sec)
	e, e1, eChunk, eTraced := newEngine(in.assign[0], in.cfg.workers), newEngine(in.assign[0], 1),
		newEngine(chunkV.Parts, in.cfg.workers), newEngine(in.assign[0], in.cfg.workers)
	if firstErr != nil {
		return firstErr
	}
	eTraced.SetTelemetry(telemetry.NewMemory(), telemetry.NewRegistry())
	prEdges := layerPRIters * m
	var pr *engine.PRResult
	pageRank := func(e *engine.Engine) func() {
		return func() {
			res, err := e.PageRank(layerPRIters, damping)
			must(err)
			pr = res
		}
	}
	// Push at the worker pool's width, at one worker, on a Chunk-V
	// placement and under the repo's tracer, interleaved: three of the
	// metrics are ratios between them. The plain run is last so pr is its.
	secs, _ = timeCalls(layerReps, pageRank(e1), pageRank(eChunk), pageRank(eTraced), pageRank(e))
	push1S, chunkS, tracedS, pushS := secs[0], secs[1], secs[2], secs[3]
	pullS, _ := timeCall(layerReps, func() { _, err := e.PageRankPull(layerPRIters, damping); must(err) })
	ms.put("telemetry.traced_iterate_ratio", "ratio", tracedS/pushS)
	ms.put("engine.pagerank_push_ns_per_edge", "ns", pushS*1e9/prEdges)
	ms.put("engine.pagerank_push_w1_ns_per_edge", "ns", push1S*1e9/prEdges)
	ms.put("engine.pagerank_speedup", "ratio", push1S/pushS)
	ms.put("engine.pagerank_pull_ns_per_edge", "ns", pullS*1e9/prEdges)
	ms.put("engine.pagerank_chunkv_over_bpart", "ratio", chunkS/pushS)
	if pr != nil {
		var edgesDone int64
		for _, it := range pr.Stats.Iterations {
			for _, x := range it.Work.Edges {
				edgesDone += x
			}
		}
		ms.put("engine.pagerank_edges", "count", float64(edgesDone))
		ms.put("engine.pagerank_messages", "count", float64(pr.Stats.TotalMessages()))
		ms.put("engine.sim_time_pagerank_us", "us", pr.Stats.TotalTime())
	}
	var cc *engine.CCResult
	sec, _ = timeCall(layerReps, func() { cc, err = e.ConnectedComponents(0); must(err) })
	ms.put("engine.cc_s", "s", sec)
	if cc != nil {
		ms.put("engine.cc_supersteps", "count", float64(len(cc.Stats.Iterations)))
	}
	var dobfs *engine.BFSResult
	sec, _ = timeCall(layerReps, func() { _, err := e.SSSP(in.source); must(err) })
	ms.put("engine.sssp_s", "s", sec)
	sec, _ = timeCall(layerReps, func() { _, err := e.BFS(in.source); must(err) })
	ms.put("engine.bfs_s", "s", sec)
	sec, _ = timeCall(layerReps, func() { dobfs, err = e.BFSDirectionOptimizing(in.source); must(err) })
	ms.put("engine.dobfs_s", "s", sec)
	if dobfs != nil {
		j.op(sameInts("dobfs distance", dobfs.Dist, in.oracle.bfs))
	}

	// walk
	var we *walk.Engine
	sec, _ = timeCall(layerReps, func() { we, err = walk.New(g, in.assign[0], serveK, cluster.DefaultCostModel()); must(err) })
	ms.put("walk.new_s", "s", sec)
	if we == nil {
		return firstErr
	}
	var totalSteps, messageWalks int64
	var walkAlloc float64
	for _, kind := range walkKinds {
		var res *walk.Result
		sec, alloc = timeCall(layerReps, func() { res, err = we.Run(walk.Config{Kind: kind, Seed: in.cfg.seed}); must(err) })
		if res == nil {
			return firstErr
		}
		name := map[walk.Kind]string{walk.Simple: "simple", walk.PPR: "ppr", walk.DeepWalk: "deepwalk", walk.Node2Vec: "node2vec"}[kind]
		ms.put("walk."+name+"_ns_per_step", "ns", sec*1e9/float64(res.TotalSteps))
		totalSteps += res.TotalSteps
		messageWalks += res.MessageWalks
		walkAlloc += alloc
	}
	ms.put("walk.alloc_mb", "MB", walkAlloc)
	ms.put("walk.total_steps", "count", float64(totalSteps))
	ms.put("walk.message_walks", "count", float64(messageWalks))

	// servestats, below HTTP: the mux's ServeHTTP and the Backend directly
	backend, err := servestats.NewBackend(g, in.assign[0], serveK)
	if err != nil {
		return err
	}
	rec := servestats.NewRecorder(serveK, io.Discard, telemetry.NewRegistry())
	mux := (&servestats.Server{B: backend, R: rec}).Mux()
	reqs := in.streams[0]
	byEndpoint := map[string][]servestats.Request{}
	for _, r := range reqs {
		byEndpoint[r.Endpoint] = append(byEndpoint[r.Endpoint], r)
	}
	dw := &discardWriter{h: http.Header{}}
	serve := func(hr *http.Request) {
		clear(dw.h)
		dw.code = 0
		mux.ServeHTTP(dw, hr)
		if dw.code != http.StatusOK {
			must(fmt.Errorf("%s: handler status %d", hr.URL, dw.code))
		}
	}
	handlerUS := map[string]float64{}
	for _, ep := range servestats.Endpoints {
		rs := byEndpoint[ep]
		if len(rs) == 0 {
			return fmt.Errorf("stream 0 has no %s request", ep)
		}
		hrs := make([]*http.Request, len(rs))
		for i, r := range rs {
			hrs[i] = httptest.NewRequest(http.MethodGet, servestats.RequestPath(r), nil)
		}
		sec, allocs := perCall(len(hrs), func(i int) { serve(hrs[i]) })
		handlerUS[ep] = sec * 1e6
		ms.put("servestats."+ep+"_handler_us", "us", sec*1e6)
		ms.put("servestats."+ep+"_allocs_per_req", "allocs", allocs)
	}
	var visited int
	khops := byEndpoint[servestats.EndpointKHop]
	sec, _ = perCall(len(khops), func(i int) {
		c, _ := backend.KHop(khops[i].Vertex, khops[i].Hops, 0)
		visited += c
	})
	ms.put("servestats.khop_backend_us", "us", sec*1e6)
	ms.put("servestats.khop_visited_mean", "count", float64(visited)/float64(len(khops)))
	walks := byEndpoint[servestats.EndpointWalk]
	sec, _ = perCall(len(walks), func(i int) { backend.Walk(walks[i].Vertex, walks[i].Steps, walks[i].Alpha, walks[i].Seed) })
	ms.put("servestats.walk_backend_us", "us", sec*1e6)
	sec, _ = perCall(20000, func(i int) {
		rec.End(rec.Start(), servestats.EndpointLookup, graph.VertexID(i%g.NumVertices()), i%serveK, 1, http.StatusOK)
	})
	ms.put("servestats.recorder_end_ns", "ns", sec*1e9)
	swapS, _ := timeCall(5, func() {
		clear(dw.h)
		mux.ServeHTTP(dw, httptest.NewRequest(http.MethodPost, "/v1/swapz", bytes.NewReader(in.bodies[1])))
		if dw.code != http.StatusOK {
			must(fmt.Errorf("swap handler status %d", dw.code))
		}
	})
	ms.put("servestats.swap_ms", "ms", swapS*1e3)
	must(rec.Close())

	// servestats through HTTP: what the loopback connection and the client
	// add to the handler, and the open-loop latency independent users see.
	var handlerMean float64
	for _, r := range reqs {
		handlerMean += handlerUS[r.Endpoint] / float64(len(reqs))
	}
	ms.put("servestats.http_overhead_us", "us", mean(in.closedLoop(j, spanRef{}, reqs))-handlerMean)
	runtime.GC()
	lat, late := in.openLoop(j, in.streams[streamPool])
	ms.put("servestats.openloop_p50_us", "us", quantile(lat, 0.50))
	ms.put("servestats.openloop_p99_us", "us", quantile(lat, 0.99))
	ms.put("servestats.openloop_samples", "count", float64(len(lat)))
	ms.put("harness.openloop_late_share", "ratio", late)

	return firstErr
}
