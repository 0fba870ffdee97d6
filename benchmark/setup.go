package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"

	"bpart/internal/core"
	"bpart/internal/gen"
	"bpart/internal/gio"
	"bpart/internal/graph"
	"bpart/internal/partition"
	"bpart/internal/servestats"
	"bpart/internal/telemetry"
	"bpart/internal/xrand"
)

// Fixed work per job. These are constants, not flags: two commits compared
// with this benchmark must do identical work. The README records why each
// differs from the sizes the issue sketched.
const (
	graphScale = 0.7 // twitter-sim: 105 000 vertices, 3.78 M arcs

	pipelinePRIters = 5
	iteratePRIters  = 10
	damping         = 0.85

	serveK        = 8
	closedChunk   = 4000 // requests per closed-loop job
	streamPool    = 8    // distinct request streams for the closed-loop jobs, cycled by round
	tenants       = 8    // seeded Zipf streams interleaved into one request stream
	openLoopRate  = 1500 // requests/second in the open-loop layer measurement
	openLoopCount = 6000
	zipfS         = 1.0
	khopHops      = 2
	walkSteps     = 16
	walkAlpha     = 0.15

	biasLimitK8   = 0.1
	biasLimitK128 = 0.12 // BPart's ε=0.1 target plus the refine pass's slack at k=128
)

// config is what one invocation fixes before set-up.
type config struct {
	scale   float64
	seed    uint64
	outDir  string
	workers int // engine worker pool: min(nproc, 4)
	conns   int // load-generator connections: nproc
	chunk   int // closed-loop requests per serve job
	open    int // requests in the open-loop layer measurement
}

func newConfig(scale float64, seed uint64, outDir string) config {
	n := runtime.NumCPU()
	return config{scale: scale, seed: seed, outDir: outDir, workers: min(n, 4), conns: n, chunk: closedChunk, open: openLoopCount}
}

// inputs is everything the jobs read, generated from the seed in set-up.
// Jobs modify nothing in it but the live server's state (swaps).
type inputs struct {
	cfg       config
	g         *graph.Graph
	graphPath string // binary graph file the pipeline job loads
	partsPath string // where the pipeline job writes its assignment
	bp        *core.BPart

	// assign[0] is the BPart k=8 assignment, assign[1] the Fennel k=8 one;
	// bodies hold the same two in the upload format of POST /v1/swapz.
	assign [2][]int
	bodies [2][]byte

	source graph.VertexID
	oracle struct {
		ranks      map[int][]float64
		labels     []uint32
		components int
		bfs        []int32
		sssp       []int64
	}

	streams [][]servestats.Request
	openGap []float64 // open-loop inter-arrival gaps in seconds

	srv    *httptest.Server
	client *http.Client
	server *servestats.Server
	reqLog *os.File
	swaps  int // swaps posted so far; version = swaps+1
}

// setUp builds every input from the seed. It is the whole of setup_s.
func setUp(cfg config) (*inputs, error) {
	in := &inputs{cfg: cfg}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	gcfg, err := gen.PresetConfig(gen.TwitterSim, cfg.scale)
	if err != nil {
		return nil, err
	}
	gcfg.Seed = cfg.seed
	if in.g, err = gen.ChungLu(gcfg); err != nil {
		return nil, err
	}
	in.graphPath = filepath.Join(cfg.outDir, "graph.bg")
	in.partsPath = filepath.Join(cfg.outDir, "parts.txt")
	if err := gio.WriteFile(in.graphPath, in.g); err != nil {
		return nil, err
	}

	if in.bp, err = core.New(core.Config{}); err != nil {
		return nil, err
	}
	for i, p := range []partition.Partitioner{in.bp, partition.Fennel{}} {
		a, err := p.Partition(in.g, serveK)
		if err != nil {
			return nil, fmt.Errorf("set-up %s: %w", p.Name(), err)
		}
		var buf bytes.Buffer
		if err := gio.WriteAssignment(&buf, a.Parts, a.K); err != nil {
			return nil, err
		}
		in.assign[i], in.bodies[i] = a.Parts, buf.Bytes()
	}

	rng := xrand.New(cfg.seed ^ 0x6A09E667F3BCC908)
	in.source = graph.VertexID(rng.Intn(in.g.NumVertices()))
	in.oracle.ranks = oraclePageRank(in.g, damping, pipelinePRIters, iteratePRIters)
	in.oracle.labels, in.oracle.components = oracleComponents(in.g)
	in.oracle.bfs = oracleBFS(in.g, in.source)
	in.oracle.sssp = oracleSSSP(in.g, in.source)

	// streamPool streams for the closed-loop jobs and one more for the
	// open-loop measurement.
	for i := 0; i <= streamPool; i++ {
		count := cfg.chunk
		if i == streamPool {
			count = cfg.open
		}
		reqs, err := requestStream(rng, in.g.NumVertices(), count)
		if err != nil {
			return nil, err
		}
		in.streams = append(in.streams, reqs)
	}
	in.openGap = make([]float64, cfg.open)
	for i := range in.openGap {
		in.openGap[i] = expDraw(rng) / openLoopRate
	}

	// The real bpartd surface: the servestats mux with the per-request
	// recorder on, as `bpartd -reqlog` runs it, behind a loopback listener.
	if in.reqLog, err = os.Create(filepath.Join(cfg.outDir, "requests.jsonl")); err != nil {
		return nil, err
	}
	backend, err := servestats.NewBackend(in.g, in.assign[0], serveK)
	if err != nil {
		return nil, err
	}
	in.server = &servestats.Server{B: backend, R: servestats.NewRecorder(serveK, in.reqLog, telemetry.NewRegistry())}
	in.srv = httptest.NewServer(in.server.Mux())
	in.client = &http.Client{Transport: &http.Transport{MaxIdleConns: 256, MaxIdleConnsPerHost: 256}}
	return in, nil
}

// requestStream generates count requests with the cmd/loadgen defaults:
// Zipf-1.0 popularity over a seeded permutation, mix 2:1:1 lookup / khop /
// walk. The stream interleaves several tenants, each with its own hot set:
// with a single one, the hottest vertex draws 9 % of the requests, and
// whether its 2-hop neighbourhood is large or small moves a job by more
// than any change this benchmark is meant to see.
func requestStream(rng *xrand.RNG, vertices, count int) ([]servestats.Request, error) {
	per := (count + tenants - 1) / tenants
	parts := make([][]servestats.Request, tenants)
	for t := range parts {
		var err error
		parts[t], err = servestats.Workload{
			Seed: rng.Uint64(), Vertices: vertices, Requests: per, ZipfS: zipfS,
			Hops: khopHops, Steps: walkSteps, Alpha: walkAlpha, LookupW: 2, KHopW: 1, WalkW: 1,
		}.Generate()
		if err != nil {
			return nil, err
		}
	}
	out := make([]servestats.Request, 0, per*tenants)
	for i := 0; i < per; i++ {
		for t := range parts {
			out = append(out, parts[t][i])
		}
	}
	return out[:count], nil
}

// close stops the server and waits for it, then surfaces request-log
// write errors.
func (in *inputs) close() error {
	in.client.CloseIdleConnections()
	in.srv.Close()
	err := in.server.R.Close()
	if cerr := in.reqLog.Close(); err == nil {
		err = cerr
	}
	return err
}
