// Command bpartd is the long-running serving daemon: it loads a graph and
// an assignment, then answers placement lookups, k-hop neighborhood
// queries and seeded random-walk/PPR requests over HTTP — the serving
// workload whose tail latency the paper's two-dimensional balance argument
// is ultimately about.
//
// Usage:
//
//	bpartd -graph twitter.el -assign parts.txt -addr :8090
//	bpartd -dataset twitter-sim -scale 0.1 -scheme BPart -k 8 -reqlog reqs.jsonl
//
// The graph comes from a file (-graph) or a named synthetic dataset
// (-dataset at -scale); the assignment from a file (-assign, the cmd/bpart
// -out format) or a scheme partitioned at boot (-scheme -k). Endpoints:
//
//	GET  /v1/lookup?v=ID                       placement lookup
//	GET  /v1/khop?v=ID&hops=H&limit=L          k-hop neighborhood
//	GET  /v1/walk?v=ID&steps=S&alpha=A&seed=X  seeded walk / PPR
//	POST /v1/swapz[?scheme=S&k=N]              assignment hot-swap
//	GET  /v1/statz                             windowed latency snapshot
//	GET  /healthz, /readyz                     probes (ready after load)
//
// plus /metrics, /debug/pprof/* and /debug/vars from the shared debug mux.
// Hot-swap either uploads an assignment body (cmd/bpart -out format) or
// names a scheme to repartition in-process; the flip is atomic and
// in-flight requests finish on the version they started with.
//
// Observability: -reqlog out.jsonl streams one versioned JSONL record per
// request (feed it to `tracestat serve`); /v1/statz serves windowed
// p50/p95/p99/p999 per endpoint. With no -reqlog the per-request stats
// recorder is off and the serving hot path allocates no stats records.
// On SIGINT/SIGTERM the daemon drains, flushes the request log and exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"bpart"
	"bpart/internal/servestats"
	"bpart/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// daemon is everything run assembles before serving: testable without a
// socket.
type daemon struct {
	srv    *servestats.Server
	mux    *http.ServeMux
	health *telemetry.Health
	reg    *telemetry.Registry
	logf   *os.File // request log file, flushed+closed on shutdown
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bpartd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		graphPath  = fs.String("graph", "", "graph file (edge list, or .bg binary)")
		datasetID  = fs.String("dataset", "", "synthetic dataset: lj-sim, twitter-sim, friendster-sim")
		scale      = fs.Float64("scale", 1.0, "synthetic dataset scale")
		assignPath = fs.String("assign", "", "assignment file (cmd/bpart -out format)")
		scheme     = fs.String("scheme", "", "partition at boot with this scheme (alternative to -assign)")
		k          = fs.Int("k", 8, "parts for -scheme")
		addr       = fs.String("addr", "127.0.0.1:8090", "listen address")
		reqlog     = fs.String("reqlog", "", "write one JSONL record per request to this file (enables serving stats)")
		outPath    = fs.String("out", "", "dump the active assignment to this file after load (for log reconciliation)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	d, err := build(*graphPath, *datasetID, *scale, *assignPath, *scheme, *k, *reqlog)
	if err != nil {
		fmt.Fprintf(stderr, "bpartd: %v\n", err)
		return 1
	}
	if *outPath != "" {
		view := d.srv.B.View()
		if err := bpart.WriteAssignmentFile(*outPath, &bpart.Assignment{Parts: view.Parts(), K: view.K()}); err != nil {
			fmt.Fprintf(stderr, "bpartd: %v\n", err)
			return 1
		}
	}
	lis, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "bpartd: %v\n", err)
		return 1
	}
	g := d.srv.B.Graph()
	fmt.Fprintf(stdout, "bpartd: serving %d vertices / %d edges, k=%d, on http://%s\n",
		g.NumVertices(), g.NumEdges(), d.srv.B.View().K(), lis.Addr())
	d.health.SetReady(true)

	// No WriteTimeout: /v1/swapz?scheme= legitimately runs a partitioner for
	// seconds. The other two stop a client that never finishes its headers,
	// or never sends another request, from holding a connection forever:
	// 5 s is generous for a header block, and 2 min outlasts the pauses of
	// a keep-alive load generator between runs.
	httpSrv := &http.Server{
		Handler:           d.mux,
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(lis) }()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		fmt.Fprintf(stdout, "bpartd: %v, draining\n", sig)
	case err := <-errc:
		fmt.Fprintf(stderr, "bpartd: serve: %v\n", err)
		return 1
	}
	d.health.SetReady(false)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		fmt.Fprintf(stderr, "bpartd: shutdown: %v\n", err)
	}
	if err := d.close(); err != nil {
		fmt.Fprintf(stderr, "bpartd: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, "bpartd: bye")
	return 0
}

// build loads the graph and assignment and assembles the serving mux; it
// is the boot path minus the socket, which is what the tests drive.
func build(graphPath, datasetID string, scale float64, assignPath, scheme string, k int, reqlog string) (*daemon, error) {
	var g *bpart.Graph
	var err error
	switch {
	case graphPath != "" && datasetID != "":
		return nil, fmt.Errorf("-graph and -dataset are mutually exclusive")
	case graphPath != "":
		g, err = bpart.ReadGraphFile(graphPath)
	case datasetID != "":
		g, err = bpart.Preset(bpart.Dataset(datasetID), scale)
	default:
		return nil, fmt.Errorf("need -graph or -dataset")
	}
	if err != nil {
		return nil, err
	}

	var parts []int
	switch {
	case assignPath != "" && scheme != "":
		return nil, fmt.Errorf("-assign and -scheme are mutually exclusive")
	case assignPath != "":
		var a *bpart.Assignment
		if a, err = bpart.ReadAssignmentFile(assignPath); err != nil {
			return nil, err
		}
		parts, k = a.Parts, a.K
	case scheme != "":
		var a *bpart.Assignment
		if a, err = bpart.Partition(g, scheme, k); err != nil {
			return nil, err
		}
		parts = a.Parts
	default:
		return nil, fmt.Errorf("need -assign or -scheme")
	}

	b, err := servestats.NewBackend(g, parts, k)
	if err != nil {
		return nil, err
	}
	d := &daemon{
		reg:    telemetry.NewRegistry(),
		health: telemetry.NewHealth(),
	}
	var rec *servestats.Recorder
	if reqlog != "" {
		d.logf, err = os.Create(reqlog)
		if err != nil {
			return nil, err
		}
		rec = servestats.NewRecorder(k, d.logf, d.reg)
	}
	d.srv = &servestats.Server{
		B: b,
		R: rec,
		Repartition: func(scheme string, k int) ([]int, error) {
			a, err := bpart.Partition(g, scheme, k)
			if err != nil {
				return nil, err
			}
			return a.Parts, nil
		},
	}
	d.mux = telemetry.DebugMux(d.reg, d.health)
	d.srv.Register(d.mux)
	return d, nil
}

// close flushes and closes the request log, surfacing sticky write errors —
// a full disk must not silently truncate the log.
func (d *daemon) close() error {
	var errs []error
	if d.srv.R != nil {
		errs = append(errs, d.srv.R.Close())
	}
	if d.logf != nil {
		errs = append(errs, d.logf.Close())
	}
	return errors.Join(errs...)
}
