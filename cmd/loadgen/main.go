// Command loadgen drives a reproducible request stream against a running
// bpartd. The stream is generated by internal/servestats' seeded Zipf
// workload — same seed, same requests, same per-part routing — so the
// server-side request log of a loadgen run is a deterministic routing
// trace with only latencies varying between runs.
//
// Usage:
//
//	loadgen -addr 127.0.0.1:8090 -vertices 10000 -n 2000 -seed 42 -zipf 1.1
//	loadgen -addr 127.0.0.1:8090 -vertices 10000 -n 2000 -mix 2,1,1 -open -rate 500
//
// Closed loop (default): -c workers each keep one request in flight,
// drawing from the shared stream — throughput is whatever the server
// sustains. Open loop (-open): requests fire at -rate per second with
// seeded exponential inter-arrival gaps regardless of completions, the
// arrival model that exposes queueing tails closed loops hide. A flag the
// chosen mode ignores (-rate without -open, -c with it) is a usage error.
//
// loadgen prints its own client-side view — per-endpoint counts and
// latency percentiles (the same log-bucketed estimator the server uses) —
// and exits non-zero if any request fails, so CI can use it as a smoke
// gate. The authoritative per-part report comes from the server's -reqlog
// via `tracestat serve`.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"bpart/internal/servestats"
	"bpart/internal/telemetry"
	"bpart/internal/xrand"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr     = fs.String("addr", "127.0.0.1:8090", "bpartd address (host:port)")
		vertices = fs.Int("vertices", 0, "vertex universe size (the served graph's order)")
		n        = fs.Int("n", 1000, "number of requests")
		seed     = fs.Uint64("seed", 1, "workload seed")
		zipf     = fs.Float64("zipf", 1.0, "vertex popularity skew exponent (0 = uniform)")
		mix      = fs.String("mix", "2,1,1", "lookup,khop,walk weights")
		hops     = fs.Int("hops", 2, "hops per khop request")
		steps    = fs.Int("steps", 16, "steps per walk request")
		alpha    = fs.Float64("alpha", 0.15, "walk restart probability")
		conc     = fs.Int("c", 4, "closed-loop concurrency (workers)")
		open     = fs.Bool("open", false, "open-loop arrivals instead of closed-loop workers")
		rate     = fs.Float64("rate", 200, "open-loop arrival rate (requests/second)")
		timeout  = fs.Duration("timeout", 10*time.Second, "per-request timeout")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	weights, err := parseMix(*mix)
	if err != nil {
		fmt.Fprintf(stderr, "loadgen: %v\n", err)
		return 2
	}
	if *vertices <= 0 {
		fmt.Fprintln(stderr, "loadgen: need -vertices (the served graph's order)")
		return 2
	}
	if *conc < 1 {
		fmt.Fprintf(stderr, "loadgen: -c = %d, want >= 1\n", *conc)
		return 2
	}
	// A flag of the other loop mode would be silently ignored: -c sizes
	// the closed loop's workers, -rate paces the open loop's arrivals.
	mode, ignored := "the closed loop", "rate"
	if *open {
		mode, ignored = "-open", "c"
	}
	set := false
	fs.Visit(func(f *flag.Flag) { set = set || f.Name == ignored })
	if set {
		fmt.Fprintf(stderr, "loadgen: %s does not honour -%s\n", mode, ignored)
		return 2
	}
	reqs, err := servestats.Workload{
		Seed: *seed, Vertices: *vertices, Requests: *n, ZipfS: *zipf,
		Hops: *hops, Steps: *steps, Alpha: *alpha,
		LookupW: weights[0], KHopW: weights[1], WalkW: weights[2],
	}.Generate()
	if err != nil {
		fmt.Fprintf(stderr, "loadgen: %v\n", err)
		return 2
	}

	client := &http.Client{Timeout: *timeout}
	base := "http://" + *addr
	var (
		mu     sync.Mutex
		hists  = map[string]*telemetry.Histogram{}
		counts = map[string]int{}
		errs   int
		first  error
	)
	fire := func(r servestats.Request) {
		sw := telemetry.NewStopwatch()
		resp, err := client.Get(base + servestats.RequestPath(r))
		us := sw.Seconds() * 1e6
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("%s: HTTP %d", servestats.RequestPath(r), resp.StatusCode)
			}
		}
		mu.Lock()
		defer mu.Unlock()
		counts[r.Endpoint]++
		if err != nil {
			errs++
			if first == nil {
				first = err
			}
			return
		}
		h := hists[r.Endpoint]
		if h == nil {
			h = &telemetry.Histogram{}
			hists[r.Endpoint] = h
		}
		h.Observe(us)
	}

	start := telemetry.NewStopwatch()
	if *open {
		// Open loop: fire at the scheduled arrival times no matter how the
		// server keeps up. Inter-arrival gaps are seeded exponential draws,
		// so the arrival process replays too.
		if *rate <= 0 {
			fmt.Fprintln(stderr, "loadgen: -open needs -rate > 0")
			return 2
		}
		rng := xrand.New(*seed ^ 0xA1B2C3D4E5F60718)
		var wg sync.WaitGroup
		next := 0.0
		for _, r := range reqs {
			next += expDraw(rng) / *rate
			for start.Seconds() < next {
				time.Sleep(50 * time.Microsecond)
			}
			wg.Add(1)
			go func(r servestats.Request) {
				defer wg.Done()
				fire(r)
			}(r)
		}
		wg.Wait()
	} else {
		var wg sync.WaitGroup
		work := make(chan servestats.Request)
		for w := 0; w < *conc; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for r := range work {
					fire(r)
				}
			}()
		}
		for _, r := range reqs {
			work <- r
		}
		close(work)
		wg.Wait()
	}
	elapsed := start.Seconds()

	total := 0
	for _, c := range counts {
		total += c
	}
	fmt.Fprintf(stdout, "loadgen: %d requests in %.2fs (%.0f req/s), %d errors\n",
		total, elapsed, float64(total)/elapsed, errs)
	for _, ep := range servestats.Endpoints {
		h := hists[ep]
		if counts[ep] == 0 {
			continue
		}
		fmt.Fprintf(stdout, "  %-8s n=%-6d p50=%s p95=%s p99=%s p999=%s\n",
			ep, counts[ep],
			servestats.FormatUS(h.Quantile(0.50)), servestats.FormatUS(h.Quantile(0.95)),
			servestats.FormatUS(h.Quantile(0.99)), servestats.FormatUS(h.Quantile(0.999)))
	}
	if errs > 0 {
		fmt.Fprintf(stderr, "loadgen: first error: %v\n", first)
		return 1
	}
	return 0
}

// parseMix parses "2,1,1" into lookup/khop/walk weights.
func parseMix(s string) ([3]float64, error) {
	var w [3]float64
	fields := strings.Split(s, ",")
	if len(fields) != 3 {
		return w, fmt.Errorf("mix %q: want three comma-separated weights (lookup,khop,walk)", s)
	}
	for i, f := range fields {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil || v < 0 {
			return w, fmt.Errorf("mix %q: bad weight %q", s, f)
		}
		w[i] = v
	}
	return w, nil
}

// expDraw is a unit-mean exponential draw.
func expDraw(rng *xrand.RNG) float64 {
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	return -math.Log(u)
}
