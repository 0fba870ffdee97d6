package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"bpart/internal/servestats"
	"bpart/internal/xrand"
)

// expDraw is a unit-mean exponential draw, as cmd/loadgen spaces its
// open-loop arrivals.
func expDraw(rng *xrand.RNG) float64 {
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	return -math.Log(u)
}

// reply is the part of every serving response the checks read: all three
// endpoints report the vertex, its part and the assignment version the
// whole response was answered against.
type reply struct {
	Vertex  int64 `json:"vertex"`
	Part    int   `json:"part"`
	Version int   `json:"version"`
}

// partsOf maps an assignment version to the assignment that version
// published. The harness is the only swapper and alternates its uploads,
// so version 1, 3, 5… serve assign[0] (BPart) and 2, 4, 6… assign[1]
// (Fennel).
func (in *inputs) partsOf(version int) []int {
	if version < 1 {
		return nil
	}
	return in.assign[(version-1)%2]
}

// fire sends one request and checks the reply: 2xx, JSON decodes, and the
// reported part is the vertex's part in the one version the reply names.
func (in *inputs) fire(r servestats.Request) error {
	resp, err := in.client.Get(in.srv.URL + servestats.RequestPath(r))
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return fmt.Errorf("%s: HTTP %d", servestats.RequestPath(r), resp.StatusCode)
	}
	var rep reply
	if err := json.Unmarshal(body, &rep); err != nil {
		return fmt.Errorf("%s: %w", servestats.RequestPath(r), err)
	}
	want := -1
	if parts := in.partsOf(rep.Version); parts != nil {
		want = parts[r.Vertex]
	}
	if rep.Vertex != int64(r.Vertex) || rep.Part != want {
		return fmt.Errorf("%s: vertex %d part %d at version %d, assignment says %d",
			servestats.RequestPath(r), rep.Vertex, rep.Part, rep.Version, want)
	}
	return nil
}

// swap uploads the other assignment and checks the version it published.
func (in *inputs) swap() error {
	in.swaps++
	want := in.swaps + 1
	resp, err := in.client.Post(in.srv.URL+"/v1/swapz", "text/plain", bytes.NewReader(in.bodies[(want-1)%2]))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var sr servestats.SwapResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		return fmt.Errorf("swap: %w", err)
	}
	if resp.StatusCode != http.StatusOK || sr.Version != want || sr.K != serveK {
		return fmt.Errorf("swap: HTTP %d version %d k %d, want version %d k %d", resp.StatusCode, sr.Version, sr.K, want, serveK)
	}
	return nil
}

// closedLoop plays reqs over cfg.conns keep-alive connections, each
// sending its next request when the previous reply has arrived, and posts
// one assignment swap when half the stream has been handed out, so reads
// race a write. It returns the client-side latencies in µs.
func (in *inputs) closedLoop(j *job, parent spanRef, reqs []servestats.Request) []float64 {
	lat := make([]float64, len(reqs))
	errs := make([]error, len(reqs))
	var swapErr error
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < in.cfg.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				if i == len(reqs)/2 {
					sp := j.beginUnder(parent, "servestats.swap")
					swapErr = in.swap()
					sp.end()
				}
				t := time.Now()
				errs[i] = in.fire(reqs[i])
				lat[i] = float64(time.Since(t)) / float64(time.Microsecond)
			}
		}()
	}
	wg.Wait()
	j.op(swapErr)
	for _, err := range errs {
		j.op(err)
	}
	return lat
}

// openLoop fires reqs on the seeded arrival schedule whether or not
// earlier replies have come back, as independent users do. Latency runs
// from the moment a request was due, so a stall charges every request
// queued behind it. It returns the latencies in µs and the share of
// requests the generator sent more than 1 ms after they were due.
func (in *inputs) openLoop(j *job, reqs []servestats.Request) (lat []float64, lateShare float64) {
	lat = make([]float64, len(reqs))
	errs := make([]error, len(reqs))
	late := 0
	var wg sync.WaitGroup
	start := time.Now()
	due := time.Duration(0)
	for i := range reqs {
		due += time.Duration(in.openGap[i] * float64(time.Second))
		// Sleep in the kernel, not in the runtime: an idle Go process waits
		// for its timers in whole milliseconds, so time.Sleep wakes up to
		// 1 ms late, and that would be charged to the server as latency.
		for wait := due - time.Since(start); wait > 0; wait = due - time.Since(start) {
			ts := syscall.NsecToTimespec(int64(wait))
			syscall.Nanosleep(&ts, nil) // an interrupted sleep just loops
		}
		if time.Since(start)-due > time.Millisecond {
			late++
		}
		wg.Add(1)
		go func(i int, due time.Duration) {
			defer wg.Done()
			errs[i] = in.fire(reqs[i])
			lat[i] = float64(time.Since(start)-due) / float64(time.Microsecond)
		}(i, due)
	}
	wg.Wait()
	for _, err := range errs {
		j.op(err)
	}
	return lat, float64(late) / float64(len(reqs))
}
