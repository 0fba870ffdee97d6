package main

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

// samples accumulates what the jobs of one workload measured: per timed
// job, in round order, the wall time and the MB allocated.
type samples struct {
	jobS, allocMB     []float64
	attempted, failed int
	firstErr          error
}

// harness runs jobs over one set of inputs.
type harness struct {
	in    *inputs
	first map[string]map[string]any // per workload: outputs of its first job
}

func newHarness(in *inputs) *harness {
	return &harness{in: in, first: map[string]map[string]any{}}
}

// runJob executes one job of w. The collection runs before the clock
// starts, so a job never pays for its predecessor's garbage.
func (h *harness) runJob(w *workload, round int, tr *tracer) *job {
	if h.first[w.name] == nil {
		h.first[w.name] = map[string]any{}
	}
	j := &job{workload: w.name, round: round, first: h.first[w.name], tr: tr, run: tr.newRun()}
	runtime.GC()
	runtime.ReadMemStats(&j.mem0)
	j.start = time.Now()
	j.self = tr.begin(j.run, spanRef{}, w.name, "job."+w.name)
	w.run(h.in, j)
	j.done()
	return j
}

func (s *samples) add(j *job, timed bool) {
	s.attempted += j.attempted
	s.failed += j.failed
	if s.firstErr == nil {
		s.firstErr = j.firstErr
	}
	if timed {
		s.jobS = append(s.jobS, j.end.Sub(j.start).Seconds())
		s.allocMB = append(s.allocMB, float64(j.mem1.TotalAlloc-j.mem0.TotalAlloc)/1e6)
	}
}

// rounds runs rounds of the selected workloads until stop says so, after
// one untimed warm-up job of each. A round executes, per workload in fixed
// order, one job under each of the given tracers (nil is tracing off), so
// traced and untraced jobs alternate and see the same host drift; which
// of them goes first alternates by round. It returns the samples per
// tracer and workload; sample i of every tracer comes from round i.
func (h *harness) rounds(sel []*workload, stop func(done int) bool, tracers ...*tracer) []map[string]*samples {
	out := make([]map[string]*samples, len(tracers))
	for i := range out {
		out[i] = map[string]*samples{}
		for _, w := range sel {
			out[i][w.name] = &samples{}
		}
	}
	for _, w := range sel {
		out[0][w.name].add(h.runJob(w, 0, nil), false)
	}
	for r := 1; !stop(r - 1); r++ {
		for _, w := range sel {
			for i := range tracers {
				if r%2 == 0 {
					i = len(tracers) - 1 - i
				}
				out[i][w.name].add(h.runJob(w, r, tracers[i]), true)
			}
		}
	}
	return out
}

// timedSetUp sets up reps times and returns the last inputs with the
// median set-up time. Earlier inputs are shut down before the next set-up
// starts.
func timedSetUp(cfg config, reps int) (*inputs, float64, error) {
	var in *inputs
	var times []float64
	for i := 0; i < reps; i++ {
		if in != nil {
			if err := in.close(); err != nil {
				return nil, 0, err
			}
		}
		runtime.GC()
		t := time.Now()
		var err error
		if in, err = setUp(cfg); err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t).Seconds())
	}
	return in, median(times), nil
}

// peakRSSMB reads the process's high-water resident set from /proc.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	var kb float64
	for _, line := range strings.Split(string(data), "\n") {
		if _, err := fmt.Sscanf(line, "VmHWM: %f kB", &kb); err == nil {
			return kb / 1e3
		}
	}
	return 0
}
