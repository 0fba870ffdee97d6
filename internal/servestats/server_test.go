package servestats

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"bpart/internal/core"
	"bpart/internal/gen"
	"bpart/internal/gio"
)

func newTestServer(t *testing.T, n, k int, logSink *bytes.Buffer) (*Server, *Backend) {
	t.Helper()
	g := ringGraph(n)
	b, err := NewBackend(g, blockAssignment(n, k), k)
	if err != nil {
		t.Fatal(err)
	}
	var rec *Recorder
	if logSink != nil {
		rec = NewRecorder(k, logSink, nil)
	}
	return &Server{B: b, R: rec}, b
}

func getJSON(t *testing.T, mux *http.ServeMux, path string, out any) int {
	t.Helper()
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	if out != nil && rec.Code == 200 {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("%s: bad JSON %q: %v", path, rec.Body.String(), err)
		}
	}
	return rec.Code
}

func TestServerEndpoints(t *testing.T) {
	var buf bytes.Buffer
	s, _ := newTestServer(t, 16, 4, &buf)
	mux := s.Mux()

	var lr LookupResponse
	if code := getJSON(t, mux, "/v1/lookup?v=5", &lr); code != 200 {
		t.Fatalf("lookup = %d", code)
	}
	if lr.Vertex != 5 || lr.Part != 1 || lr.Version != 1 {
		t.Fatalf("lookup = %+v", lr)
	}

	var kr KHopResponse
	if code := getJSON(t, mux, "/v1/khop?v=0&hops=2&limit=2", &kr); code != 200 {
		t.Fatalf("khop = %d", code)
	}
	if kr.Count != 4 || len(kr.Sample) != 2 || kr.Version != 1 {
		t.Fatalf("khop = %+v", kr)
	}

	var wr WalkResponse
	if code := getJSON(t, mux, "/v1/walk?v=3&steps=20&alpha=0.1&seed=9", &wr); code != 200 {
		t.Fatalf("walk = %d", code)
	}
	if wr.Visited != 20 || wr.Version != 1 || wr.Part != 0 {
		t.Fatalf("walk = %+v", wr)
	}
	var wr2 WalkResponse
	getJSON(t, mux, "/v1/walk?v=3&steps=20&alpha=0.1&seed=9", &wr2)
	if wr2.End != wr.End {
		t.Fatalf("seeded walk not reproducible over HTTP: %d vs %d", wr2.End, wr.End)
	}

	for _, path := range []string{
		"/v1/lookup", "/v1/lookup?v=banana", "/v1/lookup?v=99",
		"/v1/khop?v=0&hops=0", "/v1/khop?v=0&limit=-1",
		"/v1/walk?v=0&steps=0", "/v1/walk?v=0&alpha=2", "/v1/walk?v=0&seed=x",
	} {
		if code := getJSON(t, mux, path, nil); code != 400 {
			t.Errorf("%s = %d, want 400", path, code)
		}
	}

	var st StatzResponse
	if code := getJSON(t, mux, "/v1/statz", &st); code != 200 {
		t.Fatalf("statz = %d", code)
	}
	if st.Version != 1 || st.K != 4 || st.Inflight != 0 || len(st.Window) != len(Endpoints) {
		t.Fatalf("statz = %+v", st)
	}

	if err := s.R.Close(); err != nil {
		t.Fatal(err)
	}
	l, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// 4 good + 8 bad requests recorded (statz is not a serving endpoint).
	if len(l.Records) != 12 {
		t.Fatalf("recorded %d requests, want 12", len(l.Records))
	}
}

func TestServerSwapByBodyAndScheme(t *testing.T) {
	s, b := newTestServer(t, 12, 2, nil)
	mux := s.Mux()

	// Upload an assignment body in the gio text format.
	var body bytes.Buffer
	if err := gio.WriteAssignment(&body, blockAssignment(12, 3), 3); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/swapz", &body))
	if rec.Code != 200 {
		t.Fatalf("swap by body = %d: %s", rec.Code, rec.Body.String())
	}
	var sr SwapResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Version != 2 || sr.K != 3 || b.View().K() != 3 {
		t.Fatalf("swap = %+v, backend k=%d", sr, b.View().K())
	}

	// Repartition callback path.
	s.Repartition = func(scheme string, k int) ([]int, error) {
		if scheme == "fail" {
			return nil, fmt.Errorf("scheme exploded")
		}
		return blockAssignment(12, k), nil
	}
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/swapz?scheme=Hash&k=4", nil))
	if rec.Code != 200 {
		t.Fatalf("swap by scheme = %d: %s", rec.Code, rec.Body.String())
	}
	if v := b.View(); v.Version() != 3 || v.K() != 4 {
		t.Fatalf("backend after scheme swap = v%d k%d", v.Version(), v.K())
	}
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/swapz?scheme=fail", nil))
	if rec.Code != 422 {
		t.Fatalf("failing repartition = %d", rec.Code)
	}
	// GET is rejected; a bad body is rejected.
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/swapz", nil))
	if rec.Code != 405 {
		t.Fatalf("GET swap = %d", rec.Code)
	}
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/swapz", strings.NewReader("junk")))
	if rec.Code != 400 {
		t.Fatalf("junk swap body = %d", rec.Code)
	}
}

// TestSwapRejectsHostileBodies posts assignment bodies built to hurt — a
// header whose n overflows make's capacity, one that asks for 16 GB, and a
// body far longer than the served graph could need — over a real
// connection: each gets a 4xx, nothing panics, and the old view keeps
// serving at the old version.
func TestSwapRejectsHostileBodies(t *testing.T) {
	s, _ := newTestServer(t, 12, 2, nil)
	var errLog bytes.Buffer // written by the server until ts.Close returns
	ts := httptest.NewUnstartedServer(s.Mux())
	ts.Config.ErrorLog = log.New(&errLog, "", 0)
	ts.Start()
	for _, tc := range []struct {
		name, body string
		status     int
	}{
		{"n overflows make", "# bpart assignment k=1 n=4000000000000000\n0\n", 400},
		{"n asks for 16 GB", "# bpart assignment k=1 n=2000000000\n0\n", 400},
		{"over-long", "# bpart assignment k=2 n=12\n" + strings.Repeat("# padding\n", 200) + strings.Repeat("1\n", 12), 413},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/swapz", "text/plain", strings.NewReader(tc.body))
			if err != nil {
				t.Fatalf("swap: %v", err)
			}
			var reply map[string]string
			err = json.NewDecoder(resp.Body).Decode(&reply)
			resp.Body.Close()
			if resp.StatusCode != tc.status || err != nil || reply["error"] == "" {
				t.Fatalf("swap = %d %v (decode: %v), want %d with an error body", resp.StatusCode, reply, err, tc.status)
			}
			resp, err = http.Get(ts.URL + "/v1/lookup?v=11")
			if err != nil {
				t.Fatalf("lookup after rejected swap: %v", err)
			}
			var lr LookupResponse
			err = json.NewDecoder(resp.Body).Decode(&lr)
			resp.Body.Close()
			if err != nil || lr.Version != 1 || lr.Part != 1 {
				t.Fatalf("lookup after rejected swap = %+v (%v), want part 1 at version 1", lr, err)
			}
		})
	}
	ts.Close()
	if errLog.Len() != 0 {
		t.Fatalf("server logged:\n%s", errLog.String())
	}
}

// TestSeededRunDeterministicRouting is the acceptance criterion: the same
// seeded workload against the same assignment produces the same request
// stream and per-part routing — the wall-clock-stripped logs are
// identical, record for record.
func TestSeededRunDeterministicRouting(t *testing.T) {
	run := func() []Record {
		var buf bytes.Buffer
		s, _ := newTestServer(t, 64, 4, &buf)
		reqs, err := Workload{
			Seed: 1234, Vertices: 64, Requests: 300, ZipfS: 1.0,
			LookupW: 2, KHopW: 1, WalkW: 1,
		}.Generate()
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Play(reqs); err != nil {
			t.Fatal(err)
		}
		if err := s.R.Close(); err != nil {
			t.Fatal(err)
		}
		l, err := Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		return l.Records
	}
	a, b := run(), run()
	if len(a) != 300 || len(b) != 300 {
		t.Fatalf("runs recorded %d and %d requests, want 300", len(a), len(b))
	}
	// Every field but the wall-clock LatencyUS is deterministic.
	for i := range a {
		x, y := a[i], b[i]
		if x.Seq != y.Seq || x.Endpoint != y.Endpoint || x.Vertex != y.Vertex || x.Part != y.Part || x.Version != y.Version || x.Status != y.Status {
			t.Fatalf("seeded runs produced different routing traces at record %d: %+v vs %+v", i, x, y)
		}
	}
	// And the trace reconciles exactly against the assignment.
	attrib, err := Attribute(&Log{Records: a}, blockAssignment(64, 4), 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, row := range attrib {
		total += row.Requests
	}
	if total != 300 {
		t.Fatalf("attribution covers %d of 300 requests", total)
	}
}

// TestHotSwapUnderLoad is the hot-swap acceptance criterion: an atomic
// flip under concurrent load completes with zero failed requests, and
// every response is attributable to exactly one assignment version — its
// reported part matches that version's assignment, never a mix.
func TestHotSwapUnderLoad(t *testing.T) {
	const n = 64
	partsV1 := blockAssignment(n, 2)
	partsV2 := make([]int, n) // reversed blocks, different k
	for i := range partsV2 {
		partsV2[i] = (n - 1 - i) * 4 / n
	}

	var buf bytes.Buffer
	g := ringGraph(n)
	b, err := NewBackend(g, partsV1, 2)
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder(2, &buf, nil)
	s := &Server{B: b, R: rec}
	mux := s.Mux()

	type obs struct {
		vertex  int64
		part    int
		version int
		code    int
	}
	const workers, perWorker = 8, 200
	results := make([][]obs, workers)
	var start sync.WaitGroup
	start.Add(1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			start.Wait()
			for i := 0; i < perWorker; i++ {
				if w == 0 && i == perWorker/2 {
					// Mid-stream, one worker triggers the swap so load
					// genuinely straddles the flip.
					if _, err := b.Swap(partsV2, 4); err != nil {
						t.Errorf("swap: %v", err)
					}
				}
				v := (w*perWorker + i) % n
				r := httptest.NewRecorder()
				mux.ServeHTTP(r, httptest.NewRequest("GET", fmt.Sprintf("/v1/lookup?v=%d", v), nil))
				var lr LookupResponse
				if r.Code == 200 {
					if err := json.Unmarshal(r.Body.Bytes(), &lr); err != nil {
						t.Errorf("bad lookup body: %v", err)
					}
				}
				results[w] = append(results[w], obs{int64(v), lr.Part, lr.Version, r.Code})
			}
		}(w)
	}
	start.Done()
	wg.Wait()

	var v1, v2 int
	for _, rs := range results {
		for _, o := range rs {
			if o.code != 200 {
				t.Fatalf("request failed with %d during swap", o.code)
			}
			switch o.version {
			case 1:
				v1++
				if want := partsV1[o.vertex]; o.part != want {
					t.Fatalf("v1 response routed vertex %d to part %d, assignment says %d", o.vertex, o.part, want)
				}
			case 2:
				v2++
				if want := partsV2[o.vertex]; o.part != want {
					t.Fatalf("v2 response routed vertex %d to part %d, assignment says %d", o.vertex, o.part, want)
				}
			default:
				t.Fatalf("response attributed to version %d", o.version)
			}
		}
	}
	if v1+v2 != workers*perWorker {
		t.Fatalf("version census %d+%d covers %d of %d responses", v1, v2, v1+v2, workers*perWorker)
	}
	if v2 == 0 {
		t.Fatal("no response observed the new version; swap never took effect under load")
	}

	// The request log reconciles per version too: each version's records
	// attribute cleanly against that version's assignment.
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	l, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Records) != workers*perWorker {
		t.Fatalf("log has %d records, want %d", len(l.Records), workers*perWorker)
	}
	if _, err := Attribute(l, partsV1, 2, 1); err != nil {
		t.Fatalf("v1 attribution: %v", err)
	}
	if _, err := Attribute(l, partsV2, 4, 2); err != nil {
		t.Fatalf("v2 attribution: %v", err)
	}
	rep := Summarize(l)
	if len(rep.Versions) != 2 {
		t.Fatalf("version census = %+v", rep.Versions)
	}
}

// pinnedReplySHA256 is the SHA-256 TestReplyBytesPinned computes. It was
// recorded on commit 07d98e5 — the last one whose KHop kept a per-request
// visited map and whose handlers re-parsed the query string per parameter —
// so every later change to the serving path proves its replies, error
// strings and request-log records byte-identical to that implementation's.
const pinnedReplySHA256 = "37802ca9e6b2275a64f2654c6b28b7860d8e0b498341281620853dbb92457271"

// TestReplyBytesPinned drives a seeded 2:1:1 stream (k-hops with limit=16,
// so samples are covered) plus every 400 path through the mux and hashes
// each reply's status and body, then the wall-clock-stripped request log
// (the vertex Recorder.End saw on each error path included).
func TestReplyBytesPinned(t *testing.T) {
	g, err := gen.Preset(gen.LJSim, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	bp, err := core.New(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := bp.Partition(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBackend(g, a.Parts, 8)
	if err != nil {
		t.Fatal(err)
	}
	var logBuf bytes.Buffer
	s := &Server{B: b, R: NewRecorder(8, &logBuf, nil)}
	mux := s.Mux()
	reqs, err := Workload{
		Seed: 21, Vertices: g.NumVertices(), Requests: 3000, ZipfS: 1.0,
		LookupW: 2, KHopW: 1, WalkW: 1,
	}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	bad := []string{
		"/v1/lookup", "/v1/khop", "/v1/walk",
		"/v1/lookup?v=banana", "/v1/khop?v=-1&hops=2", "/v1/walk?v=&steps=4",
		fmt.Sprintf("/v1/lookup?v=%d", g.NumVertices()),
		fmt.Sprintf("/v1/khop?v=%d&limit=x", g.NumVertices()+7),
		"/v1/walk?v=4294967296",
		"/v1/khop?v=3&hops=9", "/v1/khop?v=3&hops=two", "/v1/khop?v=3&limit=1025",
		"/v1/walk?v=5&steps=0", "/v1/walk?v=5&alpha=1", "/v1/walk?v=5&alpha=x&seed=y",
		"/v1/walk?v=5&seed=x", "/v1/walk?v=5&seed=-1",
		"/v1/lookup?v=7;hops=2", "/v1/khop?v=7&v=8&hops=1&hops=99&limit=16",
	}
	var replies bytes.Buffer // every status, body and log record, hashed at the end
	play := func(path string) {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		fmt.Fprintf(&replies, "%d\n%s", rec.Code, rec.Body.Bytes())
	}
	for i, r := range reqs {
		path := RequestPath(r)
		if r.Endpoint == EndpointKHop {
			path += "&limit=16"
		}
		play(path)
		if i%150 == 0 {
			play(bad[i/150%len(bad)])
		}
	}
	if err := s.R.Close(); err != nil {
		t.Fatal(err)
	}
	l, err := Read(&logBuf)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(reqs) + len(reqs)/150; len(l.Records) != want {
		t.Fatalf("request log has %d records, want %d", len(l.Records), want)
	}
	for _, r := range l.Records {
		r.LatencyUS = 0 // the one wall-clock field; the rest is pinned
		fmt.Fprintf(&replies, "%+v\n", r)
	}
	sum := sha256.Sum256(replies.Bytes())
	if got := hex.EncodeToString(sum[:]); got != pinnedReplySHA256 {
		t.Fatalf("reply bytes changed: sha256 = %s, pinned %s", got, pinnedReplySHA256)
	}
}
