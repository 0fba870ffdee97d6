package servestats

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http/httptest"
	"testing"
)

// FuzzRead throws arbitrary byte streams at the JSONL request-log reader,
// mirroring traceview.FuzzRead. The reader faces
// logs written by a server that may have been killed mid-line, so it must
// never panic, and its tolerance contract is precise: only the final line
// may be damaged — and only when a usable prefix precedes it (flagged via
// Truncated); damage anywhere earlier, or a file with no usable records at
// all, is a hard error. Anything that parses cleanly must survive a second
// pass over the same bytes with identical results.
func FuzzRead(f *testing.F) {
	f.Add([]byte(goodLine + "\n"))
	f.Add([]byte(goodLine + "\n" + `{"v":1,"type":"request","seq":2,"endpoint":"walk","vertex":3,"part":1,"version":2,"status":200,"latency_us":99}` + "\n"))
	// Torn final line after a usable prefix: the only damage Read tolerates.
	f.Add([]byte(goodLine + "\n" + `{"v":1,"type":"requ`))
	// Interior damage: must be a hard error.
	f.Add([]byte("garbage\n" + goodLine + "\n"))
	// Whole-file garbage: must be a hard error, not Truncated+empty.
	f.Add([]byte("not a request log\n"))
	f.Add([]byte(`{"v":1,"type":"wormhole"}` + "\n"))
	f.Add([]byte(`{"v":99,"type":"request","endpoint":"lookup"}` + "\n"))
	f.Add([]byte(`{"v":1,"type":"request","endpoint":"lookup","latency_us":-1}` + "\n"))
	f.Add([]byte("\n\n  \n"))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xfe, 0x00})

	f.Fuzz(func(t *testing.T, data []byte) {
		l, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		if l == nil {
			t.Fatal("Read returned nil log with nil error")
		}
		// A truncated-but-empty log would hide a non-log file from callers;
		// the reader promises never to produce one.
		if l.Truncated && len(l.Records) == 0 {
			t.Fatal("Read produced Truncated with no usable records")
		}
		l2, err2 := Read(bytes.NewReader(data))
		if err2 != nil {
			t.Fatalf("second Read of identical bytes failed: %v", err2)
		}
		if l2.Truncated != l.Truncated || len(l2.Records) != len(l.Records) {
			t.Fatal("non-deterministic parse of identical bytes")
		}
		for _, r := range l.Records {
			if r.LatencyUS < 0 || r.Part < -1 {
				t.Fatalf("invalid record escaped validation: %+v", r)
			}
			switch r.Endpoint {
			case EndpointLookup, EndpointKHop, EndpointWalk:
			default:
				t.Fatalf("unknown endpoint escaped validation: %+v", r)
			}
		}
		// The report must survive anything Read accepts.
		_ = WriteText(io.Discard, Summarize(l), nil)
	})
}

// FuzzHandlers throws arbitrary raw query strings at the three GET
// handlers over a small fixed graph. The query string is the one input the
// serving path takes from strangers, so the contract is as precise as the
// reader's above: never a panic, the status is 200 or 400, a 200 body
// decodes and echoes a vertex of the graph, and a 400 body is
// {"error": "..."} and nothing else.
func FuzzHandlers(f *testing.F) {
	f.Add("v=3")
	f.Add("v=3&hops=2&limit=4")
	f.Add("v=3&steps=20&alpha=0.1&seed=9")
	f.Add("")
	f.Add("v=banana")
	f.Add("v=16")
	f.Add("v=-1&hops=9")
	f.Add("v=1&v=2&hops=&limit=1025")
	f.Add("v=1&alpha=1&seed=x")
	f.Add("v=1;hops=2")
	f.Add("v=%zz&steps=1048577")
	f.Add("v=0&alpha=NaN&seed=18446744073709551616")

	const n = 16
	b, err := NewBackend(ringGraph(n), blockAssignment(n, 4), 4)
	if err != nil {
		f.Fatal(err)
	}
	mux := (&Server{B: b}).Mux()
	f.Fuzz(func(t *testing.T, query string) {
		for _, path := range []string{"/v1/lookup", "/v1/khop", "/v1/walk"} {
			req := httptest.NewRequest("GET", path, nil)
			req.URL.RawQuery = query // NewRequest would reject what a socket can carry
			rec := httptest.NewRecorder()
			mux.ServeHTTP(rec, req)
			switch rec.Code {
			case 200:
				var reply struct {
					Vertex *int64 `json:"vertex"`
				}
				if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil || reply.Vertex == nil {
					t.Fatalf("%s?%s: 200 body %q does not echo a vertex (%v)", path, query, rec.Body.String(), err)
				}
				if *reply.Vertex < 0 || *reply.Vertex >= n {
					t.Fatalf("%s?%s: 200 for vertex %d of a %d-vertex graph", path, query, *reply.Vertex, n)
				}
			case 400:
				var reply map[string]string
				if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil || len(reply) != 1 || reply["error"] == "" {
					t.Fatalf("%s?%s: 400 body %q is not {\"error\": ...} (%v)", path, query, rec.Body.String(), err)
				}
			default:
				t.Fatalf("%s?%s: status %d, want 200 or 400", path, query, rec.Code)
			}
		}
	})
}
