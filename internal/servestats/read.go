package servestats

import (
	"encoding/json"
	"fmt"
	"io"

	"bpart/internal/recordlog"
)

// Record is one parsed request record.
type Record struct {
	// Seq is the recorder's monotone emission index (1-based).
	Seq int64
	// Endpoint is the request class: "lookup", "khop" or "walk".
	Endpoint string
	// Vertex is the requested vertex id.
	Vertex int64
	// Part is the part the request routed to under the serving view, -1
	// when the request never resolved (bad vertex).
	Part int
	// Version is the assignment view version that answered the request, 0
	// when no view was consulted.
	Version int
	// Status is the HTTP status returned.
	Status int
	// LatencyUS is the request's wall-clock service time in microseconds.
	LatencyUS float64
}

// Log is a fully parsed request log.
type Log struct {
	Records []Record
	// Truncated reports that the final line was torn — the serving process
	// died mid-write (the Recorder writes whole lines, so only the last
	// line of a crashed run can be damaged). The parsed prefix is complete
	// and usable.
	Truncated bool
}

// jsonRecord is the wire shape of one request line. Fields marshal in
// declaration order, so recorder output is layout-stable.
type jsonRecord struct {
	V         int     `json:"v"`
	Type      string  `json:"type"`
	Seq       int64   `json:"seq"`
	Endpoint  string  `json:"endpoint"`
	Vertex    int64   `json:"vertex"`
	Part      int     `json:"part"`
	Version   int     `json:"version"`
	Status    int     `json:"status"`
	LatencyUS float64 `json:"latency_us"`
}

// Read parses a JSONL request log under recordlog.Scan's tolerance
// contract: only a torn final line is tolerated (flagged via
// Log.Truncated), interior damage or an all-garbage first line is a hard
// error, and unknown schema versions are rejected.
func Read(r io.Reader) (*Log, error) {
	records, truncated, err := recordlog.Records(r, "servestats", "request", parseLine)
	if err != nil {
		return nil, err
	}
	return &Log{Records: records, Truncated: truncated}, nil
}

// ReadFile parses the JSONL request log at path.
func ReadFile(path string) (*Log, error) { return recordlog.ReadFile(path, Read) }

func parseLine(line []byte) (Record, error) {
	var jr jsonRecord
	if err := json.Unmarshal(line, &jr); err != nil {
		return Record{}, err
	}
	if jr.Type != "request" {
		return Record{}, fmt.Errorf("record type %q, want \"request\"", jr.Type)
	}
	if jr.V != SchemaVersion {
		return Record{}, fmt.Errorf("request record schema v%d, this reader handles v%d", jr.V, SchemaVersion)
	}
	switch jr.Endpoint {
	case EndpointLookup, EndpointKHop, EndpointWalk:
	default:
		return Record{}, fmt.Errorf("unknown endpoint %q", jr.Endpoint)
	}
	if jr.LatencyUS < 0 {
		return Record{}, fmt.Errorf("negative latency_us %v", jr.LatencyUS)
	}
	if jr.Part < -1 {
		return Record{}, fmt.Errorf("part %d, want >= -1", jr.Part)
	}
	return Record{
		Seq:       jr.Seq,
		Endpoint:  jr.Endpoint,
		Vertex:    jr.Vertex,
		Part:      jr.Part,
		Version:   jr.Version,
		Status:    jr.Status,
		LatencyUS: jr.LatencyUS,
	}, nil
}
