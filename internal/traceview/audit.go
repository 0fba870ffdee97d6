package traceview

import (
	"fmt"
	"strings"

	"bpart/internal/partaudit"
)

// Audit decodes the trace's audit.* events once: the partition decision
// audit a traced BPart, Fennel or LDG run emits (see partaudit), which
// tracestat explain, timeline, combine and comm -audit render. A trace with
// no audit event decodes to an empty Audit.
func (t *Trace) Audit() (*partaudit.Audit, error) {
	a := &partaudit.Audit{Truncated: t.Truncated}
	for i := range t.Records {
		r := &t.Records[i]
		if r.Type != "event" || !strings.HasPrefix(r.Name, "audit.") {
			continue
		}
		if err := a.Add(r.Name, r.Attrs); err != nil {
			return nil, fmt.Errorf("traceview: record %d: %w", i+1, err)
		}
	}
	return a, nil
}
