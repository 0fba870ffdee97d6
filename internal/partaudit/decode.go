package partaudit

import (
	"encoding/json"
	"errors"
	"fmt"
)

// Audit is the audit.* events of one trace, decoded once, in trace order
// within each kind (traceview's Trace.Audit reads it from a trace).
type Audit struct {
	Header    *Header
	Decisions []Decision
	Windows   []Window
	Merges    []Merge
	Layers    []LayerRecord
	Final     *Final
	// Truncated is the trace's: its final line was torn (the run crashed
	// mid-write), and the decoded prefix is complete and usable.
	Truncated bool
}

// Add decodes one audit.* event, given its name and attrs, into its record
// shape: the attrs object is the record's JSON. The trace is outside
// input, so attrs that do not fit the shape, a name no emitter writes, or a
// second audit.header (two audited runs in one trace) is an error rather
// than a guess.
func (a *Audit) Add(name string, attrs map[string]any) error {
	raw, err := json.Marshal(attrs)
	if err == nil {
		err = a.add(name, raw)
	}
	if err != nil {
		return fmt.Errorf("partaudit: %s: %w", name, err)
	}
	return nil
}

func (a *Audit) add(name string, raw []byte) error {
	switch name {
	case eventHeader:
		if a.Header != nil {
			return errors.New("a second header: the trace holds more than one audited run")
		}
		return decode(raw, &a.Header)
	case eventDecision:
		return decodeAppend(raw, &a.Decisions)
	case eventWindow:
		return decodeAppend(raw, &a.Windows)
	case eventCombine:
		return decodeAppend(raw, &a.Merges)
	case eventLayer:
		return decodeAppend(raw, &a.Layers)
	case eventFinal:
		return decode(raw, &a.Final)
	}
	return errors.New("unknown audit event")
}

func decode[T any](raw []byte, dst **T) error {
	v := new(T)
	if err := json.Unmarshal(raw, v); err != nil {
		return err
	}
	*dst = v
	return nil
}

func decodeAppend[T any](raw []byte, list *[]T) error {
	var v T
	if err := json.Unmarshal(raw, &v); err != nil {
		return err
	}
	*list = append(*list, v)
	return nil
}
