package resview

import (
	"errors"
	"io"
	"os"

	"bpart/internal/telemetry"
)

// OpenSinks creates the files behind a CLI's -trace and -resources flags
// (either path may be empty) and returns the one tracer that feeds both —
// the no-op tracer when neither is set — plus the close that flushes and
// closes whatever was opened, reporting every failure. Callers defer the
// close right away so an early return still leaves complete logs; a
// failure to create the second file closes the first before returning.
func OpenSinks(tracePath, resPath string) (telemetry.Tracer, func() error, error) {
	type sink interface {
		telemetry.Tracer
		io.Closer
	}
	var tracers []telemetry.Tracer
	var closers []io.Closer // each sink, then the file under it
	closeAll := func() (err error) {
		for _, c := range closers {
			err = errors.Join(err, c.Close())
		}
		return err
	}
	for _, s := range []struct {
		path string
		open func(io.Writer) sink
	}{
		{tracePath, func(w io.Writer) sink { return telemetry.NewJSONL(w) }},
		{resPath, func(w io.Writer) sink { return NewProbe(w) }},
	} {
		if s.path == "" {
			continue
		}
		f, err := os.Create(s.path)
		if err != nil {
			return nil, nil, errors.Join(err, closeAll())
		}
		t := s.open(f)
		tracers = append(tracers, t)
		closers = append(closers, t, f)
	}
	return telemetry.Tee(tracers...), closeAll, nil
}
