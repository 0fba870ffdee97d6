// Package clustering shares a prefix with the I/O package cluster but is
// not it: scope matching compares whole path segments, so its discarded
// writer errors are outside errio's scope and nothing here is flagged.
package clustering

import "bufio"

// Dump writes best-effort and is not reported.
func Dump(w *bufio.Writer, payload []byte) {
	w.Write(payload)
	w.Flush()
}
