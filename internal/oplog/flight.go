package oplog

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// DefaultFlightCapacity sizes a manager's flight ring: large enough to
// hold the full lead-up to a failure in the small workloads, small enough
// (768 KiB) to stay resident beside every manager.
const DefaultFlightCapacity = 1 << 14

// flightCount is the process-wide op count: the counts of the live flight
// rings, and retired, the final counts of the collected ones.
type flightCount struct {
	mu      sync.Mutex
	live    map[*ringCount]struct{}
	retired uint64
}

var flight = &flightCount{live: make(map[*ringCount]struct{})}

// liveRing is referenced by its flight ring alone, so its finalizer runs
// once the ring is collected (one on the ring would hold the slots longer).
type liveRing struct{ n *ringCount }

// NewFlightRing returns a ring like NewRing, carrying header h, whose ops
// count toward Flight while it lives and after it is collected.
func NewFlightRing(capacity int, h Header) *Ring {
	r := NewRing(capacity)
	r.header, r.live = h, &liveRing{r.ringCount}
	flight.mu.Lock()
	flight.live[r.ringCount] = struct{}{}
	flight.mu.Unlock()
	runtime.SetFinalizer(r.live, func(l *liveRing) {
		flight.mu.Lock()
		delete(flight.live, l.n)
		flight.retired += l.n.Total()
		flight.mu.Unlock()
	})
	return r
}

// Flight returns the process-wide op count; no ring is process-wide.
func Flight() *flightCount { return flight }

// Total returns the number of ops ever recorded into a flight ring in
// this process: the live rings' sum plus the final count of every
// collected one. It never decreases.
func (f *flightCount) Total() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	sum := f.retired
	for n := range f.live {
		sum += n.Total()
	}
	return sum
}

// EnvFlightDir selects where automatic flight dumps are written; the value
// "off" disables them entirely.
const EnvFlightDir = "ADSM_FLIGHT_DIR"

// maxAutoDumps bounds automatic dumps per process so a failure loop cannot
// fill a disk with black boxes.
const maxAutoDumps = 16

var autoDumps atomic.Int64

// AutoDump writes l, the flight log of a manager that failed (retry budget
// exhausted, device lost, invariant violation), to a file named after its
// label. Dumps go to $ADSM_FLIGHT_DIR, or the OS temp directory when it is
// unset — except under `go test`, where an unset variable suppresses
// dumps so routine failure-path tests do not litter. Setting the variable
// (as CI and the chaos tests do) always enables dumping; setting it to
// "off" always disables it. At most maxAutoDumps are written per process.
// Best-effort: returns the written path, or "" when suppressed or failed.
func AutoDump(l *Log) string {
	dir := os.Getenv(EnvFlightDir)
	switch {
	case dir == "off":
		return ""
	case dir == "" && testing.Testing():
		return ""
	case dir == "":
		dir = os.TempDir()
	default:
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return ""
		}
	}
	n := autoDumps.Add(1)
	if n > maxAutoDumps {
		return ""
	}
	path := filepath.Join(dir, fmt.Sprintf("adsm-flight-%d-%d-%s.oplog",
		os.Getpid(), n, sanitizeReason(l.Header.Label)))
	if err := os.WriteFile(path, l.Encode(), 0o644); err != nil {
		return ""
	}
	return path
}

// sanitizeReason makes a dump reason safe for a file name.
func sanitizeReason(reason string) string {
	if reason == "" {
		return "dump"
	}
	b := []byte(reason)
	if len(b) > 48 {
		b = b[:48]
	}
	for i, c := range b {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
		default:
			b[i] = '_'
		}
	}
	return string(b)
}
