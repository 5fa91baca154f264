package oplog

import (
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
)

// DefaultFlightCapacity sizes the process-wide flight ring: large enough
// to hold the full lead-up to a failure in the small workloads, small
// enough (~1 MiB) to stay resident in every process.
const DefaultFlightCapacity = 1 << 14

// flight is the process-wide flight recorder: always on, always bounded.
// Managers record into it unconditionally (core wires every manager to it
// at construction).
var flight = NewRing(DefaultFlightCapacity)

// Flight returns the process-wide flight-recorder ring.
func Flight() *Ring { return flight }

// metricsSnapshot is installed by internal/core (avoiding an import cycle:
// metrics must stay importable from oplog consumers). It returns a JSON
// snapshot of the default metrics registry.
var metricsSnapshot atomic.Pointer[func() []byte]

// SetMetricsSnapshot installs the provider used to attach a metrics
// snapshot to flight dumps.
func SetMetricsSnapshot(fn func() []byte) { metricsSnapshot.Store(&fn) }

// FlightLog packages the flight ring's current contents as a Log: the ops,
// the last-attached header marked HdrFlight, and a metrics snapshot if a
// provider is installed. Used by DumpFlight and the /adsm/flight-dump
// introspection endpoint.
func FlightLog(reason string) *Log {
	l := flight.Snapshot()
	l.Header.Flags |= HdrFlight
	if reason != "" {
		l.Header.Label = reason
	}
	if fn := metricsSnapshot.Load(); fn != nil {
		l.Metrics = (*fn)()
	}
	return l
}

// EnvFlightDir selects where automatic flight dumps are written; the value
// "off" disables them entirely.
const EnvFlightDir = "ADSM_FLIGHT_DIR"

// maxAutoDumps bounds automatic dumps per process so a failure loop cannot
// fill a disk with black boxes.
const maxAutoDumps = 16

var autoDumps atomic.Int64

// DumpFlight writes the current flight-recorder contents to path.
func DumpFlight(path, reason string) error {
	return os.WriteFile(path, FlightLog(reason).Encode(), 0o644)
}

// AutoDump writes a flight dump in reaction to a runtime failure (retry
// budget exhausted, device lost, invariant violation, conformance-check
// failure). Dumps go to $ADSM_FLIGHT_DIR, or the OS temp directory when it
// is unset — except under `go test`, where an unset variable suppresses
// dumps so routine failure-path tests do not litter. Setting the variable
// (as CI and the chaos tests do) always enables dumping; setting it to
// "off" always disables it. At most maxAutoDumps are written per process.
// Best-effort: returns the written path, or "" when suppressed or failed.
func AutoDump(reason string) string {
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
		os.Getpid(), n, sanitizeReason(reason)))
	if err := DumpFlight(path, reason); err != nil {
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
