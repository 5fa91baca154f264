// Package introspect is the ADSM runtime's live debugging surface: an
// opt-in net/http server exposing expvar-style JSON snapshots of the
// metrics registry, the per-object activity tables of recent managers, and
// Chrome trace_event exports of their span tracers.
//
// Endpoints:
//
//	/adsm/stats    metrics registry + per-manager object tables (JSON)
//	/adsm/objects  per-manager object tables only (JSON)
//	/adsm/trace    Chrome trace_event JSON of a traced manager
//	               (?mgr=<id> selects one; default: latest with a tracer)
//	/adsm/statsz   human-readable text report of the metrics registry
//	               (histogram lines carry p50/p95/p99 estimates)
//	/adsm/metrics  Prometheus/OpenMetrics text exposition of the registry
//	/adsm/oplog    flight-recorder ring contents (JSON view of recent ops)
//	/adsm/flight-dump  flight-recorder dump as a binary .oplog download,
//	               replayable with `adsmtrace -replay`
//
// Everything served here is read from atomic counters, mutex-guarded
// indexes, lock-free op rings and mutex-guarded trace rings, so handlers
// are safe to hit while a run is in flight on other goroutines.
package introspect

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/oplog"
)

// managerView is the introspection shape of one manager.
type managerView struct {
	ID       int                   `json:"id"`
	Protocol string                `json:"protocol"`
	Traced   bool                  `json:"traced"`
	Objects  []core.ObjectSnapshot `json:"objects"`
}

func managerViews() []managerView {
	mgrs := core.RecentManagers()
	out := make([]managerView, 0, len(mgrs))
	for _, m := range mgrs {
		out = append(out, managerView{
			ID:       m.ID(),
			Protocol: m.Protocol().String(),
			Traced:   m.SpanTracer() != nil,
			Objects:  m.SnapshotObjects(),
		})
	}
	return out
}

// statsDoc is the /adsm/stats response body.
type statsDoc struct {
	Metrics  metrics.Snapshot `json:"metrics"`
	Managers []managerView    `json:"managers"`
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, statsDoc{
		Metrics:  metrics.Default().Snapshot(),
		Managers: managerViews(),
	})
}

func handleObjects(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, managerViews())
}

func handleTrace(w http.ResponseWriter, r *http.Request) {
	mgrs := core.RecentManagers()
	wantID := 0
	if s := r.URL.Query().Get("mgr"); s != "" {
		id, err := strconv.Atoi(s)
		if err != nil {
			http.Error(w, "bad mgr id", http.StatusBadRequest)
			return
		}
		wantID = id
	}
	for i := len(mgrs) - 1; i >= 0; i-- {
		m := mgrs[i]
		if wantID != 0 && m.ID() != wantID {
			continue
		}
		t := m.SpanTracer()
		if t == nil {
			continue
		}
		w.Header().Set("Content-Type", "application/json")
		if err := t.WriteJSON(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
		return
	}
	http.Error(w, "no traced manager (enable tracing or core.SetAutoTrace)", http.StatusNotFound)
}

func handleStatsz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_ = metrics.Default().WriteText(w)
}

func handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", metrics.OpenMetricsContentType)
	_ = metrics.Default().WriteOpenMetrics(w)
}

// oplogDoc is the /adsm/oplog response body: the flight recorder's current
// window rendered readably (kinds and notes resolved to strings).
type oplogDoc struct {
	Capacity   int       `json:"capacity"`
	Total      uint64    `json:"total"`
	Wrapped    bool      `json:"wrapped"`
	Collisions uint64    `json:"collisions"`
	Ops        []oplogOp `json:"ops"`
}

type oplogOp struct {
	At    int64  `json:"at_ns"`
	Kind  string `json:"kind"`
	Flags uint8  `json:"flags,omitempty"`
	Mgr   uint16 `json:"mgr"`
	Obj   uint32 `json:"obj,omitempty"`
	Addr  uint64 `json:"addr,omitempty"`
	Size  int64  `json:"size,omitempty"`
	Arg   int64  `json:"arg,omitempty"`
	Note  string `json:"note,omitempty"`
}

func handleOpLog(w http.ResponseWriter, _ *http.Request) {
	f := oplog.Flight()
	ops := f.Ops()
	doc := oplogDoc{
		Capacity:   f.Capacity(),
		Total:      f.Total(),
		Wrapped:    f.Wrapped(),
		Collisions: f.Collisions(),
		Ops:        make([]oplogOp, len(ops)),
	}
	for i, op := range ops {
		doc.Ops[i] = oplogOp{
			At:    int64(op.At),
			Kind:  op.Kind.String(),
			Flags: op.Flags,
			Mgr:   op.Mgr,
			Obj:   op.Obj,
			Addr:  uint64(op.Addr),
			Size:  op.Size,
			Arg:   op.Arg,
			Note:  oplog.NoteString(op.Note),
		}
	}
	writeJSON(w, doc)
}

func handleFlightDump(w http.ResponseWriter, _ *http.Request) {
	data := oplog.FlightLog("introspect").Encode()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition", `attachment; filename="adsm-flight.oplog"`)
	_, _ = w.Write(data)
}

func handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" && r.URL.Path != "/adsm" && r.URL.Path != "/adsm/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ADSM runtime introspection")
	fmt.Fprintln(w, "  /adsm/stats    metrics + object tables (JSON)")
	fmt.Fprintln(w, "  /adsm/objects  object tables (JSON)")
	fmt.Fprintln(w, "  /adsm/trace    Chrome trace_event JSON (?mgr=<id>)")
	fmt.Fprintln(w, "  /adsm/statsz   text metrics report (p50/p95/p99 per histogram)")
	fmt.Fprintln(w, "  /adsm/metrics  Prometheus/OpenMetrics exposition")
	fmt.Fprintln(w, "  /adsm/oplog    flight-recorder window (JSON)")
	fmt.Fprintln(w, "  /adsm/flight-dump  flight-recorder dump (.oplog download)")
}

// NewHandler returns the introspection handler, for embedding into an
// existing server. The embedder brackets its serving with
// core.RetainManagers, as Start and Close do, or the object tables and
// /adsm/trace stay empty.
func NewHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/adsm/stats", handleStats)
	mux.HandleFunc("/adsm/objects", handleObjects)
	mux.HandleFunc("/adsm/trace", handleTrace)
	mux.HandleFunc("/adsm/statsz", handleStatsz)
	mux.HandleFunc("/adsm/metrics", handleMetrics)
	mux.HandleFunc("/adsm/oplog", handleOpLog)
	mux.HandleFunc("/adsm/flight-dump", handleFlightDump)
	mux.HandleFunc("/", handleIndex)
	return mux
}

// Server is a running introspection endpoint.
type Server struct {
	ln     net.Listener
	srv    *http.Server
	closed sync.Once
}

// Start listens on addr (e.g. "localhost:6060", ":0" for an ephemeral
// port) and serves the introspection endpoints until Close. Managers built
// while it serves are retained (core.RetainManagers) for the object tables
// and /adsm/trace; ones built before Start are not visible.
func Start(addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("introspect: %w", err)
	}
	s := &Server{ln: ln, srv: &http.Server{Handler: NewHandler()}}
	core.RetainManagers(true)
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Addr returns the server's listen address (with the resolved port).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the server down and lets go of the managers it retained.
func (s *Server) Close() error {
	s.closed.Do(func() { core.RetainManagers(false) })
	return s.srv.Close()
}
