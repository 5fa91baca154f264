// Package introspect is the ADSM runtime's live debugging surface: an
// opt-in net/http server exposing expvar-style JSON snapshots of the
// metrics registry, the per-object activity tables of recent managers, and
// Chrome trace_event exports of their tracers (spans and protocol events).
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
//	/adsm/oplog    a manager's flight ring (JSON view of recent ops;
//	               ?mgr=<id> selects one; default: latest)
//	/adsm/flight-dump  the same as a binary .oplog download,
//	               replayable with `adsmtrace -replay`
//
// Everything served here is read from atomic counters, mutex-guarded
// indexes, and mutex-guarded op and trace rings, so handlers
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

// perManager serves h with the retained manager a request names with
// ?mgr=<id>, or without one with the newest retained manager for which
// has holds (nil: any). It answers 400 to an id that is not a number and
// 404, saying none, when no manager fits.
func perManager(has func(*core.Manager) bool, none string, h func(http.ResponseWriter, *core.Manager)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		wantID := 0
		if s := r.URL.Query().Get("mgr"); s != "" {
			id, err := strconv.Atoi(s)
			if err != nil {
				http.Error(w, "bad mgr id", http.StatusBadRequest)
				return
			}
			wantID = id
		}
		mgrs := core.RecentManagers()
		for i := len(mgrs) - 1; i >= 0; i-- {
			if m := mgrs[i]; (wantID == 0 || m.ID() == wantID) && (has == nil || has(m)) {
				h(w, m)
				return
			}
		}
		http.Error(w, none, http.StatusNotFound)
	}
}

func handleTrace(w http.ResponseWriter, m *core.Manager) {
	w.Header().Set("Content-Type", "application/json")
	if err := m.SpanTracer().WriteJSON(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func handleStatsz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_ = metrics.Default().WriteText(w)
}

func handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", metrics.OpenMetricsContentType)
	_ = metrics.Default().WriteOpenMetrics(w)
}

// oplogDoc is the /adsm/oplog response body: one manager's flight window
// rendered readably (kinds and notes resolved to strings).
type oplogDoc struct {
	Capacity int       `json:"capacity"`
	Total    uint64    `json:"total"`
	Wrapped  bool      `json:"wrapped"`
	Ops      []oplogOp `json:"ops"`
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

func handleOpLog(w http.ResponseWriter, m *core.Manager) {
	f := m.OpRing()
	ops := f.Ops()
	doc := oplogDoc{
		Capacity: f.Capacity(),
		Total:    f.Total(),
		Wrapped:  f.Wrapped(),
		Ops:      make([]oplogOp, len(ops)),
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

func handleFlightDump(w http.ResponseWriter, m *core.Manager) {
	data := m.FlightLog("introspect").Encode()
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
	fmt.Fprintln(w, "  /adsm/oplog    a manager's flight window (JSON, ?mgr=<id>)")
	fmt.Fprintln(w, "  /adsm/flight-dump  a manager's flight dump (.oplog download, ?mgr=<id>)")
}

// NewHandler returns the introspection handler, for embedding into an
// existing server. The embedder brackets its serving with
// core.RetainManagers, as Start and Close do, or only the registry's
// endpoints have data.
func NewHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/adsm/stats", handleStats)
	mux.HandleFunc("/adsm/objects", handleObjects)
	mux.HandleFunc("/adsm/trace", perManager(func(m *core.Manager) bool { return m.SpanTracer() != nil },
		"no traced manager (enable tracing or core.SetAutoTrace)", handleTrace))
	mux.HandleFunc("/adsm/statsz", handleStatsz)
	mux.HandleFunc("/adsm/metrics", handleMetrics)
	const none = "no retained manager (start the endpoint before the contexts)"
	mux.HandleFunc("/adsm/oplog", perManager(nil, none, handleOpLog))
	mux.HandleFunc("/adsm/flight-dump", perManager(nil, none, handleFlightDump))
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
// while it serves are retained (core.RetainManagers) for every endpoint
// but the registry's; ones built before Start are not visible.
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
