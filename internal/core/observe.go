package core

import (
	"sort"
	"sync"

	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// This file wires the manager into the observability layer: the metric
// handles it records into on hot paths, the per-object snapshot used by
// the introspection endpoint's object table, and the process-wide registry
// of recent managers that lets a running debug server find live runtimes
// without any plumbing through the experiment harnesses.

// metricSet caches the registry handles one manager observes into
// directly: the distributions and the gauge, which no op carries. The
// adsm_*_total counter families are not here — newMetricSet wires each to
// the Stats counter of the same meaning, whose every Add feeds it. Families
// carry a {protocol=...} label so runs under different protocols stay
// distinguishable; managers with the same protocol share (aggregate into)
// the same metrics.
type metricSet struct {
	faultNs     *metrics.Histogram
	searchDepth *metrics.Histogram
	rollingOcc  *metrics.Gauge
	rollingHist *metrics.Histogram
}

// newMetricSet resolves a manager's registry handles once, at construction:
// the returned histograms and gauge, and the family of every published
// counter of c — so the fold in event.go, or one of the direct exception
// writes, moves Stats and /adsm/metrics together.
func newMetricSet(r *metrics.Registry, proto ProtocolKind, c *statsCounters) *metricSet {
	p := proto.String()
	lbl := func(name string) string { return metrics.Label(name, "protocol", p) }
	c.Faults.family = r.Counter(lbl("adsm_faults_total"))
	c.ReadFaults.family = r.Counter(lbl("adsm_read_faults_total"))
	c.WriteFaults.family = r.Counter(lbl("adsm_write_faults_total"))
	c.BytesH2D.family = r.Counter(lbl("adsm_bytes_h2d_total"))
	c.BytesD2H.family = r.Counter(lbl("adsm_bytes_d2h_total"))
	c.TransfersH2D.family = r.Counter(lbl("adsm_transfers_h2d_total"))
	c.TransfersD2H.family = r.Counter(lbl("adsm_transfers_d2h_total"))
	c.Evictions.family = r.Counter(lbl("adsm_evictions_total"))
	c.Allocs.family = r.Counter(lbl("adsm_allocs_total"))
	c.Frees.family = r.Counter(lbl("adsm_frees_total"))
	c.Invokes.family = r.Counter(lbl("adsm_invokes_total"))
	c.Syncs.family = r.Counter(lbl("adsm_syncs_total"))
	c.Retries.family = r.Counter(lbl("adsm_retries_total"))
	c.RetryGiveups.family = r.Counter(lbl("adsm_retry_giveups_total"))
	c.DegradedObjects.family = r.Counter(lbl("adsm_degraded_objects_total"))
	c.DeviceLostEvents.family = r.Counter(lbl("adsm_device_lost_total"))
	c.ModeMigrations.family = r.Counter(lbl("adsm_mode_migrations_total"))
	c.FetchElisions.family = r.Counter(lbl("adsm_fetch_elisions_total"))
	c.FlushElisions.family = r.Counter(lbl("adsm_flush_elisions_total"))
	c.FaultBatches.family = r.Counter(lbl("adsm_fault_batches_total"))
	c.PrefetchedBlocks.family = r.Counter(lbl("adsm_prefetched_blocks_total"))
	c.RacesDetected.family = r.Counter(lbl("adsm_races_detected_total"))
	return &metricSet{
		faultNs:     r.Histogram(lbl("adsm_fault_service_ns"), metrics.LatencyBuckets),
		searchDepth: r.Histogram(lbl("adsm_search_depth_nodes"), metrics.DepthBuckets),
		rollingOcc:  r.Gauge(lbl("adsm_rolling_occupancy")),
		rollingHist: r.Histogram(lbl("adsm_rolling_occupancy_blocks"), metrics.DepthBuckets),
	}
}

// ObjectSnapshot is one row of the introspection endpoint's object table.
type ObjectSnapshot struct {
	Addr    mem.Addr `json:"addr"`
	DevAddr mem.Addr `json:"dev_addr"`
	Size    int64    `json:"size"`
	Blocks  int      `json:"blocks"`
	Safe    bool     `json:"safe,omitempty"`
	Kernels int      `json:"kernels,omitempty"`
	// Freed marks an object that has been released; its final counters are
	// retained (bounded) so short-lived runs stay attributable.
	Freed bool `json:"freed,omitempty"`
	// Degraded marks an object running host-resident after a device loss.
	Degraded bool     `json:"degraded,omitempty"`
	Stats    ObjStats `json:"stats"`
}

// maxRetiredObjects bounds the per-manager ring of freed-object rows.
const maxRetiredObjects = 64

// traffic is the ranking key: total attributed activity.
func (s ObjectSnapshot) traffic() int64 {
	return s.Stats.BytesH2D + s.Stats.BytesD2H + s.Stats.Faults + s.Stats.Evictions
}

// snapshotObject builds one table row from a live object.
func snapshotObject(o *Object) ObjectSnapshot {
	return ObjectSnapshot{
		Addr:     o.addr,
		DevAddr:  o.devAddr,
		Size:     o.size,
		Blocks:   len(o.blocks),
		Safe:     o.safe,
		Kernels:  len(o.kernels),
		Degraded: o.degraded.Load(),
		Stats:    o.counters.load(),
	}
}

// SnapshotObjects returns the live objects' static facts and counters plus
// the most recently freed objects' final rows, ranked by fault/transfer
// traffic (heaviest first). It is safe to call from any goroutine while
// the run is in flight: the live objects come from a registry snapshot, the
// retired ring is guarded by introMu, and the per-object counters are
// atomic. Free retires an object's row before unregistering it and the
// live set is read first here, so an object freed meanwhile may show up
// both live and freed, but never as neither.
func (m *Manager) SnapshotObjects() []ObjectSnapshot {
	live := m.reg.snapshot()
	m.introMu.Lock()
	out := make([]ObjectSnapshot, 0, len(live)+len(m.retired))
	for _, o := range live {
		out = append(out, snapshotObject(o))
	}
	out = append(out, m.retired...)
	m.introMu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if ti, tj := out[i].traffic(), out[j].traffic(); ti != tj {
			return ti > tj
		}
		return out[i].Addr < out[j].Addr
	})
	return out
}

// introRetire appends o's final row to the retired ring.
func (m *Manager) introRetire(o *Object) {
	m.introMu.Lock()
	s := snapshotObject(o)
	s.Freed = true
	m.retired = append(m.retired, s)
	if len(m.retired) > maxRetiredObjects {
		m.retired = append(m.retired[:0:0], m.retired[len(m.retired)-maxRetiredObjects:]...)
	}
	m.introMu.Unlock()
}

// --- process-wide manager registry ---

// maxRecentManagers bounds how many managers the registry retains while an
// introspection endpoint is serving. Experiment harnesses construct
// managers in a loop; keeping only the most recent ones caps what a
// long-lived endpoint pins, and is the window /adsm/stats shows.
const maxRecentManagers = 16

var mgrReg struct {
	//adsm:lock mgrRegMu 50 nowait
	mu  sync.Mutex
	seq int
	// serving counts the running introspection endpoints. Managers are
	// retained only while it is positive: a process that serves nothing
	// pins none of them, nor the machines behind them.
	serving int
	mgrs    []*Manager
	// autoTrace, when positive, installs a span tracer of that capacity on
	// every newly built manager.
	autoTrace int
}

// registerManager assigns the manager an ID and, while an introspection
// endpoint is serving, retains it, evicting the oldest beyond
// maxRecentManagers.
func registerManager(m *Manager) {
	mgrReg.mu.Lock()
	defer mgrReg.mu.Unlock()
	mgrReg.seq++
	m.id = mgrReg.seq
	if mgrReg.autoTrace > 0 && m.spans == nil {
		t := trace.NewTracer(mgrReg.autoTrace)
		m.spans = t
		m.tracer = t.Log()
	}
	if mgrReg.serving == 0 {
		return
	}
	mgrReg.mgrs = append(mgrReg.mgrs, m)
	if len(mgrReg.mgrs) > maxRecentManagers {
		mgrReg.mgrs = append(mgrReg.mgrs[:0:0], mgrReg.mgrs[len(mgrReg.mgrs)-maxRecentManagers:]...)
	}
}

// RetainManagers is called with true by an introspection endpoint when it
// starts serving and with false when it stops. Managers built in between
// are retained for RecentManagers; the last endpoint to stop releases them.
func RetainManagers(serving bool) {
	mgrReg.mu.Lock()
	defer mgrReg.mu.Unlock()
	if serving {
		mgrReg.serving++
		return
	}
	mgrReg.serving--
	if mgrReg.serving == 0 {
		mgrReg.mgrs = nil
	}
}

// RecentManagers returns the most recent managers constructed while an
// introspection endpoint was serving, oldest first. The endpoint serves
// its object tables from them.
func RecentManagers() []*Manager {
	mgrReg.mu.Lock()
	defer mgrReg.mu.Unlock()
	return append([]*Manager(nil), mgrReg.mgrs...)
}

// SetAutoTrace makes every future manager start with a span tracer of the
// given capacity (0 disables). The debug server enables it so /adsm/trace
// has data without the harness opting in explicitly.
func SetAutoTrace(capacity int) {
	mgrReg.mu.Lock()
	mgrReg.autoTrace = capacity
	mgrReg.mu.Unlock()
}

// ID returns the manager's process-wide construction sequence number.
func (m *Manager) ID() int { return m.id }
