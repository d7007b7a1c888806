package server

import (
	"context"
	"log/slog"
	"net/http"
	"time"

	"repro/internal/obs"
)

// reqInfo is the per-request observability state instrument attaches to
// the request context: the correlation id (echoed as X-Request-Id) and,
// when EXPLAIN mode or the slow-query log wants one, the engine trace the
// handlers thread into the query options.
type reqInfo struct {
	id    string
	debug bool
	trace *obs.Trace
	// Flight-recorder annotations: handlers note the dataset/generation
	// they resolved, whether the result was served from cache, and the
	// per-request decision stats; instrument reads them after the handler
	// returns (same goroutine, no locking needed).
	dataset    string
	generation uint64
	cached     bool
	stats      any
}

// noteDataset records which dataset incarnation the request resolved, for
// the wide event instrument may capture. Nil-safe on both sides.
func (ri *reqInfo) noteDataset(snap *Snapshot) {
	if ri == nil || snap == nil {
		return
	}
	ri.dataset, ri.generation = snap.Name, snap.Generation
}

// noteCached records whether the response came from the result cache.
func (ri *reqInfo) noteCached(cached bool) {
	if ri != nil {
		ri.cached = cached
	}
}

// noteStats attaches the request's decision stats (any JSON-marshalable
// value) to its eventual wide event.
func (ri *reqInfo) noteStats(stats any) {
	if ri != nil {
		ri.stats = stats
	}
}

// Trace returns the request's engine trace; nil (tracing off) on a nil
// info, so handlers can pass it to kspr.WithTrace unconditionally.
func (ri *reqInfo) Trace() *obs.Trace {
	if ri == nil {
		return nil
	}
	return ri.trace
}

// Debug reports whether the request asked for ?debug=trace.
func (ri *reqInfo) Debug() bool { return ri != nil && ri.debug }

// ID returns the request's correlation id ("" outside instrument).
func (ri *reqInfo) ID() string {
	if ri == nil {
		return ""
	}
	return ri.id
}

type reqInfoKey struct{}

// reqInfoFrom reads the request info from a context; nil when the
// request did not pass through instrument (e.g. direct handler tests).
func reqInfoFrom(ctx context.Context) *reqInfo {
	ri, _ := ctx.Value(reqInfoKey{}).(*reqInfo)
	return ri
}

// wantTrace reports whether the request opted into EXPLAIN mode.
func wantTrace(r *http.Request) bool {
	return r.URL.Query().Get("debug") == "trace"
}

// phaseWire is one engine phase in a trace breakdown.
type phaseWire struct {
	Name  string  `json:"name"`
	Ms    float64 `json:"ms"`
	Count int64   `json:"count"`
}

// traceWire is the EXPLAIN payload attached to responses under
// ?debug=trace: the request id, the per-phase breakdown in recording
// order, and the phase-time sum (phases are non-overlapping, so total_ms
// approximates the engine wall time).
type traceWire struct {
	RequestID string      `json:"request_id,omitempty"`
	TotalMs   float64     `json:"total_ms"`
	Phases    []phaseWire `json:"phases"`
}

// traceToWire renders a trace for the response envelope; nil when there
// is nothing to report.
func traceToWire(ri *reqInfo) *traceWire {
	tr := ri.Trace()
	if tr == nil {
		return nil
	}
	phases := tr.Phases()
	tw := &traceWire{
		RequestID: ri.ID(),
		TotalMs:   float64(tr.TotalNs()) / 1e6,
		Phases:    make([]phaseWire, len(phases)),
	}
	for i, p := range phases {
		tw.Phases[i] = phaseWire{Name: p.Name, Ms: float64(p.Ns) / 1e6, Count: p.Count}
	}
	return tw
}

// tracePhaseAttrs renders a trace as slog attrs for the slow-query log.
func tracePhaseAttrs(tr *obs.Trace) []any {
	var args []any
	for _, p := range tr.Phases() {
		args = append(args, slog.Group(p.Name,
			slog.Float64("ms", float64(p.Ns)/1e6),
			slog.Int64("count", p.Count)))
	}
	return args
}

// logRequest emits the structured request log line and, when the request
// ran past the slow-query threshold with a trace attached, the
// slow-query warning carrying the phase breakdown.
func (s *Server) logRequest(endpoint string, r *http.Request, ri *reqInfo, status int, elapsed time.Duration) {
	if s.logger == nil {
		return
	}
	args := []any{
		slog.String("request_id", ri.ID()),
		slog.String("endpoint", endpoint),
		slog.String("method", r.Method),
		slog.String("path", r.URL.Path),
		slog.Int("status", status),
		slog.Float64("elapsed_ms", float64(elapsed)/1e6),
	}
	s.logger.Debug("request", args...)
	if s.cfg.SlowQuery > 0 && elapsed >= s.cfg.SlowQuery {
		args = append(args, slog.Float64("threshold_ms", float64(s.cfg.SlowQuery)/1e6))
		if tr := ri.Trace(); tr != nil {
			args = append(args, slog.Group("phases", tracePhaseAttrs(tr)...))
		}
		s.logger.Warn("slow query", args...)
	}
}

// ---- readiness -----------------------------------------------------------

// handleReadyz is the readiness probe: 200 once startup WAL recovery has
// finished (or was never needed), 503 with the still-recovering dataset
// names while it runs. Liveness stays on /healthz, which is green from
// the first accepted connection — load balancers should route on /readyz
// so a replaying node takes no traffic.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.ready.Load() {
		// Per-dataset index warm/cold detail: a ready node that rebuilt its
		// candidate indexes cold is serving, but slower than its warm peers —
		// operators draining/rolling nodes want to see which is which.
		infos := s.registry.List()
		writeJSON(w, http.StatusOK, map[string]any{
			"status":     "ready",
			"datasets":   len(infos),
			"index_warm": indexWarm(infos),
		})
		return
	}
	writeJSON(w, http.StatusServiceUnavailable, map[string]any{
		"status":     "recovering",
		"recovering": s.registry.PendingRecovery(),
	})
}

// indexWarm maps each dataset to whether its candidate index was restored
// warm from the persisted layout.
func indexWarm(infos []DatasetInfo) map[string]bool {
	warm := make(map[string]bool, len(infos))
	for _, info := range infos {
		warm[info.Name] = info.IndexWarm
	}
	return warm
}

// handleMetricsProm is the Prometheus text exposition of /metrics.
func (s *Server) handleMetricsProm(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.metricsView().WriteProm(w)
}

// readFrame reads every source the declared scalar metrics draw on into
// f. It allocates nothing, so the sampler tick can call it.
func (s *Server) readFrame(f *metricsFrame, now time.Time, rt obs.RuntimeStats, qps float64) {
	*f = metricsFrame{
		m:           s.metrics,
		now:         now,
		qps:         qps,
		cache:       s.cache.Stats(),
		poolWorkers: s.pool.Workers(),
		poolDepth:   s.pool.Depth(),
		cpuSlots:    s.cpu.Slots(),
		cpuInUse:    s.cpu.InUse(),
		datasets:    s.registry.Count(),
		runtime:     rt,
	}
}

// metricsView assembles the full metrics snapshot: the Metrics counters
// plus the sources and sections owned by other server components.
func (s *Server) metricsView() MetricsSnapshot {
	now := time.Now()
	s.rtMu.Lock()
	rt := s.rtScrape.Sample()
	s.rtMu.Unlock()
	var f metricsFrame
	s.readFrame(&f, now, rt, s.sampler.qps1m(now))
	snap := snapshotOf(&f)
	snap.Datasets = s.registry.List()
	snap.Build = obs.ReadBuildInfo()
	if s.sampler != nil {
		snap.Build = s.sampler.build
		v := s.sampler.latestVerdict()
		snap.SLO = &SLOView{Healthy: v.Healthy, Score: v.Score, Objectives: v.SLOs}
	}
	return snap
}
