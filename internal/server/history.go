package server

// This file is the time dimension of the observability stack: a sampler
// goroutine that snapshots the Metrics counters into an obs.TimeSeries
// ring every HistoryInterval, derives rates (QPS, error rate, 429 rate,
// cache hit rate) and windowed per-class p99s from the raw counters,
// evaluates the SLO burn-rate engine over the ring, and serves the result
// on GET /v1/debug:history (the series) and GET /v1/debug:health (the
// scored verdict a replica router consumes).

import (
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// defaultSLOP99 bounds per-class p99 latency when Config.SLOP99 is unset —
// aligned with defaultFlightSlow so an SLO-breaching request is also
// flight-capture-worthy.
const defaultSLOP99 = 500 * time.Millisecond

// defaultSLOAvailability is the stock availability target (three nines).
const defaultSLOAvailability = 0.999

// sloClassP99Window is the trailing window the derived per-class p99
// series are computed over.
const sloClassP99Window = 5 * time.Minute

// endpointClasses maps instrumented endpoint names to the endpoint class
// their latency SLO is judged under. Meta endpoints (health probes, debug
// reads, metrics scrapes) are deliberately unclassified: their latency is
// nobody's user experience.
var endpointClasses = map[string]string{
	"kspr":               "query",
	"kspr.batch":         "query",
	"topk":               "query",
	"skyline":            "query",
	"impact":             "query",
	"impact.competitors": "query",
	"whatif.price":       "query",
	"whatif.frontier":    "query",
	"datasets.mutate":    "mutate",
	"datasets.load":      "mutate",
	"datasets.unload":    "mutate",
}

// sloClasses is the deterministic iteration order of the classes above.
var sloClasses = []string{"query", "mutate"}

// epSeriesNames names one endpoint's history series. They are built once,
// when the endpoint is first seen, so the tick never formats strings.
type epSeriesNames struct {
	requests string
	errors   string
	p50      string
	p99      string
}

// classSeries is one SLO class in the ring: its aggregate request counter,
// one cumulative counter per latency bucket (obs.DefaultLatencyBuckets
// layout, +Inf last), and the derived windowed-p99 gauge. counts and total
// are per-tick scratch.
type classSeries struct {
	requests string
	buckets  []string
	p99      string
	counts   []uint64
	total    uint64
}

// sampler owns the telemetry history: the ring, the SLO engine, the
// reusable scratch buffers, and the background goroutine that ticks them.
// All cross-goroutine state is behind the ring's own lock or sampler.mu.
type sampler struct {
	srv   *Server
	ts    *obs.TimeSeries
	slo   *obs.SLOEngine
	rt    *obs.RuntimeSampler
	build obs.BuildInfo

	// classes maps each sloClasses name to its series.
	classes map[string]*classSeries

	// Reusable per-tick scratch: the metrics frame and endpoint rows, the
	// global bucket sums, the raw/derived point slices, and the class
	// bucket deltas of a trailing window.
	frame   metricsFrame
	rows    []endpointRow
	total   []uint64
	raw     []obs.SamplePoint
	derived []obs.SamplePoint
	deltas  []uint64

	mu      sync.Mutex
	verdict obs.HealthVerdict

	stop chan struct{}
	done chan struct{}
}

// newSampler wires the ring and the SLO engine from the server config and
// takes the first tick synchronously, so a freshly constructed server
// already has one sample of every series.
func newSampler(s *Server) *sampler {
	cfg := s.cfg
	avail := cfg.SLOAvailability
	if avail == 0 {
		avail = defaultSLOAvailability
	}
	if avail < 0 {
		avail = 0 // negative disables the availability objective
	}
	bound := cfg.SLOP99
	if bound == 0 {
		bound = defaultSLOP99
	}
	if bound < 0 {
		bound = 0 // negative disables latency objectives
	}
	sp := &sampler{
		srv:     s,
		ts:      obs.NewTimeSeries(cfg.HistoryInterval, cfg.HistoryRetention),
		slo:     obs.NewSLOEngine(obs.DefaultObjectives(avail, bound, sloClasses), nil),
		rt:      obs.NewRuntimeSampler(),
		build:   obs.ReadBuildInfo(),
		classes: map[string]*classSeries{},
		total:   make([]uint64, len(obs.DefaultLatencyBuckets)+1),
		deltas:  make([]uint64, len(obs.DefaultLatencyBuckets)+1),
		verdict: obs.Verdict(nil),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	for _, class := range sloClasses {
		cs := &classSeries{
			requests: "class:" + class + ":requests",
			p99:      "p99_ms:" + class,
			counts:   make([]uint64, len(obs.DefaultLatencyBuckets)+1),
		}
		for i := range cs.counts {
			cs.buckets = append(cs.buckets, "class:"+class+":le"+strconv.Itoa(i))
		}
		sp.classes[class] = cs
	}
	sp.tick(time.Now())
	return sp
}

// run is the sampler goroutine: one tick per interval until close.
func (sp *sampler) run() {
	defer close(sp.done)
	ticker := time.NewTicker(sp.ts.Interval())
	defer ticker.Stop()
	for {
		select {
		case <-sp.stop:
			return
		case now := <-ticker.C:
			sp.tick(now)
		}
	}
}

// close stops the sampler goroutine and waits for it to exit.
func (sp *sampler) close() {
	if sp == nil {
		return
	}
	close(sp.stop)
	<-sp.done
}

// latestVerdict returns the verdict from the most recent tick.
func (sp *sampler) latestVerdict() obs.HealthVerdict {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return sp.verdict
}

// tick takes one sample: raw counters and gauges into the ring, derived
// rates amended onto the same tick, then an SLO evaluation over the
// updated ring.
func (sp *sampler) tick(now time.Time) {
	sp.recordTick(now)
	sp.evaluateSLO(now)
}

// recordTick is the ring half of a tick. It is allocation-free in steady
// state (no new endpoints since the previous tick) — pinned by
// TestRecordTickZeroAllocs.
func (sp *sampler) recordTick(now time.Time) {
	s := sp.srv
	s.readFrame(&sp.frame, now, sp.rt.Sample(), sp.qps1m(now))
	sp.rows = s.metrics.readRows(sp.rows, sp.total)

	sp.raw = sp.raw[:0]
	add := func(name string, kind obs.SeriesKind, v float64) {
		sp.raw = append(sp.raw, obs.SamplePoint{Name: name, Kind: kind, Value: v})
	}
	for _, d := range scalarMetrics {
		add(d.series, d.kind, d.read(&sp.frame))
	}
	lat := latencyOf(latencyBuckets(sp.total))
	add("latency_p50_ms", obs.KindGauge, lat.P50Ms)
	add("latency_p95_ms", obs.KindGauge, lat.P95Ms)
	add("latency_p99_ms", obs.KindGauge, lat.P99Ms)

	// Per-endpoint series plus per-class aggregation for the SLO windows.
	for _, cs := range sp.classes {
		clear(cs.counts)
		cs.total = 0
	}
	for i := range sp.rows {
		row := &sp.rows[i]
		names := &row.es.series
		add(names.requests, obs.KindCounter, float64(row.count))
		add(names.errors, obs.KindCounter, float64(row.errors))
		add(names.p50, obs.KindGauge, row.hist.Quantile(0.50)*1000)
		add(names.p99, obs.KindGauge, row.hist.Quantile(0.99)*1000)
		if cs := sp.classes[endpointClasses[row.es.name]]; cs != nil {
			for b, c := range row.hist.Counts {
				cs.counts[b] += c
			}
			cs.total += row.count
		}
	}
	for _, class := range sloClasses {
		cs := sp.classes[class]
		add(cs.requests, obs.KindCounter, float64(cs.total))
		for b, c := range cs.counts {
			add(cs.buckets[b], obs.KindCounter, float64(c))
		}
	}
	sp.ts.Record(now, sp.raw)

	// Derived series: rates over the last couple of intervals and windowed
	// per-class p99s, amended onto the tick just recorded.
	sp.derived = sp.derived[:0]
	addD := func(name string, v float64) {
		sp.derived = append(sp.derived, obs.SamplePoint{Name: name, Kind: obs.KindGauge, Value: v})
	}
	rateWin := 2*sp.ts.Interval() + time.Second
	dreq, span, okReq := sp.ts.DeltaSince("requests_total", rateWin, now)
	if okReq && span > 0 {
		addD("qps", dreq/span.Seconds())
		var errRate, rate429 float64
		if dreq > 0 {
			derr, _, _ := sp.ts.DeltaSince("errors_total", rateWin, now)
			d429, _, _ := sp.ts.DeltaSince("responses_429_total", rateWin, now)
			errRate, rate429 = clamp01((derr-d429)/dreq), clamp01(d429/dreq)
		}
		addD("error_rate", errRate)
		addD("rate_429", rate429)
	}
	dh, _, okH := sp.ts.DeltaSince("cache_hits_total", rateWin, now)
	dm, _, okM := sp.ts.DeltaSince("cache_misses_total", rateWin, now)
	if okH && okM && dh+dm > 0 {
		addD("cache_hit_rate", clamp01(dh/(dh+dm)))
	}
	for _, class := range sloClasses {
		cs := sp.classes[class]
		if sp.classDeltas(cs, sloClassP99Window, now) > 0 {
			addD(cs.p99, latencyBuckets(sp.deltas).Quantile(0.99)*1000)
		}
	}
	sp.ts.Amend(sp.derived)
}

// qps1m reads qps_1m from the ring: the requests served since the
// trailing minute's baseline tick (obs.TimeSeries.Baseline) per second.
// 0 while history is disabled and before the first tick.
func (sp *sampler) qps1m(now time.Time) float64 {
	if sp == nil {
		return 0
	}
	t, v, ok := sp.ts.Baseline("requests_total", time.Minute, now)
	if !ok || !now.After(t) {
		return 0
	}
	return max(float64(sp.srv.metrics.requests.Load())-v, 0) / now.Sub(t).Seconds()
}

// evaluateSLO is the burn-rate half of a tick: evaluate every objective
// over the updated ring, publish the verdict, and journal breach
// transitions tagged with the generation in force.
func (sp *sampler) evaluateSLO(now time.Time) {
	statuses, events := sp.slo.Evaluate(now, sp.badFraction)
	verdict := obs.Verdict(statuses)
	sp.mu.Lock()
	sp.verdict = verdict
	sp.mu.Unlock()
	for _, ev := range events {
		sp.journalBreach(ev)
	}
}

// classDeltas fills sp.deltas with a class's per-bucket request counts
// over the trailing window and returns their sum: 0 until the window holds
// two ticks of class traffic.
func (sp *sampler) classDeltas(cs *classSeries, window time.Duration, now time.Time) uint64 {
	var total uint64
	for i, name := range cs.buckets {
		sp.deltas[i] = 0
		if d, _, ok := sp.ts.DeltaSince(name, window, now); ok && d > 0 {
			sp.deltas[i] = uint64(d)
			total += uint64(d)
		}
	}
	return total
}

// badFraction is the SLO engine's data source: the fraction of bad service
// over a trailing window, read from the ring's counter deltas.
//
//   - availability: (errors - 429s) / requests. Load shedding is honest
//     backpressure the server chose, not broken service — it burns the
//     latency budget of whoever retries, never the availability budget.
//   - latency: the fraction of class requests over the objective's p99
//     bound, from the class bucket deltas (the bound rounds down to a
//     bucket boundary).
func (sp *sampler) badFraction(o obs.Objective, window time.Duration, now time.Time) (float64, bool) {
	switch o.Kind {
	case obs.SLOAvailability:
		dreq, _, ok := sp.ts.DeltaSince("requests_total", window, now)
		if !ok || dreq <= 0 {
			return 0, false
		}
		derr, _, _ := sp.ts.DeltaSince("errors_total", window, now)
		d429, _, _ := sp.ts.DeltaSince("responses_429_total", window, now)
		return clamp01((derr - d429) / dreq), true
	case obs.SLOLatency:
		cs := sp.classes[o.Class]
		if cs == nil {
			return 0, false
		}
		total := sp.classDeltas(cs, window, now)
		if total == 0 {
			return 0, false
		}
		var good uint64
		for i, bound := range obs.DefaultLatencyBuckets {
			if bound <= o.Bound.Seconds() {
				good += sp.deltas[i]
			}
		}
		return clamp01(1 - float64(good)/float64(total)), true
	}
	return 0, false
}

// journalBreach writes one SLO transition into the lifecycle journal.
func (sp *sampler) journalBreach(ev obs.BreachEvent) {
	gen := sp.srv.registry.MaxGeneration()
	if ev.Resolved {
		sp.srv.journal.Append(obs.JournalEvent{
			Type:       obs.EventSLOResolve,
			Generation: gen,
			Detail:     map[string]any{"objective": ev.Objective.Name},
		})
		return
	}
	sp.srv.journal.Append(obs.JournalEvent{
		Type:       obs.EventSLOBurn,
		Generation: gen,
		Detail: map[string]any{
			"objective":  ev.Objective.Name,
			"kind":       ev.Objective.Kind,
			"target":     ev.Objective.Target,
			"window":     windowLabel(ev.Window.Short) + "/" + windowLabel(ev.Window.Long),
			"threshold":  ev.Window.Threshold,
			"burn_short": ev.BurnShort,
			"burn_long":  ev.BurnLong,
		},
	})
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// ---- HTTP surface --------------------------------------------------------

// defaultHistorySeries is the headline set GET /v1/debug:history serves
// when no ?series= selector is given.
var defaultHistorySeries = []string{
	"qps", "error_rate", "rate_429", "cache_hit_rate",
	"latency_p99_ms", "p99_ms:query", "p99_ms:mutate",
	"goroutines", "heap_inuse_bytes",
}

// historyRequest is the query string of GET /v1/debug:history.
type historyRequest struct {
	Series   string   `json:"series"`
	SinceSec *float64 `json:"since_sec"`
	StepSec  float64  `json:"step_sec"`
}

// historyResponse is the GET /v1/debug:history payload: aligned columns of
// the selected series (null where a series missed a tick), plus the full
// series catalogue for discovery.
type historyResponse struct {
	IntervalMs  float64  `json:"interval_ms"`
	Samples     int      `json:"samples"`
	TimesUnixMs []int64  `json:"times_unix_ms"`
	SeriesNames []string `json:"series_names"`
	// Series maps each requested name to one value per entry of
	// TimesUnixMs; unknown or not-yet-populated series are all-null.
	Series map[string][]*float64 `json:"series"`
}

// handleDebugHistory serves the telemetry history ring. ?series= selects a
// comma-separated subset (default: the headline rate/latency set),
// ?since_sec= bounds how far back to read, ?step_sec= downsamples to one
// sample per step (keeping the last sample of each step, so counter deltas
// stay exact). Each bad parameter is its own 400.
func (s *Server) handleDebugHistory(w http.ResponseWriter, r *http.Request) {
	if s.sampler == nil {
		writeError(w, http.StatusNotFound, "telemetry history disabled (HistoryInterval < 0)")
		return
	}
	var req historyRequest
	if !decodeQuery(w, r, &req) {
		return
	}
	names := defaultHistorySeries
	if req.Series != "" {
		names = strings.Split(req.Series, ",")
		for _, n := range names {
			if strings.TrimSpace(n) == "" {
				writeError(w, http.StatusBadRequest, "invalid series=%q: empty name in list", req.Series)
				return
			}
		}
	}
	ts := s.sampler.ts
	since := time.Now().Add(-time.Duration(ts.Capacity()) * ts.Interval())
	if req.SinceSec != nil {
		if *req.SinceSec <= 0 {
			writeError(w, http.StatusBadRequest, "since_sec must be > 0, got %g", *req.SinceSec)
			return
		}
		since = time.Now().Add(-time.Duration(*req.SinceSec * float64(time.Second)))
	}
	if req.StepSec < 0 {
		writeError(w, http.StatusBadRequest, "step_sec must be >= 0, got %g", req.StepSec)
		return
	}
	step := time.Duration(req.StepSec * float64(time.Second))
	res := ts.Range(names, since, step)
	resp := historyResponse{
		IntervalMs:  float64(ts.Interval()) / float64(time.Millisecond),
		Samples:     len(res.Times),
		TimesUnixMs: make([]int64, len(res.Times)),
		SeriesNames: ts.SeriesNames(),
		Series:      make(map[string][]*float64, len(names)),
	}
	for i, t := range res.Times {
		resp.TimesUnixMs[i] = t.UnixMilli()
	}
	for name, col := range res.Values {
		out := make([]*float64, len(col))
		for i := range col {
			if col[i] == col[i] { // not NaN
				v := col[i]
				out[i] = &v
			}
		}
		resp.Series[name] = out
	}
	writeJSON(w, http.StatusOK, resp)
}

// healthHistoryMeta describes the history ring inside the health verdict.
type healthHistoryMeta struct {
	IntervalMs  float64 `json:"interval_ms"`
	RetentionMs float64 `json:"retention_ms"`
	Samples     int     `json:"samples"`
	Series      int     `json:"series"`
	Ticks       uint64  `json:"ticks"`
}

// healthResponse is the GET /v1/debug:health payload: the machine-readable
// verdict a scatter-gather router scores replicas by.
type healthResponse struct {
	Healthy        bool              `json:"healthy"`
	Score          float64           `json:"score"`
	Status         string            `json:"status"`
	SLOs           []obs.SLOStatus   `json:"slos"`
	Ready          bool              `json:"ready"`
	Datasets       int               `json:"datasets"`
	IndexWarm      map[string]bool   `json:"index_warm"`
	Generation     uint64            `json:"generation"`
	UptimeSeconds  float64           `json:"uptime_seconds"`
	Build          obs.BuildInfo     `json:"build"`
	History        healthHistoryMeta `json:"history"`
	JournalLastSeq uint64            `json:"journal_last_seq"`
}

// handleDebugHealth serves the scored health verdict: overall score in
// [0,1] (min over per-SLO scores), per-SLO burn rates, plus the readiness
// and index facts a router needs alongside them.
func (s *Server) handleDebugHealth(w http.ResponseWriter, r *http.Request) {
	if s.sampler == nil {
		writeError(w, http.StatusNotFound, "telemetry history disabled (HistoryInterval < 0)")
		return
	}
	v := s.sampler.latestVerdict()
	if v.SLOs == nil {
		v.SLOs = []obs.SLOStatus{}
	}
	infos := s.registry.List()
	ts := s.sampler.ts
	writeJSON(w, http.StatusOK, healthResponse{
		Healthy:       v.Healthy,
		Score:         v.Score,
		Status:        v.Status,
		SLOs:          v.SLOs,
		Ready:         s.ready.Load(),
		Datasets:      len(infos),
		IndexWarm:     indexWarm(infos),
		Generation:    s.registry.MaxGeneration(),
		UptimeSeconds: time.Since(s.metrics.start).Seconds(),
		Build:         s.sampler.build,
		History: healthHistoryMeta{
			IntervalMs:  float64(ts.Interval()) / float64(time.Millisecond),
			RetentionMs: float64(ts.Interval()) / float64(time.Millisecond) * float64(ts.Capacity()),
			Samples:     ts.Len(),
			Series:      len(ts.SeriesNames()),
			Ticks:       ts.Ticks(),
		},
		JournalLastSeq: s.journal.LastSeq(),
	})
}
