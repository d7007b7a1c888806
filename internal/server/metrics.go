package server

// This file is the metrics model. Every scalar counter and gauge the
// server exposes is declared once, in scalarMetrics, and rendered three
// ways from that one list: the JSON body of GET /metrics, the Prometheus
// exposition of GET /metrics.prom, and the history ring's sampler tick.
// Latency is recorded once per request, into the endpoint's histogram;
// the per-endpoint rows and the global latency view are both read from
// those histograms, with obs.NearestRank as the only quantile rule.

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Metrics holds the serving counters and the per-endpoint latency
// histograms. All methods are safe for concurrent use; Observe is a few
// atomic adds plus one histogram add.
type Metrics struct {
	start    time.Time
	requests atomic.Uint64
	errors   atomic.Uint64
	resp429  atomic.Uint64

	mutationBatches atomic.Uint64
	mutationsTotal  atomic.Uint64
	cacheMigrated   atomic.Uint64
	cacheDropped    atomic.Uint64
	recoveries      atomic.Uint64

	whatifProbes atomic.Uint64
	whatifKept   atomic.Uint64

	// byName finds an endpoint's stats without locking. sorted lists the
	// same stats in name order for rendering; it is replaced copy-on-write
	// under regMu the first time an endpoint is seen.
	byName sync.Map // string -> *endpointStats
	regMu  sync.Mutex
	sorted atomic.Pointer[[]*endpointStats]
}

// endpointStats is one endpoint's serving record: request and error
// counters plus a latency histogram in the obs.DefaultLatencyBuckets
// layout.
type endpointStats struct {
	name   string
	series epSeriesNames
	count  atomic.Uint64
	errors atomic.Uint64
	hist   *obs.Histogram
}

// NewMetrics starts the clock.
func NewMetrics() *Metrics {
	return &Metrics{start: time.Now()}
}

// endpoint returns the named endpoint's stats, registering them on first
// use. The common path is one lock-free map lookup.
func (m *Metrics) endpoint(name string) *endpointStats {
	if v, ok := m.byName.Load(name); ok {
		return v.(*endpointStats)
	}
	m.regMu.Lock()
	defer m.regMu.Unlock()
	if v, ok := m.byName.Load(name); ok {
		return v.(*endpointStats)
	}
	es := &endpointStats{name: name, hist: obs.NewHistogram(nil), series: epSeriesNames{
		requests: "ep:" + name + ":requests",
		errors:   "ep:" + name + ":errors",
		p50:      "ep:" + name + ":p50_ms",
		p99:      "ep:" + name + ":p99_ms",
	}}
	list := append(slices.Clone(m.endpoints()), es)
	slices.SortFunc(list, func(a, b *endpointStats) int { return strings.Compare(a.name, b.name) })
	m.sorted.Store(&list)
	m.byName.Store(name, es)
	return es
}

// endpoints returns every endpoint's stats in name order.
func (m *Metrics) endpoints() []*endpointStats {
	if p := m.sorted.Load(); p != nil {
		return *p
	}
	return nil
}

// Observe records one finished request by its response status. Statuses
// >= 400 count as errors; 429s are additionally counted on their own so
// the SLO layer can exclude honest backpressure from availability burn.
func (m *Metrics) Observe(endpoint string, d time.Duration, status int) {
	es := m.endpoint(endpoint)
	m.requests.Add(1)
	es.count.Add(1)
	if status >= 400 {
		m.errors.Add(1)
		es.errors.Add(1)
	}
	if status == 429 {
		m.resp429.Add(1)
	}
	es.hist.Observe(d)
}

// AddErrors bumps the error counter by n without recording requests; used
// for failures that hide inside an otherwise-successful response (e.g.
// per-query errors in a streamed 200 batch).
func (m *Metrics) AddErrors(n uint64) {
	m.errors.Add(n)
}

// AddMutationBatch records one applied mutation batch of n mutations,
// with migrated/dropped counting the cached results carried across the
// generation versus orphaned by it.
func (m *Metrics) AddMutationBatch(n, migrated, dropped int) {
	m.mutationBatches.Add(1)
	m.mutationsTotal.Add(uint64(n))
	m.cacheMigrated.Add(uint64(migrated))
	m.cacheDropped.Add(uint64(dropped))
}

// AddRecoveries records datasets restored by WAL replay at startup.
func (m *Metrics) AddRecoveries(n int) {
	m.recoveries.Add(uint64(n))
}

// AddWhatIf records one what-if call's probe economy: probes evaluated and
// how many of them the incremental keep/classification path absorbed.
func (m *Metrics) AddWhatIf(probes, kept uint64) {
	m.whatifProbes.Add(probes)
	m.whatifKept.Add(kept)
}

// ---- scalar metrics: declared once --------------------------------------

// metricsFrame is one read of every source the scalar metrics draw on.
// A frame built from Metrics alone (Metrics.Snapshot) leaves the
// server-owned sources zero.
type metricsFrame struct {
	m           *Metrics
	now         time.Time
	qps         float64
	cache       CacheStats
	poolWorkers int
	poolDepth   int64
	cpuSlots    int
	cpuInUse    int
	datasets    int
	runtime     obs.RuntimeStats
}

// metricDef declares one scalar metric: its history-ring series, its
// /metrics JSON key ("section.key" nests one level), its Prometheus
// family and help text, its kind, and how to read it from a frame.
type metricDef struct {
	series string
	json   string
	prom   string
	help   string
	kind   obs.SeriesKind
	// promScale converts the value into the Prometheus family's unit
	// (0 = unchanged).
	promScale float64
	read      func(*metricsFrame) float64
}

// counter and gauge build a metricDef of their kind.
func counter(series, jsonKey, prom, help string, read func(*metricsFrame) uint64) metricDef {
	return metricDef{series: series, json: jsonKey, prom: prom, help: help, kind: obs.KindCounter,
		read: func(f *metricsFrame) float64 { return float64(read(f)) }}
}

func gauge(series, jsonKey, prom, help string, read func(*metricsFrame) float64) metricDef {
	return metricDef{series: series, json: jsonKey, prom: prom, help: help, kind: obs.KindGauge, read: read}
}

// scalarMetrics is the one list /metrics, /metrics.prom and the sampler
// tick iterate.
var scalarMetrics = []metricDef{
	gauge("uptime_seconds", "uptime_seconds", "kspr_uptime_seconds", "Seconds since the server started.",
		func(f *metricsFrame) float64 { return f.now.Sub(f.m.start).Seconds() }),
	counter("requests_total", "requests_total", "kspr_requests_total", "HTTP requests served across all endpoints.",
		func(f *metricsFrame) uint64 { return f.m.requests.Load() }),
	counter("errors_total", "errors_total", "kspr_errors_total", "Requests answered with status >= 400, plus per-item failures inside streamed batches.",
		func(f *metricsFrame) uint64 { return f.m.errors.Load() }),
	counter("responses_429_total", "responses_429_total", "kspr_responses_429_total", "Requests shed with 429 (CPU budget exhausted or queue full).",
		func(f *metricsFrame) uint64 { return f.m.resp429.Load() }),
	gauge("qps_1m", "qps_1m", "kspr_qps_1m", "Requests per second over the trailing minute, from the history ring (0 while history is disabled).",
		func(f *metricsFrame) float64 { return f.qps }),
	gauge("datasets", "dataset_count", "kspr_datasets", "Datasets currently registered.",
		func(f *metricsFrame) float64 { return float64(f.datasets) }),

	counter("cache_hits_total", "cache.hits", "kspr_cache_hits_total", "Result cache hits.",
		func(f *metricsFrame) uint64 { return f.cache.Hits }),
	counter("cache_misses_total", "cache.misses", "kspr_cache_misses_total", "Result cache misses.",
		func(f *metricsFrame) uint64 { return f.cache.Misses }),
	gauge("cache_hit_rate_lifetime", "cache.hit_rate", "kspr_cache_hit_rate_lifetime", "Result cache hits over lookups since the server started.",
		func(f *metricsFrame) float64 { return f.cache.HitRate }),
	gauge("cache_entries", "cache.entries", "kspr_cache_entries", "Entries currently cached.",
		func(f *metricsFrame) float64 { return float64(f.cache.Entries) }),
	gauge("cache_shards", "cache.shards", "kspr_cache_shards", "Result cache shards.",
		func(f *metricsFrame) float64 { return float64(f.cache.Shards) }),

	gauge("pool_workers", "pool.workers", "kspr_pool_workers", "Worker pool size.",
		func(f *metricsFrame) float64 { return float64(f.poolWorkers) }),
	gauge("pool_depth", "pool.depth", "kspr_pool_depth", "Queued plus running jobs in the worker pool.",
		func(f *metricsFrame) float64 { return float64(f.poolDepth) }),
	gauge("cpu_extra_slots", "cpu.extra_slots", "kspr_cpu_extra_slots", "Extra CPU slots in the parallelism budget.",
		func(f *metricsFrame) float64 { return float64(f.cpuSlots) }),
	gauge("cpu_slots_in_use", "cpu.in_use", "kspr_cpu_slots_in_use", "Extra CPU slots currently held by parallel queries.",
		func(f *metricsFrame) float64 { return float64(f.cpuInUse) }),

	counter("mutation_batches_total", "mutations.batches_total", "kspr_mutation_batches_total", "Applied dataset mutation batches.",
		func(f *metricsFrame) uint64 { return f.m.mutationBatches.Load() }),
	counter("mutations_total", "mutations.mutations_total", "kspr_mutations_total", "Individual mutations applied.",
		func(f *metricsFrame) uint64 { return f.m.mutationsTotal.Load() }),
	counter("cache_results_migrated_total", "mutations.cache_results_migrated_total", "kspr_cache_results_migrated_total", "Cached results carried across dataset generations.",
		func(f *metricsFrame) uint64 { return f.m.cacheMigrated.Load() }),
	counter("cache_results_dropped_total", "mutations.cache_results_dropped_total", "kspr_cache_results_dropped_total", "Cached results orphaned by dataset generations.",
		func(f *metricsFrame) uint64 { return f.m.cacheDropped.Load() }),
	counter("wal_recoveries_total", "mutations.wal_recoveries_total", "kspr_wal_recoveries_total", "Datasets restored by WAL replay at startup.",
		func(f *metricsFrame) uint64 { return f.m.recoveries.Load() }),

	counter("whatif_probes_total", "whatif.probes_total", "kspr_whatif_probes_total", "What-if impact probes evaluated.",
		func(f *metricsFrame) uint64 { return f.m.whatifProbes.Load() }),
	counter("whatif_kept_total", "whatif.kept_total", "kspr_whatif_kept_total", "What-if probes absorbed by the incremental keep path.",
		func(f *metricsFrame) uint64 { return f.m.whatifKept.Load() }),
	gauge("whatif_keep_rate", "whatif.keep_rate", "kspr_whatif_keep_rate", "Fraction of what-if probes answered without an engine run.",
		func(f *metricsFrame) float64 {
			return float64(f.m.whatifKept.Load()) / float64(max(f.m.whatifProbes.Load(), 1))
		}),

	gauge("goroutines", "runtime.goroutines", "ksprd_go_goroutines", "Live goroutines.",
		func(f *metricsFrame) float64 { return float64(f.runtime.Goroutines) }),
	gauge("heap_inuse_bytes", "runtime.heap_inuse_bytes", "ksprd_go_heap_inuse_bytes", "Heap bytes in use (live objects plus unused span tails).",
		func(f *metricsFrame) float64 { return float64(f.runtime.HeapInuseBytes) }),
	{series: "gc_pause_p99_ms", json: "runtime.gc_pause_p99_ms", prom: "ksprd_go_gc_pause_p99_seconds",
		help: "p99 GC stop-the-world pause since process start.", kind: obs.KindGauge, promScale: 1e-3,
		read: func(f *metricsFrame) float64 { return f.runtime.GCPauseP99Ms }},
}

// ---- latency rows: read from the histograms -----------------------------

// LatencyStats are latency quantiles in milliseconds. Each reports the
// upper bound of the histogram bucket holding the nearest-rank sample.
type LatencyStats struct {
	P50Ms float64 `json:"p50_ms"`
	P95Ms float64 `json:"p95_ms"`
	P99Ms float64 `json:"p99_ms"`
}

// EndpointLatency is one endpoint's row in /metrics: its counters plus
// the latency quantiles of its histogram.
type EndpointLatency struct {
	Requests uint64 `json:"requests_total"`
	Errors   uint64 `json:"errors_total"`
	LatencyStats
}

// endpointRow is one endpoint's reading of the metrics model.
type endpointRow struct {
	es     *endpointStats
	count  uint64
	errors uint64
	hist   obs.HistSnapshot
}

// latencyBuckets views per-bucket counts in the obs.DefaultLatencyBuckets
// layout (+Inf last) as a histogram snapshot.
func latencyBuckets(counts []uint64) obs.HistSnapshot {
	return obs.HistSnapshot{Bounds: obs.DefaultLatencyBuckets, Counts: counts}
}

// latencyOf reads the p50/p95/p99 of a latency histogram in milliseconds.
func latencyOf(h obs.HistSnapshot) LatencyStats {
	return LatencyStats{
		P50Ms: h.Quantile(0.50) * 1000,
		P95Ms: h.Quantile(0.95) * 1000,
		P99Ms: h.Quantile(0.99) * 1000,
	}
}

// readRows reads every endpoint's row, in name order, into rows (reusing
// its storage) and sums all endpoints' bucket counts into total — the
// global latency view. total must have len(obs.DefaultLatencyBuckets)+1
// entries. With rows already sized it allocates nothing.
func (m *Metrics) readRows(rows []endpointRow, total []uint64) []endpointRow {
	clear(total)
	eps := m.endpoints()
	rows = slices.Grow(rows[:0], len(eps))[:len(eps)]
	for i, es := range eps {
		r := &rows[i]
		r.es, r.count, r.errors = es, es.count.Load(), es.errors.Load()
		es.hist.SnapshotInto(&r.hist)
		for b, c := range r.hist.Counts {
			total[b] += c
		}
	}
	return rows
}

// ---- the snapshot and its two renderings --------------------------------

// MetricsSnapshot is one read of the metrics model: the declared scalars,
// the latency rows, and the sections other server components own. It
// renders as the GET /metrics JSON body (MarshalJSON) and the GET
// /metrics.prom exposition (WriteProm).
type MetricsSnapshot struct {
	// Values holds one value per scalarMetrics entry, in declaration
	// order.
	Values []float64
	// Latency is the global view: the quantiles of all endpoints' bucket
	// counts summed. LatencyByEndpoint has one row per endpoint.
	Latency           LatencyStats
	LatencyByEndpoint map[string]EndpointLatency
	rows              []endpointRow
	// Datasets, Build and SLO are filled by the server's metricsView; SLO
	// is nil when the SLO engine is off.
	Datasets []DatasetInfo
	Build    obs.BuildInfo
	SLO      *SLOView
}

// SLOView is the /metrics (and black-box) rendering of the SLO engine's
// latest evaluation.
type SLOView struct {
	Healthy    bool            `json:"healthy"`
	Score      float64         `json:"score"`
	Objectives []obs.SLOStatus `json:"objectives"`
}

// Snapshot reads the model from m's own sources; the server-owned ones
// (cache, pool, CPU budget, registry, runtime, history ring) read zero.
// The server's metricsView fills them in.
func (m *Metrics) Snapshot() MetricsSnapshot {
	return snapshotOf(&metricsFrame{m: m, now: time.Now()})
}

// snapshotOf reads every declared scalar from f and the latency rows from
// f.m's histograms.
func snapshotOf(f *metricsFrame) MetricsSnapshot {
	total := make([]uint64, len(obs.DefaultLatencyBuckets)+1)
	snap := MetricsSnapshot{
		Values:            make([]float64, len(scalarMetrics)),
		rows:              f.m.readRows(nil, total),
		LatencyByEndpoint: map[string]EndpointLatency{},
	}
	for i, d := range scalarMetrics {
		snap.Values[i] = d.read(f)
	}
	snap.Latency = latencyOf(latencyBuckets(total))
	for _, r := range snap.rows {
		snap.LatencyByEndpoint[r.es.name] = EndpointLatency{Requests: r.count, Errors: r.errors, LatencyStats: latencyOf(r.hist)}
	}
	return snap
}

// MarshalJSON renders the GET /metrics body: each declared scalar under
// its JSON key, then the latency, dataset, build and SLO sections.
func (s MetricsSnapshot) MarshalJSON() ([]byte, error) {
	byEndpoint := make(map[string]uint64, len(s.LatencyByEndpoint))
	for name, ep := range s.LatencyByEndpoint {
		byEndpoint[name] = ep.Requests
	}
	body := map[string]any{
		"latency":              s.Latency,
		"requests_by_endpoint": byEndpoint,
		"latency_by_endpoint":  s.LatencyByEndpoint,
		"datasets":             s.Datasets,
		"build":                s.Build,
	}
	if s.SLO != nil {
		body["slo"] = s.SLO
	}
	for i, d := range scalarMetrics {
		section, key, nested := strings.Cut(d.json, ".")
		if !nested {
			body[section] = s.Values[i]
			continue
		}
		sub, _ := body[section].(map[string]float64)
		if sub == nil {
			sub = map[string]float64{}
			body[section] = sub
		}
		sub[key] = s.Values[i]
	}
	return json.Marshal(body)
}

// windowLabel renders a burn window compactly for metric labels ("5m",
// "1h") instead of time.Duration's "5m0s"/"1h0m0s".
func windowLabel(d time.Duration) string {
	switch {
	case d >= time.Hour && d%time.Hour == 0:
		return fmt.Sprintf("%dh", d/time.Hour)
	case d >= time.Minute && d%time.Minute == 0:
		return fmt.Sprintf("%dm", d/time.Minute)
	default:
		return d.String()
	}
}

// WriteProm renders the snapshot in Prometheus text exposition format
// (the GET /metrics.prom body). The first write error is returned.
func (s MetricsSnapshot) WriteProm(w io.Writer) error {
	p := obs.NewPromWriter(w)
	for i, d := range scalarMetrics {
		v := s.Values[i]
		if d.promScale != 0 {
			v *= d.promScale
		}
		if d.kind == obs.KindCounter {
			p.Counter(d.prom, d.help, v)
		} else {
			p.Gauge(d.prom, d.help, v)
		}
	}

	// Per-endpoint counters and histograms, in endpoint name order.
	if len(s.rows) > 0 {
		p.Header("kspr_endpoint_requests_total", "Requests per endpoint.", "counter")
		for _, r := range s.rows {
			p.Sample("kspr_endpoint_requests_total", []obs.Label{{Name: "endpoint", Value: r.es.name}}, float64(r.count))
		}
		p.Header("kspr_endpoint_errors_total", "Error responses per endpoint.", "counter")
		for _, r := range s.rows {
			p.Sample("kspr_endpoint_errors_total", []obs.Label{{Name: "endpoint", Value: r.es.name}}, float64(r.errors))
		}
		p.Header("kspr_request_duration_seconds", "Request latency per endpoint.", "histogram")
		for _, r := range s.rows {
			p.HistogramSeries("kspr_request_duration_seconds", []obs.Label{{Name: "endpoint", Value: r.es.name}}, r.hist)
		}
	}

	if len(s.Datasets) > 0 {
		// 1 = the candidate index came from the persisted layout (warm
		// restart), 0 = it was rebuilt cold. Datasets are sorted by name.
		p.Header("ksprd_index_warm", "Whether the dataset's candidate index was restored warm (1) or rebuilt cold (0).", "gauge")
		for _, d := range s.Datasets {
			v := 0.0
			if d.IndexWarm {
				v = 1.0
			}
			p.Sample("ksprd_index_warm", []obs.Label{{Name: "dataset", Value: d.Name}}, v)
		}
	}
	p.Header("ksprd_build_info", "Binary identity; the value is always 1, the labels carry the facts.", "gauge")
	p.Sample("ksprd_build_info", []obs.Label{
		{Name: "version", Value: s.Build.Version},
		{Name: "go", Value: s.Build.Go},
		{Name: "goamd64", Value: s.Build.GOAMD64},
	}, 1)

	// SLO burn rates and the rolled-up health verdict (absent when the SLO
	// engine is off).
	if s.SLO != nil {
		healthy := 1.0
		if !s.SLO.Healthy {
			healthy = 0
		}
		p.Gauge("ksprd_slo_healthy", "1 when no SLO is actively breaching its burn-rate thresholds.", healthy)
		p.Gauge("ksprd_health_score", "Overall health score in [0,1]: min over per-SLO scores.", s.SLO.Score)
		if len(s.SLO.Objectives) > 0 {
			p.Header("ksprd_slo_burn_rate", "Error-budget burn rate per SLO and window.", "gauge")
			for _, st := range s.SLO.Objectives {
				for _, wb := range st.Windows {
					p.Sample("ksprd_slo_burn_rate", []obs.Label{
						{Name: "slo", Value: st.Name},
						{Name: "window", Value: windowLabel(wb.Short)},
					}, wb.BurnShort)
					p.Sample("ksprd_slo_burn_rate", []obs.Label{
						{Name: "slo", Value: st.Name},
						{Name: "window", Value: windowLabel(wb.Long)},
					}, wb.BurnLong)
				}
			}
		}
	}
	return p.Err()
}
