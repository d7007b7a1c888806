package server

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// slowTickConfig keeps the background sampler goroutine effectively idle
// so tests can drive sampler.tick deterministically by hand. The long
// retention keeps the slot count (retention/interval) roomy.
func slowTickConfig() Config {
	return Config{HistoryInterval: time.Hour, HistoryRetention: 100 * time.Hour}
}

// fetchJSON fetches url and decodes the JSON body into out, asserting the
// expected status.
func fetchJSON(t *testing.T, url string, wantStatus int, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("get %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("get %s: status %d, want %d", url, resp.StatusCode, wantStatus)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
}

func TestHistoryEndpointServesSeries(t *testing.T) {
	srv, ts := newTestServer(t, slowTickConfig())
	loadGenerated(t, ts, "ind", 200, 3, 7)
	for i := 0; i < 20; i++ {
		srv.metrics.Observe("kspr", time.Millisecond, 200)
	}
	// Two deterministic ticks on top of the one NewServer took.
	now := time.Now()
	srv.sampler.tick(now)
	srv.sampler.tick(now.Add(time.Second))

	var hr historyResponse
	fetchJSON(t, ts.URL+"/v1/debug:history", http.StatusOK, &hr)
	if hr.Samples < 3 {
		t.Fatalf("samples = %d, want >= 3", hr.Samples)
	}
	if want := float64(time.Hour) / float64(time.Millisecond); hr.IntervalMs != want {
		t.Fatalf("interval_ms = %v, want %v", hr.IntervalMs, want)
	}
	if len(hr.TimesUnixMs) != hr.Samples {
		t.Fatalf("times len %d != samples %d", len(hr.TimesUnixMs), hr.Samples)
	}
	// The default selection includes the derived qps series; the second
	// manual tick must have a real value for it (two samples in window).
	col, ok := hr.Series["qps"]
	if !ok || len(col) != hr.Samples {
		t.Fatalf("qps column missing or wrong length: %v", col)
	}
	if col[len(col)-1] == nil {
		t.Fatal("latest qps is null, want a derived rate")
	}
	// Raw counter series selectable explicitly.
	fetchJSON(t, ts.URL+"/v1/debug:history?series=requests_total,ep:kspr:requests", http.StatusOK, &hr)
	reqCol := hr.Series["requests_total"]
	if v := reqCol[len(reqCol)-1]; v == nil || *v < 20 {
		t.Fatalf("requests_total latest = %v, want >= 20", v)
	}
	epCol := hr.Series["ep:kspr:requests"]
	if v := epCol[len(epCol)-1]; v == nil || *v != 20 {
		t.Fatalf("ep:kspr:requests latest = %v, want 20", v)
	}
	if len(hr.SeriesNames) == 0 {
		t.Fatal("series catalogue is empty")
	}
	// Step downsampling: all ticks land within seconds of each other, so a
	// ten-minute step collapses them to the last sample of one bucket. The
	// since offset is half a step off a multiple so no bucket boundary can
	// land between the ticks.
	fetchJSON(t, ts.URL+"/v1/debug:history?series=requests_total&since_sec=90300&step_sec=600", http.StatusOK, &hr)
	if hr.Samples != 1 {
		t.Fatalf("step-collapsed samples = %d, want 1", hr.Samples)
	}
}

func TestHistoryEndpointParamErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, q := range []string{
		"since_sec=abc", "since_sec=-5", "since_sec=0",
		"step_sec=xyz", "step_sec=-1",
		"series=a,,b",
	} {
		resp, err := http.Get(ts.URL + "/v1/debug:history?" + q)
		if err != nil {
			t.Fatalf("get ?%s: %v", q, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("?%s: status %d, want 400", q, resp.StatusCode)
		}
	}
	// Unknown series names are served as all-null columns, not errors —
	// callers distinguish "no such series" via series_names.
	var hr historyResponse
	fetchJSON(t, ts.URL+"/v1/debug:history?series=no_such_series", http.StatusOK, &hr)
	for i, v := range hr.Series["no_such_series"] {
		if v != nil {
			t.Fatalf("unknown series has value at index %d", i)
		}
	}
}

func TestHistoryDisabled(t *testing.T) {
	_, ts := newTestServer(t, Config{HistoryInterval: -1})
	fetchJSON(t, ts.URL+"/v1/debug:history", http.StatusNotFound, nil)
	fetchJSON(t, ts.URL+"/v1/debug:health", http.StatusNotFound, nil)
	// /metrics.prom must still render, without the SLO section.
	resp, err := http.Get(ts.URL + "/metrics.prom")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics.prom status %d", resp.StatusCode)
	}
	if strings.Contains(body, "ksprd_slo_healthy") {
		t.Fatal("disabled sampler still exports ksprd_slo_healthy")
	}
	if !strings.Contains(body, "ksprd_go_goroutines") {
		t.Fatal("runtime gauges must not depend on the sampler")
	}
}

func TestHealthVerdictCleanServer(t *testing.T) {
	srv, ts := newTestServer(t, slowTickConfig())
	loadGenerated(t, ts, "ind", 200, 3, 7)
	for i := 0; i < 50; i++ {
		srv.metrics.Observe("kspr", time.Millisecond, 200)
	}
	now := time.Now()
	srv.sampler.tick(now)
	srv.sampler.tick(now.Add(time.Second))

	var hr healthResponse
	fetchJSON(t, ts.URL+"/v1/debug:health", http.StatusOK, &hr)
	if !hr.Healthy || hr.Score != 1 || hr.Status != "healthy" {
		t.Fatalf("clean server verdict = %+v, want healthy at score 1", hr)
	}
	if !hr.Ready {
		t.Fatal("store-less server must be ready")
	}
	if hr.Datasets != 1 {
		t.Fatalf("datasets = %d, want 1", hr.Datasets)
	}
	if _, ok := hr.IndexWarm["ind"]; !ok {
		t.Fatalf("index_warm missing dataset: %+v", hr.IndexWarm)
	}
	if hr.Generation == 0 {
		t.Fatal("generation = 0, want the loaded dataset's generation")
	}
	if len(hr.SLOs) != 3 {
		t.Fatalf("got %d SLOs, want availability + 2 latency classes", len(hr.SLOs))
	}
	if hr.Build.Go == "" {
		t.Fatal("health verdict missing build info")
	}
	if hr.History.Samples < 3 || hr.History.Series == 0 {
		t.Fatalf("history meta = %+v", hr.History)
	}
	if hr.UptimeSeconds < 0 {
		t.Fatalf("uptime = %v", hr.UptimeSeconds)
	}
}

// burnErrors drives enough 500s through the metrics to torch the
// availability budget, across two manual ticks so every burn window has
// the two samples it needs.
func burnErrors(srv *Server, now time.Time, n int) {
	for i := 0; i < n/2; i++ {
		srv.metrics.Observe("kspr", time.Millisecond, 500)
	}
	srv.sampler.tick(now)
	for i := 0; i < n/2; i++ {
		srv.metrics.Observe("kspr", time.Millisecond, 500)
	}
	srv.sampler.tick(now.Add(time.Second))
}

func TestHealthVerdictFlipsOnErrorBurn(t *testing.T) {
	srv, ts := newTestServer(t, slowTickConfig())
	now := time.Now()
	burnErrors(srv, now, 400)

	var hr healthResponse
	fetchJSON(t, ts.URL+"/v1/debug:health", http.StatusOK, &hr)
	if hr.Healthy || hr.Status != "breaching" {
		t.Fatalf("verdict after error storm: healthy=%v status=%q, want breaching", hr.Healthy, hr.Status)
	}
	if hr.Score != 0 {
		t.Fatalf("score = %v, want 0 under total burn", hr.Score)
	}
	var avail *obs.SLOStatus
	for i := range hr.SLOs {
		if hr.SLOs[i].Name == "availability" {
			avail = &hr.SLOs[i]
		}
	}
	if avail == nil || !avail.Breaching {
		t.Fatalf("availability SLO not breaching: %+v", hr.SLOs)
	}
	// ~100% bad against a 0.1% budget: burn rate ~1000x.
	if avail.Windows[0].BurnShort < 100 {
		t.Fatalf("burn_short = %v, want far above threshold", avail.Windows[0].BurnShort)
	}

	// The breach landed in the journal as slo_burn...
	var er eventsResponse
	fetchJSON(t, ts.URL+"/v1/debug:events", http.StatusOK, &er)
	var burn *obs.JournalEvent
	for i := range er.Events {
		if er.Events[i].Type == obs.EventSLOBurn {
			burn = &er.Events[i]
		}
	}
	if burn == nil {
		t.Fatalf("no slo_burn journal event in %+v", er.Events)
	}
	if burn.Detail["objective"] != "availability" {
		t.Fatalf("slo_burn detail = %+v", burn.Detail)
	}

	// ...and /metrics.prom exports the unhealthy verdict and burn rates.
	resp, err := http.Get(ts.URL + "/metrics.prom")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if !strings.Contains(body, "ksprd_slo_healthy 0") {
		t.Fatal("metrics.prom missing ksprd_slo_healthy 0")
	}
	if !strings.Contains(body, `ksprd_slo_burn_rate{slo="availability",window="5m"}`) {
		t.Fatal("metrics.prom missing availability burn rate sample")
	}
	if !strings.Contains(body, "ksprd_build_info{") {
		t.Fatal("metrics.prom missing ksprd_build_info")
	}
	if !strings.Contains(body, "ksprd_go_goroutines") {
		t.Fatal("metrics.prom missing runtime gauges")
	}

	// Recovery: jump past the longest burn window (6h) so every window sees
	// only clean traffic, and the breach resolves.
	later := now.Add(7 * time.Hour)
	for i := 0; i < 500; i++ {
		srv.metrics.Observe("kspr", time.Millisecond, 200)
	}
	srv.sampler.tick(later)
	for i := 0; i < 500; i++ {
		srv.metrics.Observe("kspr", time.Millisecond, 200)
	}
	srv.sampler.tick(later.Add(time.Second))
	fetchJSON(t, ts.URL+"/v1/debug:health", http.StatusOK, &hr)
	if !hr.Healthy {
		t.Fatalf("verdict did not recover: %+v", hr)
	}
	fetchJSON(t, ts.URL+"/v1/debug:events", http.StatusOK, &er)
	found := false
	for _, ev := range er.Events {
		if ev.Type == obs.EventSLOResolve {
			found = true
		}
	}
	if !found {
		t.Fatal("no slo_resolved journal event after recovery")
	}
}

func Test429sDoNotBurnAvailability(t *testing.T) {
	srv, ts := newTestServer(t, slowTickConfig())
	now := time.Now()
	for i := 0; i < 200; i++ {
		srv.metrics.Observe("kspr", time.Millisecond, 429)
	}
	srv.sampler.tick(now)
	for i := 0; i < 200; i++ {
		srv.metrics.Observe("kspr", time.Millisecond, 429)
	}
	srv.sampler.tick(now.Add(time.Second))

	var hr healthResponse
	fetchJSON(t, ts.URL+"/v1/debug:health", http.StatusOK, &hr)
	if !hr.Healthy {
		t.Fatalf("load shedding flipped the verdict: %+v", hr)
	}
	// The 429s still show up as a counter and a derived rate.
	var histResp historyResponse
	fetchJSON(t, ts.URL+"/v1/debug:history?series=responses_429_total,rate_429", http.StatusOK, &histResp)
	col := histResp.Series["responses_429_total"]
	if v := col[len(col)-1]; v == nil || *v != 400 {
		t.Fatalf("responses_429_total = %v, want 400", v)
	}
	rate := histResp.Series["rate_429"]
	if v := rate[len(rate)-1]; v == nil || *v <= 0.9 {
		t.Fatalf("rate_429 = %v, want ~1", v)
	}
}

func TestLatencySLOBurnsOnSlowClass(t *testing.T) {
	cfg := slowTickConfig()
	cfg.SLOP99 = 50 * time.Millisecond
	srv, ts := newTestServer(t, cfg)
	now := time.Now()
	// Every query-class request lands far over the 50ms bound.
	for i := 0; i < 100; i++ {
		srv.metrics.Observe("kspr", 2*time.Second, 200)
	}
	srv.sampler.tick(now)
	for i := 0; i < 100; i++ {
		srv.metrics.Observe("kspr", 2*time.Second, 200)
	}
	srv.sampler.tick(now.Add(time.Second))

	var hr healthResponse
	fetchJSON(t, ts.URL+"/v1/debug:health", http.StatusOK, &hr)
	var q *obs.SLOStatus
	for i := range hr.SLOs {
		if hr.SLOs[i].Name == "latency-p99-query" {
			q = &hr.SLOs[i]
		}
	}
	if q == nil || !q.Breaching {
		t.Fatalf("query latency SLO not breaching: %+v", hr.SLOs)
	}
	if hr.Healthy {
		t.Fatal("verdict still healthy under latency burn")
	}
	// The mutate class saw no traffic: its SLO must be quiet, not guilty.
	for i := range hr.SLOs {
		if hr.SLOs[i].Name == "latency-p99-mutate" && hr.SLOs[i].Breaching {
			t.Fatal("idle mutate class breaching")
		}
	}
	// Derived windowed p99 series reflects the slow traffic.
	var histResp historyResponse
	fetchJSON(t, ts.URL+"/v1/debug:history?series=p99_ms:query", http.StatusOK, &histResp)
	col := histResp.Series["p99_ms:query"]
	if v := col[len(col)-1]; v == nil || *v < 1000 {
		t.Fatalf("p99_ms:query = %v, want >= 1000ms", v)
	}
}

func TestRecordTickZeroAllocs(t *testing.T) {
	srv := NewServer(slowTickConfig())
	defer srv.Close()
	for i := 0; i < 100; i++ {
		srv.metrics.Observe("kspr", time.Millisecond, 200)
		srv.metrics.Observe("topk", time.Millisecond, 500)
	}
	sp := srv.sampler
	now := time.Now()
	sp.tick(now) // registers every series
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		i++
		sp.recordTick(now.Add(time.Duration(i) * time.Second))
	})
	if allocs != 0 {
		t.Fatalf("recordTick allocates %v/op in steady state, want 0", allocs)
	}
}

func TestMetricsJSONIncludesRuntimeAndBuild(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var snap struct {
		Runtime obs.RuntimeStats `json:"runtime"`
		Build   obs.BuildInfo    `json:"build"`
		SLO     *SLOView         `json:"slo"`
	}
	fetchJSON(t, ts.URL+"/metrics", http.StatusOK, &snap)
	if snap.Runtime.Goroutines < 1 {
		t.Fatalf("runtime goroutines = %d", snap.Runtime.Goroutines)
	}
	if snap.Runtime.HeapInuseBytes == 0 {
		t.Fatal("runtime heap_inuse_bytes = 0")
	}
	if snap.Build.Go == "" {
		t.Fatal("/metrics missing build info")
	}
	if snap.SLO == nil || !snap.SLO.Healthy {
		t.Fatalf("/metrics SLO section = %+v, want healthy", snap.SLO)
	}
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return sb.String()
}

func BenchmarkSnapshotSteadyState(b *testing.B) {
	m := NewMetrics()
	for _, ep := range []string{"kspr", "kspr.batch", "topk", "skyline", "impact", "whatif.price"} {
		for i := 0; i < 500; i++ {
			m.Observe(ep, time.Duration(i)*time.Microsecond, 200)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Snapshot()
	}
}

func BenchmarkSamplerTick(b *testing.B) {
	srv := NewServer(slowTickConfig())
	defer srv.Close()
	for _, ep := range []string{"kspr", "kspr.batch", "topk", "datasets.mutate"} {
		for i := 0; i < 500; i++ {
			srv.metrics.Observe(ep, time.Duration(i)*time.Microsecond, 200)
		}
	}
	now := time.Now()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv.sampler.tick(now.Add(time.Duration(i) * time.Second))
	}
}
