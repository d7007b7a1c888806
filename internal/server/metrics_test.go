package server

import (
	"net/http"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// BenchmarkMetricsObserveParallel measures the per-request metrics
// record under parallel load. Every request of every endpoint passes
// through Observe, which is atomics plus one histogram add.
func BenchmarkMetricsObserveParallel(b *testing.B) {
	m := NewMetrics()
	d := 3 * time.Millisecond
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			m.Observe("kspr", d, 200)
		}
	})
}

// snapValue reads a declared scalar metric from a snapshot by JSON key.
func snapValue(t *testing.T, snap MetricsSnapshot, jsonKey string) float64 {
	t.Helper()
	for i, d := range scalarMetrics {
		if d.json == jsonKey {
			return snap.Values[i]
		}
	}
	t.Fatalf("no declared metric has JSON key %q", jsonKey)
	return 0
}

// jsonValue looks up a "section.key" path in a decoded /metrics body.
func jsonValue(body map[string]any, path string) (float64, bool) {
	section, key, nested := strings.Cut(path, ".")
	v := body[section]
	if nested {
		sub, _ := v.(map[string]any)
		v = sub[key]
	}
	f, ok := v.(float64)
	return f, ok
}

// TestMetricsDeclaredOnceRenderedThreeWays pins the metrics model: after
// traffic and one sampler tick, every declared scalar appears under its
// JSON key in /metrics, as a family in /metrics.prom, and as a series in
// the history ring, each name used once, and the three renderings agree.
func TestMetricsDeclaredOnceRenderedThreeWays(t *testing.T) {
	srv, ts := newTestServer(t, slowTickConfig())
	loadGenerated(t, ts, "ind", 200, 3, 5)
	for i := 0; i < 3; i++ {
		if resp, body := postJSON(t, ts.URL+"/v1/kspr", queryRequest{Dataset: "ind", Focal: i, K: 4}); resp.StatusCode != http.StatusOK {
			t.Fatalf("query %d: status %d: %s", i, resp.StatusCode, body)
		}
	}
	srv.sampler.tick(time.Now())

	var body map[string]any
	fetchJSON(t, ts.URL+"/metrics", http.StatusOK, &body)
	resp, err := http.Get(ts.URL + "/metrics.prom")
	if err != nil {
		t.Fatal(err)
	}
	prom := map[string]float64{}
	for _, s := range parseProm(t, readAll(t, resp)) {
		if len(s.labels) == 0 {
			prom[s.name] = s.value
		}
	}
	series := map[string]bool{}
	for _, name := range srv.sampler.ts.SeriesNames() {
		series[name] = true
	}

	seen := map[string]bool{}
	for _, d := range scalarMetrics {
		for _, name := range []string{"json:" + d.json, "prom:" + d.prom, "series:" + d.series} {
			if seen[name] {
				t.Errorf("%s is declared twice", name)
			}
			seen[name] = true
		}
		if _, ok := jsonValue(body, d.json); !ok {
			t.Errorf("/metrics has no %q", d.json)
		}
		if _, ok := prom[d.prom]; !ok {
			t.Errorf("/metrics.prom has no family %s", d.prom)
		}
		if !series[d.series] {
			t.Errorf("history ring has no series %s", d.series)
		}
	}

	// /metrics and /metrics.prom are not instrumented, so the counters
	// have not moved since the tick: all three renderings must agree.
	_, ringReqs, _ := srv.sampler.ts.Latest("requests_total")
	jsonReqs, _ := jsonValue(body, "requests_total")
	if jsonReqs < 4 || jsonReqs != prom["kspr_requests_total"] || jsonReqs != ringReqs {
		t.Fatalf("requests_total: json %v, prom %v, ring %v", jsonReqs, prom["kspr_requests_total"], ringReqs)
	}
	// The global latency view is read from the summed endpoint
	// histograms, so it is a bucket bound and matches the ring's.
	_, ringP99, _ := srv.sampler.ts.Latest("latency_p99_ms")
	jsonP99, _ := jsonValue(body, "latency.p99_ms")
	if jsonP99 <= 0 || jsonP99 != ringP99 {
		t.Fatalf("latency p99: json %v, ring %v", jsonP99, ringP99)
	}
	if !slices.Contains(obs.DefaultLatencyBuckets, jsonP99/1000) {
		t.Fatalf("latency p99 %v ms is not a bucket bound", jsonP99)
	}
	if qps, _ := jsonValue(body, "qps_1m"); qps <= 0 {
		t.Fatalf("qps_1m = %v after traffic, want > 0", qps)
	}
}

// TestQPS1mNeedsHistory pins the documented edge: qps_1m is read from the
// history ring, so it reads 0 while history is disabled.
func TestQPS1mNeedsHistory(t *testing.T) {
	srv, ts := newTestServer(t, Config{HistoryInterval: -1})
	srv.metrics.Observe("kspr", time.Millisecond, 200)
	var body map[string]any
	fetchJSON(t, ts.URL+"/metrics", http.StatusOK, &body)
	if qps, ok := jsonValue(body, "qps_1m"); !ok || qps != 0 {
		t.Fatalf("qps_1m = %v (present %v), want 0 with history disabled", qps, ok)
	}
	if reqs, _ := jsonValue(body, "requests_total"); reqs != 1 {
		t.Fatalf("requests_total = %v, want 1", reqs)
	}
}
