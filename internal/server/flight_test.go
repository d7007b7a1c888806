package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

// getFlight fetches and decodes /v1/debug:flight with the given raw query.
func getFlight(t *testing.T, ts *httptest.Server, query string) flightResponse {
	t.Helper()
	url := ts.URL + "/v1/debug:flight"
	if query != "" {
		url += "?" + query
	}
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("get %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get %s: status %d", url, resp.StatusCode)
	}
	var fr flightResponse
	if err := json.NewDecoder(resp.Body).Decode(&fr); err != nil {
		t.Fatalf("decode flight response: %v", err)
	}
	return fr
}

func TestDebugFlightCapture(t *testing.T) {
	_, ts := newTestServer(t, Config{FlightSampleEvery: 1})
	info := loadGenerated(t, ts, "ind", 200, 3, 7)

	if resp, body := postJSON(t, ts.URL+"/v1/kspr", queryRequest{Dataset: "ind", Focal: 5, K: 3}); resp.StatusCode != http.StatusOK {
		t.Fatalf("query: status %d: %s", resp.StatusCode, body)
	}
	if resp, _ := postJSON(t, ts.URL+"/v1/kspr", queryRequest{Dataset: "missing", Focal: 0, K: 1}); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing dataset: status %d, want 404", resp.StatusCode)
	}

	fr := getFlight(t, ts, "")
	if len(fr.Events) < 3 {
		t.Fatalf("captured %d events, want >= 3 (load, query, error)", len(fr.Events))
	}
	if fr.Stats.Captured == 0 {
		t.Fatal("stats report zero captures")
	}
	if fr.JournalLastSeq == 0 {
		t.Fatal("journal high-water mark is 0 after a dataset load")
	}
	var good, bad *obs.WideEvent
	for i := range fr.Events {
		ev := &fr.Events[i]
		if ev.Endpoint != "kspr" {
			continue
		}
		if ev.Status == http.StatusOK {
			good = ev
		} else {
			bad = ev
		}
	}
	if good == nil || bad == nil {
		t.Fatalf("missing kspr events in %+v", fr.Events)
	}
	if good.Dataset != "ind" || good.Generation != info.Generation {
		t.Fatalf("good event dataset/generation = %q/%d, want ind/%d", good.Dataset, good.Generation, info.Generation)
	}
	if good.RequestID == "" || good.Kind != obs.CaptureSampled || good.LatencyNs <= 0 {
		t.Fatalf("good event = %+v", good)
	}
	if len(good.Phases) == 0 {
		t.Fatal("good event carries no engine phase breakdown")
	}
	if bad.Kind != obs.CaptureError || bad.Status != http.StatusNotFound {
		t.Fatalf("bad event = %+v", bad)
	}
	if !strings.Contains(bad.Error, "not found") {
		t.Fatalf("bad event error text = %q, want the handler's 404 message", bad.Error)
	}

	// Filters narrow the read; limit keeps the most recent matches.
	for _, ev := range getFlight(t, ts, "errors_only=true").Events {
		if ev.Status < 400 {
			t.Fatalf("errors_only returned status %d", ev.Status)
		}
	}
	if got := getFlight(t, ts, "endpoint=kspr&errors_only=true").Events; len(got) != 1 {
		t.Fatalf("endpoint+errors filter kept %d events, want 1", len(got))
	}
	if got := getFlight(t, ts, "limit=1").Events; len(got) != 1 {
		t.Fatalf("limit=1 kept %d events", len(got))
	}
	if got := getFlight(t, ts, "dataset=ind").Events; len(got) == 0 {
		t.Fatal("dataset filter dropped everything")
	}
	for _, q := range []string{"min_latency_ms=abc", "min_latency_ms=-1", "errors_only=maybe", "limit=-2"} {
		resp, err := http.Get(ts.URL + "/v1/debug:flight?" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("query %q: status %d, want 400", q, resp.StatusCode)
		}
	}
}

func TestDebugFlightDisabled(t *testing.T) {
	_, ts := newTestServer(t, Config{FlightCapacity: -1})
	resp, err := http.Get(ts.URL + "/v1/debug:flight")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("disabled recorder: status %d, want 404", resp.StatusCode)
	}
}

// getEvents fetches and decodes /v1/debug:events with the given raw query.
func getEvents(t *testing.T, ts *httptest.Server, query string) eventsResponse {
	t.Helper()
	url := ts.URL + "/v1/debug:events"
	if query != "" {
		url += "?" + query
	}
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("get %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get %s: status %d", url, resp.StatusCode)
	}
	var er eventsResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatalf("decode events response: %v", err)
	}
	return er
}

func TestDebugEventsCursor(t *testing.T) {
	_, ts := newTestServer(t, Config{FlightSampleEvery: 1})
	loadGenerated(t, ts, "ind", 100, 3, 7)
	if resp, body := postJSON(t, ts.URL+"/v1/datasets/ind:mutate",
		map[string]any{"op": "insert", "values": []float64{0.5, 0.5, 0.5}}); resp.StatusCode != http.StatusOK {
		t.Fatalf("mutate: status %d: %s", resp.StatusCode, body)
	}

	er := getEvents(t, ts, "")
	types := map[string]int{}
	for i, ev := range er.Events {
		types[ev.Type]++
		if i > 0 && ev.Seq <= er.Events[i-1].Seq {
			t.Fatalf("journal seqs not ascending: %d then %d", er.Events[i-1].Seq, ev.Seq)
		}
	}
	for _, want := range []string{obs.EventDatasetLoad, obs.EventMutationBatch, obs.EventCacheMigration} {
		if types[want] == 0 {
			t.Fatalf("journal missing %q event; got %v", want, types)
		}
	}
	if er.LastSeq != er.Events[len(er.Events)-1].Seq {
		t.Fatalf("last_seq %d != final event seq %d", er.LastSeq, er.Events[len(er.Events)-1].Seq)
	}

	// The since cursor resumes past what was already read.
	first := er.Events[0].Seq
	rest := getEvents(t, ts, "since="+jsonNumber(first))
	if len(rest.Events) != len(er.Events)-1 || rest.Events[0].Seq != first+1 {
		t.Fatalf("since=%d returned %d events starting at %d", first, len(rest.Events), rest.Events[0].Seq)
	}
	if got := getEvents(t, ts, "since="+jsonNumber(er.LastSeq)); len(got.Events) != 0 {
		t.Fatalf("since=last returned %d events, want 0", len(got.Events))
	}
	if got := getEvents(t, ts, "limit=1"); len(got.Events) != 1 {
		t.Fatalf("limit=1 returned %d events", len(got.Events))
	}
	resp, err := http.Get(ts.URL + "/v1/debug:events?since=nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid since: status %d, want 400", resp.StatusCode)
	}

	// A flight-captured request joins the journal: the wide event's
	// generation matches the mutation batch's recorded generation.
	if resp, body := postJSON(t, ts.URL+"/v1/kspr", queryRequest{Dataset: "ind", Focal: 5, K: 3}); resp.StatusCode != http.StatusOK {
		t.Fatalf("query after mutate: status %d: %s", resp.StatusCode, body)
	}
	var mutGen uint64
	for _, ev := range er.Events {
		if ev.Type == obs.EventMutationBatch {
			mutGen = ev.Generation
		}
	}
	found := false
	for _, ev := range getFlight(t, ts, "endpoint=kspr").Events {
		if ev.Status == http.StatusOK && ev.Generation == mutGen {
			found = true
		}
	}
	if !found {
		t.Fatalf("no captured kspr request at the mutation batch's generation %d", mutGen)
	}
}

func jsonNumber(v uint64) string {
	raw, _ := json.Marshal(v)
	return string(raw)
}

func TestWriteBlackBox(t *testing.T) {
	dir := t.TempDir()
	srv, ts := newTestServer(t, Config{FlightSampleEvery: 1, BlackBoxDir: dir})
	loadGenerated(t, ts, "ind", 100, 3, 7)
	if resp, _ := postJSON(t, ts.URL+"/v1/kspr", queryRequest{Dataset: "ind", Focal: 5, K: 3}); resp.StatusCode != http.StatusOK {
		t.Fatalf("query: status %d", resp.StatusCode)
	}

	path, err := srv.WriteBlackBox("test dump")
	if err != nil {
		t.Fatalf("WriteBlackBox: %v", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var bundle blackBoxBundle
	if err := json.Unmarshal(raw, &bundle); err != nil {
		t.Fatalf("bundle is not valid JSON: %v", err)
	}
	if bundle.Reason != "test dump" || bundle.PID != os.Getpid() || bundle.Time.IsZero() {
		t.Fatalf("bundle header = %+v", bundle)
	}
	if len(bundle.Flight) == 0 {
		t.Fatal("bundle carries no flight events")
	}
	if len(bundle.Journal) == 0 {
		t.Fatal("bundle carries no journal events")
	}
	last := bundle.Journal[len(bundle.Journal)-1]
	if last.Type != obs.EventBlackBox {
		t.Fatalf("final journal event type %q, want %q", last.Type, obs.EventBlackBox)
	}
	var metrics struct {
		Metrics struct {
			Requests   uint64            `json:"requests_total"`
			ByEndpoint map[string]uint64 `json:"requests_by_endpoint"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(raw, &metrics); err != nil {
		t.Fatal(err)
	}
	if metrics.Metrics.Requests == 0 || len(metrics.Metrics.ByEndpoint) == 0 {
		t.Fatal("bundle carries no metrics snapshot")
	}
	if entries, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(entries) != 0 {
		t.Fatalf("temp files left behind: %v", entries)
	}

	srv2 := NewServer(Config{})
	defer srv2.Close()
	if _, err := srv2.WriteBlackBox("x"); err == nil {
		t.Fatal("WriteBlackBox without a BlackBoxDir must error")
	}
}

func TestPanicWritesBlackBox(t *testing.T) {
	dir := t.TempDir()
	srv := NewServer(Config{BlackBoxDir: dir})
	defer srv.Close()
	h := srv.instrument("boom", func(w http.ResponseWriter, r *http.Request) {
		panic("kaboom")
	})

	func() {
		defer func() {
			if p := recover(); p == nil {
				t.Fatal("instrument swallowed the panic; net/http semantics need the re-panic")
			}
		}()
		h(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/boom", nil))
	}()

	bundles, err := filepath.Glob(filepath.Join(dir, "blackbox-*.json"))
	if err != nil || len(bundles) != 1 {
		t.Fatalf("found %d bundles (err %v), want 1", len(bundles), err)
	}
	raw, err := os.ReadFile(bundles[0])
	if err != nil {
		t.Fatal(err)
	}
	var bundle blackBoxBundle
	if err := json.Unmarshal(raw, &bundle); err != nil {
		t.Fatalf("bundle is not valid JSON: %v", err)
	}
	if !strings.Contains(bundle.Reason, "panic in boom: kaboom") {
		t.Fatalf("bundle reason = %q", bundle.Reason)
	}
	found := false
	for _, ev := range bundle.Flight {
		if ev.Endpoint == "boom" && ev.Kind == obs.CaptureError && strings.Contains(ev.Error, "kaboom") {
			found = true
		}
	}
	if !found {
		t.Fatalf("panicking request missing from the flight dump: %+v", bundle.Flight)
	}
}

func TestIndexWarmSurfaced(t *testing.T) {
	srv, ts := newTestServer(t, Config{StoreDir: t.TempDir()})
	if _, err := srv.RecoverDatasets(); err != nil {
		t.Fatal(err)
	}
	info := loadGenerated(t, ts, "ind", 100, 3, 7)
	// A freshly loaded dataset builds its index cold; warm restarts are
	// exercised end-to-end by scripts/crashsmoke.
	if info.IndexWarm {
		t.Fatal("fresh load reported a warm index")
	}

	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ready struct {
		Status    string          `json:"status"`
		IndexWarm map[string]bool `json:"index_warm"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ready); err != nil {
		t.Fatalf("decode readyz: %v", err)
	}
	if ready.Status != "ready" {
		t.Fatalf("readyz status %q", ready.Status)
	}
	if warm, ok := ready.IndexWarm["ind"]; !ok || warm {
		t.Fatalf("readyz index_warm = %v, want {\"ind\": false}", ready.IndexWarm)
	}

	promResp, err := http.Get(ts.URL + "/metrics.prom")
	if err != nil {
		t.Fatal(err)
	}
	defer promResp.Body.Close()
	prom, err := io.ReadAll(promResp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(prom), `ksprd_index_warm{dataset="ind"} 0`) {
		t.Fatal("/metrics.prom missing the ksprd_index_warm gauge")
	}
}
