package server

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
)

// These tests pin the 429 backpressure contract the load harness
// (cmd/ksprload) verifies in production traffic: a shed request carries a
// sane Retry-After, a pure JSON error body, and — critically — executes
// nothing, even when part of the batch could have been answered from
// cache before the budget check.

// exhaustBudget claims every extra CPU slot, as long-running parallel
// queries would, and registers the release.
func exhaustBudget(t *testing.T, srv *Server, slots int) {
	t.Helper()
	if got := srv.cpu.Acquire(slots); got != slots {
		t.Fatalf("claimed %d slots, want %d", got, slots)
	}
	t.Cleanup(func() { srv.cpu.Release(slots) })
}

// TestBatch429RetryAfterContract: the Retry-After header on a shed batch
// must parse as an integer number of seconds in a range a client can
// honestly sleep on, and the body must be a single JSON error object —
// for both the NDJSON and JSON-envelope wire forms.
func TestBatch429RetryAfterContract(t *testing.T) {
	srv, ts := newTestServer(t, Config{CPUSlots: 2, MaxParallelism: 8})
	loadGenerated(t, ts, "ind", 100, 3, 3)
	exhaustBudget(t, srv, 2)

	ndjson := postNDJSON(t, ts.URL+"/v1/kspr:batch",
		`{"dataset":"ind","k":4,"parallelism":4}`+"\n"+`{"focal":1}`+"\n")
	defer ndjson.Body.Close()
	envelope, envBody := postJSON(t, ts.URL+"/v1/kspr:batch", batchRequest{
		queryRequest: queryRequest{Dataset: "ind", K: 4, Parallelism: 4},
		Queries:      []batchQuery{{Focal: 1}},
	})

	for _, tc := range []struct {
		form string
		resp *http.Response
		body []byte
	}{
		{"ndjson", ndjson, nil},
		{"envelope", envelope, envBody},
	} {
		if tc.resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("%s: status %d, want 429", tc.form, tc.resp.StatusCode)
		}
		ra := tc.resp.Header.Get("Retry-After")
		secs, err := strconv.Atoi(ra)
		if err != nil {
			t.Fatalf("%s: Retry-After %q is not an integer: %v", tc.form, ra, err)
		}
		if secs < 1 || secs > 60 {
			t.Fatalf("%s: Retry-After %d outside the sane [1,60] range", tc.form, secs)
		}
		body := tc.body
		if body == nil {
			var err error
			body, err = io.ReadAll(tc.resp.Body)
			if err != nil {
				t.Fatalf("%s: read body: %v", tc.form, err)
			}
		}
		var errObj struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &errObj); err != nil || errObj.Error == "" {
			t.Fatalf("%s: 429 body is not a single JSON error object: %q (%v)", tc.form, body, err)
		}
		if strings.Contains(string(body), `"index"`) {
			t.Fatalf("%s: 429 body leaks batch stream lines: %q", tc.form, body)
		}
	}
}

// TestBatch429NeverPartiallyExecutes: a batch whose first items are cache
// hits still sheds atomically — the cached results must not be streamed
// before the budget check fails, and the response must be the error
// alone. (The cache probe happens before the budget acquisition, so this
// is the path where a partial stream would leak if the ordering ever
// regressed.)
func TestBatch429NeverPartiallyExecutes(t *testing.T) {
	srv, ts := newTestServer(t, Config{CPUSlots: 2, MaxParallelism: 8})
	loadGenerated(t, ts, "ind", 100, 3, 3)

	// Prime the cache for focal 1 with a serial batch.
	warm := readBatchLines(t, postNDJSON(t, ts.URL+"/v1/kspr:batch",
		`{"dataset":"ind","k":4}`+"\n"+`{"focal":1}`+"\n"))
	if warm[0].Error != "" {
		t.Fatalf("warm-up batch failed: %s", warm[0].Error)
	}

	exhaustBudget(t, srv, 2)

	// Focal 1 would settle from cache instantly; focal 2 needs compute.
	resp := postNDJSON(t, ts.URL+"/v1/kspr:batch",
		`{"dataset":"ind","k":4,"parallelism":4}`+"\n"+`{"focal":1}`+"\n"+`{"focal":2}`+"\n")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); strings.Contains(ct, "ndjson") {
		t.Fatalf("429 response advertises a stream Content-Type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	// Exactly one JSON value, an error object — no batch line snuck out
	// ahead of the shed, cached or otherwise.
	dec := json.NewDecoder(strings.NewReader(string(body)))
	var errObj struct {
		Error  string          `json:"error"`
		Index  *int            `json:"index"`
		Result json.RawMessage `json:"result"`
	}
	if err := dec.Decode(&errObj); err != nil {
		t.Fatalf("429 body is not JSON: %q (%v)", body, err)
	}
	if errObj.Error == "" || errObj.Index != nil || errObj.Result != nil {
		t.Fatalf("429 body is not a pure error object: %q", body)
	}
	if dec.More() {
		t.Fatalf("429 body carries more than one JSON value: %q", body)
	}
}

// TestBatchZeroSlotBudgetDegradesWithout429: a serial-only server (zero
// extra CPU slots) can never satisfy a parallelism ask, so shedding would
// have the client retry forever — the contract is to degrade to serial
// execution and answer. This is the flip side the load harness checks:
// 429 only ever appears when the budget genuinely has slots.
func TestBatchZeroSlotBudgetDegradesWithout429(t *testing.T) {
	_, ts := newTestServer(t, Config{CPUSlots: 0, MaxParallelism: 8})
	loadGenerated(t, ts, "ind", 100, 3, 3)

	resp := postNDJSON(t, ts.URL+"/v1/kspr:batch",
		`{"dataset":"ind","k":4,"parallelism":4}`+"\n"+`{"focal":1}`+"\n"+`{"focal":2}`+"\n")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 (zero-slot budgets degrade, never shed)", resp.StatusCode)
	}
	lines := readBatchLines(t, resp)
	for i := 0; i < 2; i++ {
		if lines[i].Error != "" {
			t.Fatalf("item %d failed under serial degradation: %s", i, lines[i].Error)
		}
	}
}

// TestBatch429ReleasesNothing: a shed request must not leak budget —
// after a 429 the full budget is still available to the next caller.
func TestBatch429ReleasesNothing(t *testing.T) {
	srv, ts := newTestServer(t, Config{CPUSlots: 2, MaxParallelism: 8})
	loadGenerated(t, ts, "ind", 100, 3, 3)

	if got := srv.cpu.Acquire(2); got != 2 {
		t.Fatalf("claimed %d slots, want 2", got)
	}
	resp := postNDJSON(t, ts.URL+"/v1/kspr:batch",
		`{"dataset":"ind","k":4,"parallelism":4}`+"\n"+`{"focal":1}`+"\n")
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	srv.cpu.Release(2)
	// The whole budget must be intact: a fresh ask for every slot succeeds.
	if got := srv.cpu.Acquire(2); got != 2 {
		t.Fatalf("budget corrupted after 429: acquired %d of 2 slots", got)
	}
	srv.cpu.Release(2)
}
