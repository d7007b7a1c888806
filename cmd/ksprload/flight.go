package main

// The harness side of the server's flight recorder: fetching wide-event
// evidence from the stack under test when a run fails its verdict, and the
// post-measurement flight check (-inject-errors / -check-flight) that
// proves the recorder captured every injected error plus at least one
// sampled normal request. Both run AFTER the timed phase, so the
// BENCH_<name>.json numbers are never affected.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"
)

// flightWire is the subset of one /v1/debug:flight wide event the harness
// reads.
type flightWire struct {
	RequestID string `json:"request_id"`
	Endpoint  string `json:"endpoint"`
	Status    int    `json:"status"`
	Kind      string `json:"kind"`
}

// flightEnvelope is the /v1/debug:flight response envelope.
type flightEnvelope struct {
	Events []flightWire `json:"events"`
}

// fetchFlight reads /v1/debug:flight (with an optional raw query string)
// and returns the raw JSON body.
func (r *runner) fetchFlight(query string) ([]byte, error) {
	return r.getDebug("/v1/debug:flight?" + query)
}

// flightEvidence fetches the offending wide events (errors plus the slow
// tail) for a failed run's report; errors are swallowed into a nil return
// because evidence is best-effort — the verdict already failed.
func (r *runner) flightEvidence() json.RawMessage {
	raw, err := r.fetchFlight("errors_only=true&limit=20")
	if err != nil {
		fmt.Printf("ksprload: flight evidence unavailable: %v\n", err)
		return nil
	}
	return raw
}

// flightPhase injects cfg.injectErrors known-bad requests (a query against
// a dataset that does not exist, each tracked by its X-Request-Id) and,
// with -check-flight, asserts the recorder kept every one of them AND at
// least one sampled normal request from the measurement phase.
func (r *runner) flightPhase() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	ids := make(map[string]bool, r.cfg.injectErrors)
	for i := 0; i < r.cfg.injectErrors; i++ {
		resp, _, err := r.post(ctx, "/v1/kspr",
			map[string]any{"dataset": "flight-check-missing", "focal": 0, "k": 1})
		if err != nil {
			return fmt.Errorf("flight check: injecting error %d: %w", i, err)
		}
		if resp.StatusCode != http.StatusNotFound {
			return fmt.Errorf("flight check: injected error %d got status %d, want 404", i, resp.StatusCode)
		}
		id := resp.Header.Get("X-Request-Id")
		if id == "" {
			return fmt.Errorf("flight check: injected error %d carried no X-Request-Id", i)
		}
		ids[id] = false
	}
	if !r.cfg.checkFlight {
		return nil
	}
	raw, err := r.fetchFlight("")
	if err != nil {
		return fmt.Errorf("flight check: %w", err)
	}
	var env flightEnvelope
	if err := json.Unmarshal(raw, &env); err != nil {
		return fmt.Errorf("flight check: parsing /v1/debug:flight: %w", err)
	}
	sampled := 0
	for _, ev := range env.Events {
		if ev.Kind == "sampled" {
			sampled++
		}
		if seen, ok := ids[ev.RequestID]; ok && !seen {
			if ev.Kind != "error" || ev.Status != http.StatusNotFound {
				return fmt.Errorf("flight check: injected request %s captured as kind=%q status=%d, want error/404",
					ev.RequestID, ev.Kind, ev.Status)
			}
			ids[ev.RequestID] = true
		}
	}
	missing := 0
	for _, seen := range ids {
		if !seen {
			missing++
		}
	}
	if missing > 0 {
		return fmt.Errorf("flight check: %d of %d injected errors missing from /v1/debug:flight", missing, len(ids))
	}
	if sampled == 0 {
		return fmt.Errorf("flight check: no sampled normal requests in /v1/debug:flight (%d events)", len(env.Events))
	}
	fmt.Printf("ksprload: flight check ok — %d injected errors captured, %d sampled normals retained\n",
		len(ids), sampled)
	return nil
}
