package main

// The harness side of the server's SLO engine (-check-health): after the
// timed phase (and the flight check, when armed), assert the health
// verdict end to end — a clean run reports healthy; a deliberate error
// storm flips the verdict to breaching, emits an slo_burn journal event,
// and that event joins against the flight recorder's error evidence by
// dataset generation. Runs strictly after the verdict and the flight
// phase, so BENCH numbers and embedded evidence never see the storm.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// healthCheckWire is the subset of /v1/debug:health the harness reads.
type healthCheckWire struct {
	Healthy    bool    `json:"healthy"`
	Score      float64 `json:"score"`
	Status     string  `json:"status"`
	Generation uint64  `json:"generation"`
	SLOs       []struct {
		Name      string `json:"name"`
		Breaching bool   `json:"breaching"`
	} `json:"slos"`
	History struct {
		IntervalMs float64 `json:"interval_ms"`
		Ticks      uint64  `json:"ticks"`
	} `json:"history"`
}

// journalWire is one /v1/debug:events entry the harness reads.
type journalWire struct {
	Type       string         `json:"type"`
	Generation uint64         `json:"generation"`
	Detail     map[string]any `json:"detail"`
}

// fetchHealth reads /v1/debug:health once.
func (r *runner) fetchHealth() (*healthCheckWire, error) {
	raw, err := r.getDebug("/v1/debug:health")
	if err != nil {
		return nil, err
	}
	var h healthCheckWire
	if err := json.Unmarshal(raw, &h); err != nil {
		return nil, fmt.Errorf("parsing /v1/debug:health: %w", err)
	}
	return &h, nil
}

// getDebug GETs a read endpoint (/metrics, the /v1/debug:* reads) and
// returns its body, failing on any status but 200.
func (r *runner) getDebug(path string) ([]byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("fetching %s: %w", path, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s returned %d: %s", path, resp.StatusCode, raw)
	}
	return raw, nil
}

// healthPhase asserts the SLO engine's verdict pipeline end to end.
//
// Step 1: the just-finished clean run must report healthy (the timed
// phase's own error rate already passed the -max-error-rate verdict, so
// an unhealthy verdict here would mean the burn math is wrong).
// Step 2: an error storm — bad-focal queries against a real dataset, so
// each error resolves a dataset generation into its wide event — sized to
// far exceed the availability budget, then a poll across sampler ticks
// until the verdict flips to breaching with the availability SLO guilty.
// Step 3: the slo_burn journal event must exist and join against the
// flight recorder's error evidence by generation.
func (r *runner) healthPhase() error {
	h, err := r.fetchHealth()
	if err != nil {
		return fmt.Errorf("health check: %w", err)
	}
	if !h.Healthy {
		return fmt.Errorf("health check: clean run reports %q (score %.3f), want healthy", h.Status, h.Score)
	}
	tick := time.Duration(h.History.IntervalMs) * time.Millisecond
	if tick <= 0 {
		tick = time.Second
	}
	fmt.Printf("ksprload: health check — clean verdict healthy (score %.3f), driving error storm\n", h.Score)

	// The storm must dominate the burn windows' request deltas: at least
	// 100 errors and ~10% of the timed phase's request count, all 4xx on a
	// real dataset (an out-of-range focal), never 429s (those are excluded
	// from the availability burn by design).
	storm := int(r.stats.totalRequests() / 10)
	if storm < 100 {
		storm = 100
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	ds := r.ds[0].name
	for i := 0; i < storm; i++ {
		resp, _, err := r.post(ctx, "/v1/kspr", map[string]any{"dataset": ds, "focal": -1, "k": 1})
		if err != nil {
			return fmt.Errorf("health check: storm request %d: %w", i, err)
		}
		if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusTooManyRequests {
			return fmt.Errorf("health check: storm request %d got status %d, want a plain 4xx", i, resp.StatusCode)
		}
	}

	// The verdict flips once a sampler tick sees the storm on both windows
	// of a burn pair; with the whole run inside the short window the fast
	// pair trips on the next tick. Poll a little past that.
	deadline := time.Now().Add(10*tick + 5*time.Second)
	for {
		if h, err = r.fetchHealth(); err != nil {
			return fmt.Errorf("health check: %w", err)
		}
		if !h.Healthy {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("health check: verdict still healthy %s after a %d-error storm", 10*tick+5*time.Second, storm)
		}
		time.Sleep(tick / 2)
	}
	guilty := false
	for _, slo := range h.SLOs {
		if slo.Name == "availability" && slo.Breaching {
			guilty = true
		}
	}
	if !guilty {
		return fmt.Errorf("health check: verdict is %q but the availability SLO is not breaching: %+v", h.Status, h.SLOs)
	}

	// The breach must be journaled and joinable against flight evidence.
	raw, err := r.getDebug("/v1/debug:events")
	if err != nil {
		return fmt.Errorf("health check: %w", err)
	}
	var events struct {
		Events []journalWire `json:"events"`
	}
	if err := json.Unmarshal(raw, &events); err != nil {
		return fmt.Errorf("health check: parsing /v1/debug:events: %w", err)
	}
	var burn *journalWire
	for i := range events.Events {
		ev := &events.Events[i]
		if ev.Type == "slo_burn" && ev.Detail["objective"] == "availability" {
			burn = ev
		}
	}
	if burn == nil {
		return fmt.Errorf("health check: no availability slo_burn event in /v1/debug:events (%d events)", len(events.Events))
	}
	if burn.Generation == 0 {
		return fmt.Errorf("health check: slo_burn event carries generation 0, not joinable against flight evidence")
	}
	flightRaw, err := r.fetchFlight("errors_only=true")
	if err != nil {
		return fmt.Errorf("health check: %w", err)
	}
	var env struct {
		Events []struct {
			Dataset    string `json:"dataset"`
			Generation uint64 `json:"generation"`
		} `json:"events"`
	}
	if err := json.Unmarshal(flightRaw, &env); err != nil {
		return fmt.Errorf("health check: parsing /v1/debug:flight: %w", err)
	}
	joined := false
	for _, ev := range env.Events {
		if ev.Dataset == ds && ev.Generation > 0 && ev.Generation <= burn.Generation {
			joined = true
			break
		}
	}
	if !joined {
		return fmt.Errorf("health check: no flight error event on %q joins slo_burn generation %d", ds, burn.Generation)
	}
	fmt.Printf("ksprload: health check ok — storm of %d errors flipped the verdict to %q, slo_burn generation %d joins flight evidence\n",
		storm, h.Status, burn.Generation)
	return nil
}
