package server

// This file is the flight-recorder surface: the two debug read endpoints
// (GET /v1/debug:flight, GET /v1/debug:events) and the crash black box —
// one JSON bundle of the wide-event ring, the lifecycle journal, and a
// metrics snapshot, written on panic (instrument's recover) or SIGQUIT
// (cmd/ksprd's signal handler) before the process dies.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/obs"
)

// Flight exposes the server's flight recorder (nil when disabled via
// Config.FlightCapacity < 0).
func (s *Server) Flight() *obs.FlightRecorder { return s.flight }

// Journal exposes the server's lifecycle event journal.
func (s *Server) Journal() *obs.Journal { return s.journal }

// flightRequest is the query string of GET /v1/debug:flight.
type flightRequest struct {
	Endpoint     string  `json:"endpoint"`
	Dataset      string  `json:"dataset"`
	MinLatencyMs float64 `json:"min_latency_ms"`
	ErrorsOnly   bool    `json:"errors_only"`
	Limit        int     `json:"limit"`
}

// flightResponse is the GET /v1/debug:flight payload.
type flightResponse struct {
	Events []obs.WideEvent `json:"events"`
	Stats  obs.FlightStats `json:"stats"`
	// JournalLastSeq is the journal's current high-water mark, so callers
	// can follow a flight read with a /v1/debug:events join immediately.
	JournalLastSeq uint64 `json:"journal_last_seq"`
}

// handleDebugFlight serves the retained wide events, oldest first,
// filterable by endpoint, dataset, min_latency_ms, errors_only, and limit
// (limit keeps the most recent matches).
func (s *Server) handleDebugFlight(w http.ResponseWriter, r *http.Request) {
	if s.flight == nil {
		writeError(w, http.StatusNotFound, "flight recorder disabled (FlightCapacity < 0)")
		return
	}
	var req flightRequest
	if !decodeQuery(w, r, &req) {
		return
	}
	if req.MinLatencyMs < 0 || req.Limit < 0 {
		writeError(w, http.StatusBadRequest, "min_latency_ms and limit must be >= 0")
		return
	}
	filter := obs.FlightFilter{
		Endpoint:   req.Endpoint,
		Dataset:    req.Dataset,
		MinLatency: time.Duration(req.MinLatencyMs * float64(time.Millisecond)),
		ErrorsOnly: req.ErrorsOnly,
		Limit:      req.Limit,
	}
	events := s.flight.Events(filter)
	if events == nil {
		events = []obs.WideEvent{} // an empty ring is [], not null
	}
	writeJSON(w, http.StatusOK, flightResponse{
		Events:         events,
		Stats:          s.flight.Stats(),
		JournalLastSeq: s.journal.LastSeq(),
	})
}

// eventsRequest is the query string of GET /v1/debug:events.
type eventsRequest struct {
	Since uint64 `json:"since"`
	Limit int    `json:"limit"`
}

// eventsResponse is the GET /v1/debug:events payload.
type eventsResponse struct {
	Events []obs.JournalEvent `json:"events"`
	// LastSeq is the journal's high-water mark — pass it back as ?since=
	// to resume the cursor.
	LastSeq uint64 `json:"last_seq"`
}

// handleDebugEvents serves the lifecycle journal with a since-sequence
// cursor: ?since=N returns events with seq > N (oldest retained first),
// ?limit=M caps the page.
func (s *Server) handleDebugEvents(w http.ResponseWriter, r *http.Request) {
	var req eventsRequest
	if !decodeQuery(w, r, &req) {
		return
	}
	if req.Limit < 0 {
		writeError(w, http.StatusBadRequest, "limit must be >= 0, got %d", req.Limit)
		return
	}
	events := s.journal.Since(req.Since, req.Limit)
	if events == nil {
		events = []obs.JournalEvent{}
	}
	writeJSON(w, http.StatusOK, eventsResponse{Events: events, LastSeq: s.journal.LastSeq()})
}

// blackBoxBundle is the crash dump written to Config.BlackBoxDir: the
// whole flight ring, the whole journal, and a metrics snapshot — enough to
// reconstruct what the server was doing when it died.
type blackBoxBundle struct {
	Time        time.Time          `json:"time"`
	Reason      string             `json:"reason"`
	PID         int                `json:"pid"`
	Build       obs.BuildInfo      `json:"build"`
	Flight      []obs.WideEvent    `json:"flight"`
	FlightStats obs.FlightStats    `json:"flight_stats"`
	Journal     []obs.JournalEvent `json:"journal"`
	Metrics     MetricsSnapshot    `json:"metrics"`
}

// WriteBlackBox dumps the black-box bundle to Config.BlackBoxDir as
// blackbox-<pid>-<unixnano>.json (tmp + rename, so a half-written bundle
// is never left under the final name) and returns the bundle path. It
// errors when no BlackBoxDir is configured.
func (s *Server) WriteBlackBox(reason string) (string, error) {
	dir := s.cfg.BlackBoxDir
	if dir == "" {
		return "", fmt.Errorf("server: black box disabled (no BlackBoxDir)")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("server: black box dir: %w", err)
	}
	s.journal.Append(obs.JournalEvent{Type: obs.EventBlackBox, Detail: map[string]any{"reason": reason}})
	bundle := blackBoxBundle{
		Time:        time.Now(),
		Reason:      reason,
		PID:         os.Getpid(),
		Build:       obs.ReadBuildInfo(),
		Flight:      s.flight.Events(obs.FlightFilter{}),
		FlightStats: s.flight.Stats(),
		Journal:     s.journal.Snapshot(),
		Metrics:     s.metricsView(),
	}
	if bundle.Flight == nil {
		bundle.Flight = []obs.WideEvent{}
	}
	raw, err := json.MarshalIndent(bundle, "", "  ")
	if err != nil {
		return "", fmt.Errorf("server: black box encode: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("blackbox-%d-%d.json", os.Getpid(), time.Now().UnixNano()))
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, raw, 0o644); err != nil {
		return "", fmt.Errorf("server: black box write: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return "", fmt.Errorf("server: black box rename: %w", err)
	}
	return path, nil
}
