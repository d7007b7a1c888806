// The what-if endpoints: competitive impact attribution
// (GET /v1/impact:competitors), repricing search (POST /v1/whatif:price),
// and impact–price frontiers (POST /v1/whatif:frontier). All three call
// the library's what-if layer on a pool worker, bound the Monte-Carlo work
// per request, and cache responses under generation-prefixed keys, so a
// mutation batch implicitly orphans stale what-if answers (reprices of the
// focal can flip who dominates whom, so — unlike plain kSPR results — the
// mutation path never migrates these across generations).
package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"time"

	kspr "repro"
)

// ---- wire types ----------------------------------------------------------

type whatifStatsWire struct {
	Probes     int     `json:"probes"`
	Kept       int     `json:"kept"`
	Recomputed int     `json:"recomputed"`
	KeepRate   float64 `json:"keep_rate"`
	ProbeNs    int64   `json:"probe_ns"`
	ElapsedMs  float64 `json:"elapsed_ms"`
}

func toStatsWire(s kspr.WhatIfStats) whatifStatsWire {
	return whatifStatsWire{
		Probes:     s.Probes,
		Kept:       s.Kept,
		Recomputed: s.Recomputed,
		KeepRate:   s.KeepRate,
		ProbeNs:    s.ProbeNs,
		ElapsedMs:  float64(s.ElapsedNs) / float64(time.Millisecond),
	}
}

type competitorWire struct {
	ID            int     `json:"id"`
	StableID      int64   `json:"stable_id"`
	Label         string  `json:"label,omitempty"`
	MissShare     float64 `json:"miss_share"`
	PressureShare float64 `json:"pressure_share"`
}

type competitorsResponse struct {
	Dataset     string           `json:"dataset"`
	Generation  uint64           `json:"generation"`
	Focal       int              `json:"focal"`
	K           int              `json:"k"`
	Samples     int              `json:"samples"`
	Impact      float64          `json:"impact"`
	Miss        float64          `json:"miss"`
	Competitors []competitorWire `json:"competitors"`
	served
}

// competitorsRequest is the query string of GET /v1/impact:competitors.
type competitorsRequest struct {
	Dataset   string `json:"dataset"`
	Focal     *int   `json:"focal"` // required
	K         int    `json:"k"`
	Samples   int    `json:"samples"`
	Seed      int64  `json:"seed"`
	Algorithm string `json:"algorithm"`
	NoCache   bool   `json:"no_cache"`
}

type priceRequest struct {
	Dataset string  `json:"dataset"`
	Focal   int     `json:"focal"`
	K       int     `json:"k"`
	Attr    int     `json:"attr"`
	Target  float64 `json:"target"`
	// MaxDelta bounds the attribute increase (0 = automatic bracket
	// expansion); Eps is the bisection resolution (0 = 1e-6).
	MaxDelta     float64 `json:"max_delta,omitempty"`
	Eps          float64 `json:"eps,omitempty"`
	Samples      int     `json:"samples,omitempty"`
	Seed         int64   `json:"seed,omitempty"`
	VolumeMetric bool    `json:"volume_metric,omitempty"`
	Algorithm    string  `json:"algorithm,omitempty"`
	TimeoutMs    int     `json:"timeout_ms,omitempty"`
	NoCache      bool    `json:"no_cache,omitempty"`
}

type priceResponse struct {
	Dataset     string          `json:"dataset"`
	Generation  uint64          `json:"generation"`
	Focal       int             `json:"focal"`
	Attr        int             `json:"attr"`
	K           int             `json:"k"`
	Target      float64         `json:"target"`
	Delta       float64         `json:"delta"`
	Value       float64         `json:"value"`
	Impact      float64         `json:"impact"`
	Baseline    float64         `json:"baseline"`
	AlreadyMet  bool            `json:"already_met,omitempty"`
	LowerDelta  float64         `json:"lower_delta"`
	LowerImpact float64         `json:"lower_impact"`
	Stats       whatifStatsWire `json:"stats"`
	served
}

type frontierRequest struct {
	Dataset string  `json:"dataset"`
	Focal   int     `json:"focal"`
	K       int     `json:"k"`
	Attr    int     `json:"attr"`
	Min     float64 `json:"min,omitempty"`
	Max     float64 `json:"max,omitempty"`
	// Steps is the grid size (0 = 16); capped by the server's MaxBatch.
	Steps        int    `json:"steps,omitempty"`
	Samples      int    `json:"samples,omitempty"`
	Seed         int64  `json:"seed,omitempty"`
	VolumeMetric bool   `json:"volume_metric,omitempty"`
	Algorithm    string `json:"algorithm,omitempty"`
	TimeoutMs    int    `json:"timeout_ms,omitempty"`
	NoCache      bool   `json:"no_cache,omitempty"`
}

type frontierPointWire struct {
	Value   float64 `json:"value"`
	Delta   float64 `json:"delta"`
	Impact  float64 `json:"impact"`
	Regions int     `json:"regions"`
	Kept    bool    `json:"kept,omitempty"`
}

type frontierResponse struct {
	Dataset    string              `json:"dataset"`
	Generation uint64              `json:"generation"`
	Focal      int                 `json:"focal"`
	Attr       int                 `json:"attr"`
	K          int                 `json:"k"`
	Points     []frontierPointWire `json:"points"`
	Stats      whatifStatsWire     `json:"stats"`
	served
}

// ---- helpers -------------------------------------------------------------

// parseWhatIf validates what every what-if request shares: k, an exact
// algorithm (the what-if layer needs exact region sets), and the sample
// count, to which it applies the per-request Monte-Carlo bound with the
// library's what-if default, so cache keys and responses stay consistent
// with what the library would do on its own.
func parseWhatIf(k int, algorithm string, samples int) (kspr.Algorithm, int, error) {
	if k < 1 {
		return 0, 0, fmt.Errorf("k must be >= 1, got %d", k)
	}
	algo, approx, err := parseAlgorithm(algorithm)
	if err != nil {
		return 0, 0, err
	}
	if approx {
		return 0, 0, fmt.Errorf("what-if queries need an exact algorithm (cta, p-cta, lp-cta, k-skyband)")
	}
	if samples <= 0 {
		samples = kspr.DefaultWhatIfSamples
	}
	return algo, min(samples, maxImpactSamples), nil
}

// whatifOptions is the engine option list every what-if probe runs with:
// exact, serial, geometry-free, and traced.
func whatifOptions(ctx context.Context, algo kspr.Algorithm) []kspr.QueryOption {
	return []kspr.QueryOption{kspr.WithAlgorithm(algo), kspr.WithContext(ctx), kspr.WithParallelism(1),
		kspr.WithoutGeometry(), kspr.WithTrace(reqInfoFrom(ctx).Trace())}
}

// ---- endpoints -----------------------------------------------------------

// GET /v1/impact:competitors: per-competitor attribution of the focal
// option's missing preference space.
func (req *competitorsRequest) scope() (string, int) { return req.Dataset, 0 }

func (req *competitorsRequest) plan(_ context.Context, s *Server, snap *Snapshot) (job[competitorsResponse], error) {
	if req.Focal == nil {
		return job[competitorsResponse]{}, errors.New("focal is required")
	}
	focal := *req.Focal
	algo, samples, err := parseWhatIf(req.K, req.Algorithm, req.Samples)
	if err != nil {
		return job[competitorsResponse]{}, err
	}
	return job[competitorsResponse]{
		key: fmt.Sprintf("%s@%d|whatif.comp|f=%d|k=%d|a=%s|n=%d|seed=%d",
			snap.Name, snap.Generation, focal, req.K, algo, samples, req.Seed),
		noCache: req.NoCache,
		compute: func(ctx context.Context) (*entry[competitorsResponse], error) {
			attr, err := snap.DB.Competitors(focal, req.K, samples, req.Seed, whatifOptions(ctx, algo)...)
			if err != nil {
				return nil, err
			}
			s.metrics.AddWhatIf(1, 0)
			resp := &competitorsResponse{
				Dataset:     snap.Name,
				Generation:  snap.Generation,
				Focal:       attr.Focal,
				K:           attr.K,
				Samples:     attr.Samples,
				Impact:      attr.Impact,
				Miss:        attr.Miss,
				Competitors: make([]competitorWire, len(attr.Competitors)),
			}
			for i, c := range attr.Competitors {
				cw := competitorWire{
					ID:            c.ID,
					StableID:      c.StableID,
					MissShare:     c.MissShare,
					PressureShare: c.PressureShare,
				}
				if c.ID < len(snap.Dataset.Labels) {
					cw.Label = snap.Dataset.Labels[c.ID]
				}
				resp.Competitors[i] = cw
			}
			return &entry[competitorsResponse]{resp: resp}, nil
		},
	}, nil
}

// POST /v1/whatif:price: the minimal reprice of one attribute reaching a
// target impact.
func (req *priceRequest) scope() (string, int) { return req.Dataset, req.TimeoutMs }

func (req *priceRequest) plan(_ context.Context, s *Server, snap *Snapshot) (job[priceResponse], error) {
	algo, samples, err := parseWhatIf(req.K, req.Algorithm, req.Samples)
	if err != nil {
		return job[priceResponse]{}, err
	}
	spec := kspr.RepriceSpec{
		Attr:         req.Attr,
		Target:       req.Target,
		MaxDelta:     req.MaxDelta,
		Eps:          req.Eps,
		Samples:      samples,
		Seed:         req.Seed,
		VolumeMetric: req.VolumeMetric,
	}
	return job[priceResponse]{
		key: fmt.Sprintf("%s@%d|whatif.price|f=%d|k=%d|a=%s|attr=%d|t=%x|md=%x|e=%x|n=%d|seed=%d|vm=%t",
			snap.Name, snap.Generation, req.Focal, req.K, algo, req.Attr,
			math.Float64bits(req.Target), math.Float64bits(req.MaxDelta), math.Float64bits(req.Eps),
			samples, req.Seed, req.VolumeMetric),
		noCache: req.NoCache,
		compute: func(ctx context.Context) (*entry[priceResponse], error) {
			rp, err := snap.DB.PriceToTarget(req.Focal, req.K, spec, whatifOptions(ctx, algo)...)
			// An unreachable target is a well-formed request whose answer is
			// "no such price": 422, not 400. It is as deterministic as a
			// success (same generation, same sample set), so it is cached
			// too, and a repeated unreachable target does not re-burn the
			// full bisection on a pool worker.
			unreachable := errors.Is(err, kspr.ErrTargetUnreachable)
			if err != nil && !unreachable {
				return nil, err
			}
			if rp != nil {
				s.metrics.AddWhatIf(uint64(rp.Stats.Probes), uint64(rp.Stats.Kept))
			}
			if unreachable {
				return &entry[priceResponse]{status: http.StatusUnprocessableEntity, msg: err.Error()}, nil
			}
			resp := &priceResponse{
				Dataset:     snap.Name,
				Generation:  snap.Generation,
				Focal:       rp.Focal,
				Attr:        rp.Attr,
				K:           rp.K,
				Target:      rp.Target,
				Delta:       rp.Delta,
				Value:       rp.Value,
				Impact:      rp.Impact,
				Baseline:    rp.Baseline,
				AlreadyMet:  rp.AlreadyMet,
				LowerDelta:  rp.LowerDelta,
				LowerImpact: rp.LowerImpact,
				Stats:       toStatsWire(rp.Stats),
			}
			return &entry[priceResponse]{resp: resp, stats: resp.Stats}, nil
		},
	}, nil
}

// POST /v1/whatif:frontier: the impact-vs-price curve over an attribute
// grid.
func (req *frontierRequest) scope() (string, int) { return req.Dataset, req.TimeoutMs }

func (req *frontierRequest) plan(_ context.Context, s *Server, snap *Snapshot) (job[frontierResponse], error) {
	algo, samples, err := parseWhatIf(req.K, req.Algorithm, req.Samples)
	if err != nil {
		return job[frontierResponse]{}, err
	}
	steps := req.Steps
	if steps == 0 {
		steps = 16 // resolve the library default BEFORE the cap check
	}
	if steps > s.cfg.MaxBatch {
		return job[frontierResponse]{}, fmt.Errorf("frontier of %d steps exceeds limit %d", steps, s.cfg.MaxBatch)
	}
	spec := kspr.FrontierSpec{
		Attr:         req.Attr,
		Min:          req.Min,
		Max:          req.Max,
		Steps:        steps,
		Samples:      samples,
		Seed:         req.Seed,
		VolumeMetric: req.VolumeMetric,
	}
	return job[frontierResponse]{
		key: fmt.Sprintf("%s@%d|whatif.frontier|f=%d|k=%d|a=%s|attr=%d|min=%x|max=%x|st=%d|n=%d|seed=%d|vm=%t",
			snap.Name, snap.Generation, req.Focal, req.K, algo, req.Attr,
			math.Float64bits(req.Min), math.Float64bits(req.Max), steps,
			samples, req.Seed, req.VolumeMetric),
		noCache: req.NoCache,
		compute: func(ctx context.Context) (*entry[frontierResponse], error) {
			curve, err := snap.DB.Frontier(req.Focal, req.K, spec, whatifOptions(ctx, algo)...)
			if err != nil {
				return nil, err
			}
			s.metrics.AddWhatIf(uint64(curve.Stats.Probes), uint64(curve.Stats.Kept))
			resp := &frontierResponse{
				Dataset:    snap.Name,
				Generation: snap.Generation,
				Focal:      curve.Focal,
				Attr:       curve.Attr,
				K:          curve.K,
				Stats:      toStatsWire(curve.Stats),
				Points:     make([]frontierPointWire, len(curve.Points)),
			}
			for i, p := range curve.Points {
				resp.Points[i] = frontierPointWire(p)
			}
			return &entry[frontierResponse]{resp: resp, stats: resp.Stats}, nil
		},
	}, nil
}
