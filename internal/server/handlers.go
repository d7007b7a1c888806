package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strings"
	"sync"
	"time"

	kspr "repro"
	"repro/internal/dataset"
	"repro/internal/obs"
)

// ---- wire types ----------------------------------------------------------

type errorResponse struct {
	Error string `json:"error"`
}

type loadRequest struct {
	Name string `json:"name"`
	// Exactly one source: a CSV file path, inline CSV text, or a synthetic
	// generator spec.
	Path     string       `json:"path,omitempty"`
	CSV      string       `json:"csv,omitempty"`
	Generate *generateReq `json:"generate,omitempty"`
}

type generateReq struct {
	Dist string `json:"dist"` // IND | COR | ANTI
	N    int    `json:"n"`
	D    int    `json:"d"`
	Seed int64  `json:"seed"`
}

type queryRequest struct {
	Dataset string `json:"dataset"`
	Focal   int    `json:"focal"`
	// FocalVector queries a hypothetical record not in the dataset; when
	// set, Focal is ignored.
	FocalVector []float64 `json:"focal_vector,omitempty"`
	K           int       `json:"k"`
	Algorithm   string    `json:"algorithm,omitempty"` // cta | p-cta | lp-cta | k-skyband | approx
	Space       string    `json:"space,omitempty"`     // transformed | original
	Bounds      string    `json:"bounds,omitempty"`    // fast | group | record
	Epsilon     float64   `json:"epsilon,omitempty"`   // approx accuracy target
	// Volumes measures every region (exact for 2-d preference spaces,
	// Monte-Carlo above); VolumeSamples bounds the Monte-Carlo sample
	// count (0 = library default, 10000). Both are part of the cache key.
	Volumes       bool  `json:"volumes,omitempty"`
	VolumeSamples int   `json:"volume_samples,omitempty"`
	NoGeometry    bool  `json:"no_geometry,omitempty"`
	Seed          int64 `json:"seed,omitempty"`
	TimeoutMs     int   `json:"timeout_ms,omitempty"`
	NoCache       bool  `json:"no_cache,omitempty"`
	// Parallelism asks the engine to expand this query on up to this many
	// goroutines. Absent or 0 means serial: unlike the library default, the
	// server only parallelizes when explicitly asked, so one request cannot
	// grab cores unrequested. The grant is capped by the server's
	// MaxParallelism and by what the shared CPU budget has free at
	// execution time; results are identical at any value, so the field is
	// excluded from the cache key.
	Parallelism int `json:"parallelism,omitempty"`
}

type regionWire struct {
	Rank      int         `json:"rank"`
	RankExact bool        `json:"rank_exact"`
	Witness   []float64   `json:"witness"`
	Vertices  [][]float64 `json:"vertices,omitempty"`
	Volume    float64     `json:"volume,omitempty"`
	// Outscorers are the stable option ids proven to outrank the focal
	// throughout the region (complete when rank_exact). Stable ids stay
	// valid across result-preserving mutations, so migrated cache entries
	// keep reporting the right competitors.
	Outscorers []int64 `json:"outscorers,omitempty"`
}

type statsWire struct {
	ProcessedRecords int     `json:"processed_records"`
	CellTreeNodes    int     `json:"celltree_nodes"`
	Batches          int     `json:"batches"`
	BaseRank         int     `json:"base_rank"`
	LPSolves         int     `json:"lp_solves"`
	EarlyReported    int     `json:"early_reported"`
	EarlyPruned      int     `json:"early_pruned"`
	CellsPruned      int     `json:"cells_pruned"`
	Parallelism      int     `json:"parallelism,omitempty"`
	Regions          int     `json:"regions"`
	ElapsedMs        float64 `json:"elapsed_ms"`
}

type queryResponse struct {
	Dataset         string       `json:"dataset"`
	Generation      uint64       `json:"generation"`
	Focal           int          `json:"focal"`
	K               int          `json:"k"`
	Algorithm       string       `json:"algorithm"`
	Space           string       `json:"space"`
	Regions         []regionWire `json:"regions"`
	UncertainCount  int          `json:"uncertain_regions,omitempty"`
	UncertainVolume float64      `json:"uncertain_volume,omitempty"`
	Converged       *bool        `json:"converged,omitempty"`
	Stats           statsWire    `json:"stats"`
	served
}

type batchQuery struct {
	Focal int `json:"focal"`
	// FocalVector queries a hypothetical record; when set, Focal is
	// ignored.
	FocalVector []float64 `json:"focal_vector,omitempty"`
	// K overrides the envelope's default shortlist size for this item.
	K int `json:"k"`
}

// batchRequest is the envelope of a batch call: the whole JSON body in the
// legacy application/json form (with inline Queries), or the first line of
// an application/x-ndjson body (items then follow one per line). Its
// embedded query knobs apply to every item; K is the default shortlist
// size for items that do not set their own, and Parallelism is the engine
// parallelism for the WHOLE batch: the batch runs as one shared-work pass
// on 1 + granted extra CPU slots. When the budget has slots but all are
// claimed, the request fails with 429 rather than degrading N queries to
// one core. Focal and FocalVector belong on the items.
type batchRequest struct {
	queryRequest
	Queries []batchQuery `json:"queries,omitempty"`
	// ItemTimeoutMs bounds each item's processing time individually
	// (measured from when the item starts running, not from request
	// arrival), so one pathological item 504s on its own line instead of
	// consuming the batch deadline.
	ItemTimeoutMs int `json:"item_timeout_ms,omitempty"`
}

// batchLine is one NDJSON line of the batch stream.
type batchLine struct {
	Index  int            `json:"index"`
	Error  string         `json:"error,omitempty"`
	Status int            `json:"status,omitempty"`
	Result *queryResponse `json:"result,omitempty"`
	// Trace is the batch-wide phase breakdown, emitted once as a trailer
	// line with Index == -1 under ?debug=trace (the engine aggregates all
	// items into one trace, so per-item attribution is not meaningful).
	Trace *traceWire `json:"trace,omitempty"`
}

type topkRequest struct {
	Dataset string    `json:"dataset"`
	Weights []float64 `json:"weights"`
	K       int       `json:"k"`
}

type topkEntry struct {
	ID    int     `json:"id"`
	Score float64 `json:"score"`
	Label string  `json:"label,omitempty"`
}

type topkResponse struct {
	Dataset    string      `json:"dataset"`
	Generation uint64      `json:"generation"`
	K          int         `json:"k"`
	Results    []topkEntry `json:"results"`
}

type skylineRequest struct {
	Dataset string `json:"dataset"`
	// K, when given, asks for the k-skyband instead of the skyline.
	K *int `json:"k"`
}

type skylineResponse struct {
	Dataset    string   `json:"dataset"`
	Generation uint64   `json:"generation"`
	K          int      `json:"k,omitempty"` // >0: k-skyband
	IDs        []int    `json:"ids"`
	Labels     []string `json:"labels,omitempty"`
	Count      int      `json:"count"`
}

type densityReq struct {
	// Name selects the preference density: uniform (default), dirichlet
	// (with Alpha, one concentration per attribute), or gaussian (with
	// Center in the weight simplex and Sigma).
	Name   string    `json:"name"`
	Alpha  []float64 `json:"alpha,omitempty"`
	Center []float64 `json:"center,omitempty"`
	Sigma  float64   `json:"sigma,omitempty"`
}

type impactRequest struct {
	Dataset   string      `json:"dataset"`
	Focal     int         `json:"focal"`
	K         int         `json:"k"`
	Algorithm string      `json:"algorithm,omitempty"`
	Samples   int         `json:"samples,omitempty"`
	Seed      int64       `json:"seed,omitempty"`
	Density   *densityReq `json:"density,omitempty"`
	TimeoutMs int         `json:"timeout_ms,omitempty"`
	NoCache   bool        `json:"no_cache,omitempty"`
}

type impactResponse struct {
	Dataset     string  `json:"dataset"`
	Generation  uint64  `json:"generation"`
	Focal       int     `json:"focal"`
	K           int     `json:"k"`
	Density     string  `json:"density"`
	Samples     int     `json:"samples"`
	Probability float64 `json:"probability"`
	Regions     int     `json:"regions"`
	// served.Cached reports whether the underlying kSPR result was a
	// cache hit.
	served
}

// ---- helpers -------------------------------------------------------------

// maxImpactSamples bounds the Monte-Carlo sample count any single request
// may demand of a pool worker (impact sampling, volume measurement, and
// the what-if probes all share it).
const maxImpactSamples = 1_000_000

// normalizeVolumeSamples canonicalizes the volume_samples field before it
// enters a cache key: it is meaningless without volumes, non-positive
// means the library default (10000), and the per-request Monte-Carlo cap
// applies — so semantically identical requests share one cache entry.
func normalizeVolumeSamples(volumes bool, samples int) int {
	switch {
	case !volumes:
		return 0
	case samples <= 0:
		return 10000
	case samples > maxImpactSamples:
		return maxImpactSamples
	}
	return samples
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// The wire names of the engine enums, matched case-insensitively; ""
// selects the default. "approx" runs the approximate engine, which
// reuses LP-CTA's candidate machinery.
var (
	algorithmNames = map[string]kspr.Algorithm{
		"": kspr.LPCTA, "lp-cta": kspr.LPCTA, "lpcta": kspr.LPCTA, "approx": kspr.LPCTA,
		"cta": kspr.CTA, "p-cta": kspr.PCTA, "pcta": kspr.PCTA,
		"k-skyband": kspr.KSkybandCTA, "kskyband": kspr.KSkybandCTA,
	}
	spaceNames = map[string]kspr.Space{
		"": kspr.Transformed, "transformed": kspr.Transformed, "original": kspr.Original,
	}
	boundsNames = map[string]kspr.BoundsMode{
		"": kspr.FastBounds, "fast": kspr.FastBounds, "fast_bounds": kspr.FastBounds,
		"group": kspr.GroupBounds, "group_bounds": kspr.GroupBounds,
		"record": kspr.RecordBounds, "record_bounds": kspr.RecordBounds,
	}
)

// parseName resolves one engine enum from its wire name.
func parseName[T any](kind string, names map[string]T, s string) (T, error) {
	v, ok := names[strings.ToLower(s)]
	if !ok {
		return v, fmt.Errorf("unknown %s %q", kind, s)
	}
	return v, nil
}

// parseAlgorithm resolves an algorithm name and whether it selects the
// approximate engine.
func parseAlgorithm(s string) (kspr.Algorithm, bool, error) {
	algo, err := parseName("algorithm", algorithmNames, s)
	return algo, strings.EqualFold(s, "approx"), err
}

// ---- dataset admin -------------------------------------------------------

func (s *Server) handleDatasetList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.registry.List())
}

func (s *Server) handleDatasetLoad(w http.ResponseWriter, r *http.Request) {
	var req loadRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Name == "" {
		writeError(w, http.StatusBadRequest, "dataset name is required")
		return
	}
	sources := 0
	for _, set := range []bool{req.Path != "", req.CSV != "", req.Generate != nil} {
		if set {
			sources++
		}
	}
	if sources != 1 {
		writeError(w, http.StatusBadRequest, "exactly one of path, csv, generate is required")
		return
	}
	var (
		snap *Snapshot
		err  error
	)
	switch {
	case req.Path != "":
		snap, err = s.registry.LoadCSV(req.Name, req.Path)
	case req.CSV != "":
		var ds *dataset.Dataset
		ds, err = dataset.ReadCSV(strings.NewReader(req.CSV), req.Name)
		if err == nil {
			snap, err = s.registry.Load(req.Name, ds, "inline")
		}
	default:
		g := req.Generate
		var ds *dataset.Dataset
		ds, err = dataset.Generate(dataset.Distribution(strings.ToUpper(g.Dist)), g.N, g.D, g.Seed)
		if err == nil {
			snap, err = s.registry.Load(req.Name, ds,
				fmt.Sprintf("generated %s n=%d d=%d seed=%d", strings.ToUpper(g.Dist), g.N, g.D, g.Seed))
		}
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	reqInfoFrom(r.Context()).noteDataset(snap)
	s.journal.Append(obs.JournalEvent{
		Type:            obs.EventDatasetLoad,
		Dataset:         snap.Name,
		Generation:      snap.Generation,
		StoreGeneration: snap.StoreGeneration,
		Detail:          map[string]any{"records": snap.DB.Len(), "source": snap.Source},
	})
	writeJSON(w, http.StatusOK, snap.info())
}

func (s *Server) handleDatasetUnload(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !s.registry.Unload(name) {
		writeError(w, http.StatusNotFound, "dataset %q not found", name)
		return
	}
	s.journal.Append(obs.JournalEvent{Type: obs.EventDatasetUnload, Dataset: name})
	writeJSON(w, http.StatusOK, map[string]string{"unloaded": name})
}

// ---- the canonical kSPR query ------------------------------------------

// ksprQuery is one kSPR question in canonical form. Every kSPR entry
// point (single queries over POST and GET, batch items, /v1/impact, and
// the mutation path's cache migration) parses its request into one, and
// it alone owns validation, the cache key, the engine options and the
// wire rendering. It keeps only the fields the chosen engine reads — an
// approx query keeps epsilon, an exact one the bounds, volume, geometry
// and seed knobs — so requests that differ only in an ignored field share
// one cache entry.
type ksprQuery struct {
	// focal is the dataset record asked about, -1 for a focal vector.
	focal       int
	focalVector []float64
	k           int
	algo        kspr.Algorithm
	approx      bool
	space       kspr.Space
	// eps steers only the approx engine; the fields after it only the
	// exact ones.
	eps    float64
	bounds kspr.BoundsMode
	// volumes is the Monte-Carlo volume sample count (0 = no volumes).
	volumes  int
	geometry bool
	seed     int64
}

// ksprSource is what a cached kSPR answer was computed from: the canonical
// query (the mutation path re-keys the entry from it) and the library
// result (/v1/impact samples its regions).
type ksprSource struct {
	q   ksprQuery
	raw any // *kspr.Result or *kspr.ApproxResult
}

// parseKnobs canonicalizes the engine knobs of a request, leaving its
// focal and k to parseKSPR; a batch envelope is validated with it alone.
func parseKnobs(req *queryRequest) (ksprQuery, error) {
	var q ksprQuery
	var err error
	if q.algo, q.approx, err = parseAlgorithm(req.Algorithm); err != nil {
		return q, err
	}
	if q.space, err = parseName("space", spaceNames, req.Space); err != nil {
		return q, err
	}
	if q.bounds, err = parseName("bounds mode", boundsNames, req.Bounds); err != nil {
		return q, err
	}
	if q.approx {
		if q.space == kspr.Original {
			return q, fmt.Errorf("approx queries support only the transformed space")
		}
		if q.eps = req.Epsilon; q.eps <= 0 {
			q.eps = 0.01
		}
		return q, nil
	}
	q.volumes = normalizeVolumeSamples(req.Volumes, req.VolumeSamples)
	q.geometry = !req.NoGeometry
	q.seed = req.Seed
	return q, nil
}

// parseKSPR canonicalizes a complete kSPR request.
func parseKSPR(req *queryRequest) (ksprQuery, error) {
	q, err := parseKnobs(req)
	if err != nil {
		return q, err
	}
	return q.at(req.Focal, req.FocalVector, req.K)
}

// at is q asked about one focal option (a dataset record, or a vector
// when vector is non-nil) with shortlist size k.
func (q ksprQuery) at(focal int, vector []float64, k int) (ksprQuery, error) {
	if k < 1 {
		return q, fmt.Errorf("k must be >= 1, got %d", k)
	}
	q.k, q.focal, q.focalVector = k, focal, vector
	if vector != nil {
		q.focal = -1
	}
	return q, nil
}

// key is q's result-cache key. The generation prefix makes reloads and
// mutations invalidate implicitly, and the parsed enums make spelling
// variants of one query ("lp-cta", "lpcta", "") share an entry.
func (q *ksprQuery) key(snap *Snapshot) string {
	var b strings.Builder
	b.Grow(128)
	if q.approx {
		fmt.Fprintf(&b, "%s@%d|kspr|k=%d|a=approx|e=%g", snap.Name, snap.Generation, q.k, q.eps)
	} else {
		fmt.Fprintf(&b, "%s@%d|kspr|k=%d|a=%s|s=%s|b=%s|vs=%d|g=%t|seed=%d", snap.Name, snap.Generation, q.k,
			q.algo.String(), q.space.String(), q.bounds.String(), q.volumes, q.geometry, q.seed)
	}
	if q.focalVector == nil {
		fmt.Fprintf(&b, "|f=%d", q.focal)
		return b.String()
	}
	b.WriteString("|fv=")
	for _, v := range q.focalVector {
		fmt.Fprintf(&b, "%x,", math.Float64bits(v))
	}
	return b.String()
}

// options is the exact engine's option list for q.
func (q *ksprQuery) options(ctx context.Context, parallelism int) []kspr.QueryOption {
	opts := []kspr.QueryOption{
		kspr.WithContext(ctx),
		kspr.WithAlgorithm(q.algo),
		kspr.WithSpace(q.space),
		kspr.WithBoundsMode(q.bounds),
		kspr.WithSeed(q.seed),
		kspr.WithParallelism(parallelism),
		kspr.WithTrace(reqInfoFrom(ctx).Trace()),
	}
	if q.volumes > 0 {
		opts = append(opts, kspr.WithVolumes(q.volumes))
	}
	if !q.geometry {
		opts = append(opts, kspr.WithoutGeometry())
	}
	return opts
}

// run answers q on the calling goroutine.
func (q *ksprQuery) run(ctx context.Context, db *kspr.DB, parallelism int) (any, error) {
	switch {
	case q.approx && q.focalVector != nil:
		return db.KSPRApproxVectorCtx(ctx, q.focalVector, q.k, q.eps)
	case q.approx:
		return db.KSPRApproxCtx(ctx, q.focal, q.k, q.eps)
	case q.focalVector != nil:
		return db.KSPRVector(q.focalVector, q.k, q.options(ctx, parallelism)...)
	}
	return db.KSPR(q.focal, q.k, q.options(ctx, parallelism)...)
}

// answer renders an engine result (*kspr.Result or *kspr.ApproxResult) in
// the wire shape, wrapped as a cache entry.
func (q *ksprQuery) answer(snap *Snapshot, raw any) *entry[queryResponse] {
	resp := &queryResponse{
		Dataset:    snap.Name,
		Generation: snap.Generation,
		Focal:      q.focal,
		K:          q.k,
		Algorithm:  q.algo.String(),
		Space:      q.space.String(),
	}
	switch res := raw.(type) {
	case *kspr.Result:
		fillResult(resp, snap, res)
	case *kspr.ApproxResult:
		resp.Algorithm = "approx"
		fillResult(resp, snap, &res.Result)
		resp.UncertainCount = len(res.Uncertain)
		resp.UncertainVolume = res.UncertainVolume
		conv := res.Converged
		resp.Converged = &conv
	}
	return &entry[queryResponse]{resp: resp, stats: resp.Stats, src: &ksprSource{q: *q, raw: raw}}
}

func fillResult(resp *queryResponse, snap *Snapshot, res *kspr.Result) {
	resp.Regions = make([]regionWire, len(res.Regions))
	for i := range res.Regions {
		reg := &res.Regions[i]
		wire := regionWire{
			Rank:      reg.Rank,
			RankExact: reg.RankExact,
			Witness:   reg.Witness,
			Volume:    reg.Volume,
		}
		if len(reg.Outscorers) > 0 {
			wire.Outscorers = make([]int64, 0, len(reg.Outscorers))
			for _, id := range reg.Outscorers {
				if sid, ok := snap.DB.StableID(id); ok {
					wire.Outscorers = append(wire.Outscorers, sid)
				}
			}
		}
		if len(reg.Vertices) > 0 {
			wire.Vertices = make([][]float64, len(reg.Vertices))
			for j, v := range reg.Vertices {
				wire.Vertices[j] = v
			}
		}
		resp.Regions[i] = wire
	}
	resp.Stats = statsWire{
		ProcessedRecords: res.Stats.ProcessedRecords,
		CellTreeNodes:    res.Stats.CellTreeNodes,
		Batches:          res.Stats.Batches,
		BaseRank:         res.Stats.BaseRank,
		LPSolves:         res.Stats.LPSolves,
		EarlyReported:    res.Stats.EarlyReported,
		EarlyPruned:      res.Stats.EarlyPruned,
		CellsPruned:      res.Stats.CellsPruned,
		Parallelism:      res.Stats.Parallelism,
		Regions:          len(res.Regions),
		ElapsedMs:        float64(res.Stats.Elapsed) / float64(time.Millisecond),
	}
}

// ksprJob is q's pipeline job. ask is the engine parallelism the request
// asked for; itemTimeout, when positive, bounds the engine run from the
// moment it starts on a worker (a batch's per-item deadline).
func (s *Server) ksprJob(snap *Snapshot, q ksprQuery, noCache bool, ask int, itemTimeout time.Duration) job[queryResponse] {
	ask = min(max(ask, 1), s.cfg.MaxParallelism)
	return job[queryResponse]{
		key:     q.key(snap),
		noCache: noCache,
		compute: func(ctx context.Context) (*entry[queryResponse], error) {
			if itemTimeout > 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, itemTimeout)
				defer cancel()
			}
			// The CPU-slot grant happens here, on the worker, so slots are
			// held only while the query runs, not while it queues. The
			// approx engine is serial.
			parallelism := 1
			if ask > 1 && !q.approx {
				granted := s.cpu.Acquire(ask - 1)
				defer s.cpu.Release(granted)
				parallelism = 1 + granted
			}
			raw, err := q.run(ctx, snap.DB, parallelism)
			if err != nil {
				return nil, err
			}
			return q.answer(snap, raw), nil
		},
	}
}

// POST and GET /v1/kspr. The GET form takes the same fields as query
// parameters (minus focal_vector, which has no natural query-string
// encoding), convenient for curl and EXPLAIN-mode poking:
// GET /v1/kspr?dataset=d&focal=3&k=5&algorithm=lp-cta&debug=trace.
func (req *queryRequest) scope() (string, int) { return req.Dataset, req.TimeoutMs }

func (req *queryRequest) plan(_ context.Context, s *Server, snap *Snapshot) (job[queryResponse], error) {
	q, err := parseKSPR(req)
	if err != nil {
		return job[queryResponse]{}, err
	}
	return s.ksprJob(snap, q, req.NoCache, req.Parallelism, 0), nil
}

// runKSPR answers one kSPR request through the pipeline's cache → pool
// path off the HTTP surface (/v1/impact's region source). It returns the
// wire response plus the raw library result.
func (s *Server) runKSPR(ctx context.Context, snap *Snapshot, req queryRequest) (*queryResponse, any, error) {
	j, err := req.plan(ctx, s, snap)
	if err != nil {
		return nil, nil, err
	}
	e, resp, _, err := resolve(ctx, s, j)
	if err != nil {
		return nil, nil, err
	}
	return resp, e.src.(*ksprSource).raw, nil
}

// ---- batch ---------------------------------------------------------------

// batchEmitter serializes the batch stream: every item settles exactly
// once (parse error, cache hit, engine outcome, or abort), lines land on a
// buffered channel the handler drains, and finish backfills error lines
// for anything unsettled when the batch stops early. The channel buffer
// holds one line per item, so settles never block.
type batchEmitter struct {
	mu      sync.Mutex
	closed  bool
	settled []bool
	lines   chan batchLine
}

func newBatchEmitter(n int) *batchEmitter {
	return &batchEmitter{settled: make([]bool, n), lines: make(chan batchLine, n)}
}

// settle emits the line for item i unless it already settled or the stream
// is finished.
func (e *batchEmitter) settle(i int, line batchLine) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed || e.settled[i] {
		return
	}
	e.settled[i] = true
	e.lines <- line
}

// fail settles item i with err's message and status.
func (e *batchEmitter) fail(i int, err error) {
	e.settle(i, batchLine{Index: i, Error: err.Error(), Status: errStatusCode(err)})
}

// finish settles every remaining item with err (or a generic abort) and
// closes the stream.
func (e *batchEmitter) finish(err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return
	}
	msg, status := "batch aborted", http.StatusServiceUnavailable
	if err != nil {
		msg, status = err.Error(), errStatusCode(err)
	}
	for i, done := range e.settled {
		if !done {
			e.settled[i] = true
			e.lines <- batchLine{Index: i, Error: msg, Status: status}
		}
	}
	e.closed = true
	close(e.lines)
}

// decodeBatchRequest reads a batch call in either wire form: a plain JSON
// envelope with inline queries, or (Content-Type application/x-ndjson) an
// envelope line followed by one item per line, collected into Queries. A
// malformed NDJSON item line becomes a per-item parse error at its index —
// the surrounding batch still runs — while envelope-level problems reject
// the whole request.
func (s *Server) decodeBatchRequest(w http.ResponseWriter, r *http.Request) (batchRequest, map[int]string, bool) {
	var req batchRequest
	if !strings.Contains(r.Header.Get("Content-Type"), "ndjson") {
		return req, nil, decodeBody(w, r, &req)
	}
	parseErrs := make(map[int]string)
	header := false
	err := eachLine(w, r, func(line []byte) error {
		if !header {
			header = true
			if err := decodeJSON(bytes.NewReader(line), &req); err != nil {
				return fmt.Errorf("invalid batch header line: %w", err)
			}
			if len(req.Queries) > 0 {
				return errors.New("ndjson batch: send items as body lines, not in the header's queries field")
			}
			return nil
		}
		var q batchQuery
		if err := decodeJSON(bytes.NewReader(line), &q); err != nil {
			parseErrs[len(req.Queries)] = fmt.Sprintf("invalid batch item: %v", err)
			q = batchQuery{}
		}
		req.Queries = append(req.Queries, q)
		return nil
	})
	if err == nil && !header {
		err = errors.New("empty ndjson body: want a header line, then one item per line")
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return req, nil, false
	}
	return req, parseErrs, true
}

// batchItem is a batch item that needs engine work.
type batchItem struct {
	i   int
	q   ksprQuery
	key string // "" when the batch bypasses the cache
}

// handleBatch answers a panel of kSPR queries as ONE shared-work engine
// pass (kspr.DB.KSPRBatch) on a single pool worker plus whatever extra CPU
// slots the shared budget grants, and streams one NDJSON line per item.
// Ordering: already-decided items (parse errors, invalid k, cache hits)
// stream first in item order; computed items follow in completion order;
// every line carries its input index. Per-item failures are lines, not
// HTTP errors; the HTTP status covers only the envelope (400/404/429).
// Approx batches have no shared-work pass: their items run as individual
// pool jobs through the single-query path.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	req, parseErrs, ok := s.decodeBatchRequest(w, r)
	if !ok {
		return
	}
	items := req.Queries
	snap, ok := s.snapshot(w, r, req.Dataset)
	if !ok {
		return
	}
	switch {
	case len(items) == 0:
		writeError(w, http.StatusBadRequest, "batch has no queries")
		return
	case len(items) > s.cfg.MaxBatch:
		writeError(w, http.StatusBadRequest, "batch of %d exceeds limit %d", len(items), s.cfg.MaxBatch)
		return
	case req.Focal != 0 || req.FocalVector != nil:
		writeError(w, http.StatusBadRequest, "batch envelope: focal and focal_vector belong on the items")
		return
	}
	base, err := parseKnobs(&req.queryRequest)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	itemTimeout := time.Duration(req.ItemTimeoutMs) * time.Millisecond
	ctx, cancel := context.WithTimeout(r.Context(), s.timeout(req.TimeoutMs))
	defer cancel()
	// Under ?debug=trace the batch skips the result cache (traced runs must
	// actually run) and appends one trailer line with the batch-wide phase
	// breakdown; see batchLine.Trace.
	info := reqInfoFrom(ctx)
	useCache := cacheable(ctx, req.NoCache)

	// Settle what needs no engine work: malformed items, invalid k, cache
	// hits (approx items probe the cache when they run). todo collects the
	// rest, in engine order.
	emitter := newBatchEmitter(len(items))
	var todo []batchItem
	for i, it := range items {
		if msg, bad := parseErrs[i]; bad {
			emitter.settle(i, batchLine{Index: i, Error: msg, Status: http.StatusBadRequest})
			continue
		}
		k := it.K
		if k == 0 {
			k = req.K
		}
		q, err := base.at(it.Focal, it.FocalVector, k)
		if err != nil {
			emitter.fail(i, err)
			continue
		}
		var key string
		if useCache && !q.approx {
			key = q.key(snap)
			if e, hit := cached[queryResponse](s, key); hit {
				emitter.settle(i, batchLine{Index: i, Result: markCached(e.resp)})
				continue
			}
		}
		todo = append(todo, batchItem{i: i, q: q, key: key})
	}

	// Grant engine parallelism for the whole batch from the shared CPU
	// budget. An exhausted budget is load: shed it visibly with 429 before
	// any stream output, rather than silently running N queries serially.
	// The approx path never uses engine parallelism, so it acquires
	// nothing.
	parallelism := 1
	ask := min(req.Parallelism, s.cfg.MaxParallelism)
	var granted int
	if len(todo) > 0 && ask > 1 && !base.approx {
		granted, err = s.cpu.AcquireRequired(ask - 1)
		if err != nil {
			// A shed batch is a store-level incident worth correlating
			// against the slow requests that drained the budget.
			s.journal.Append(obs.JournalEvent{
				Type:       obs.EventCPUBudgetExhausted,
				Dataset:    snap.Name,
				Generation: snap.Generation,
				Detail: map[string]any{
					"asked": ask, "in_use": s.cpu.InUse(), "slots": s.cpu.Slots(),
					"items": len(items),
				},
			})
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, "%v", err)
			return
		}
		parallelism = 1 + granted
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)

	switch {
	case len(todo) == 0:
		emitter.finish(nil)
	case base.approx:
		go s.runBatchApprox(ctx, snap, req.NoCache, itemTimeout, todo, emitter)
	default:
		go func() {
			defer s.cpu.Release(granted)
			queries := make([]kspr.BatchQuery, len(todo))
			for j, it := range todo {
				queries[j] = kspr.BatchQuery{FocalID: it.q.focal, Focal: it.q.focalVector, K: it.q.k}
			}
			_, err := s.pool.Submit(ctx, func(ctx context.Context) (any, error) {
				bopts := []kspr.BatchOption{
					kspr.WithBatchOptions(base.options(ctx, parallelism)...),
					kspr.WithBatchOnOutcome(func(j int, o kspr.BatchOutcome) {
						it := &todo[j]
						if o.Err != nil {
							emitter.fail(it.i, o.Err)
							return
						}
						e := it.q.answer(snap, o.Result)
						if it.key != "" {
							s.cache.Put(it.key, e)
						}
						emitter.settle(it.i, batchLine{Index: it.i, Result: e.resp})
					}),
				}
				if itemTimeout > 0 {
					bopts = append(bopts, kspr.WithBatchItemTimeout(itemTimeout))
				}
				return snap.DB.KSPRBatch(queries, 0, bopts...)
			})
			emitter.finish(err)
		}()
	}

	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	var failed uint64
	for line := range emitter.lines {
		if line.Error != "" {
			failed++
		}
		_ = enc.Encode(line)
		if flusher != nil {
			flusher.Flush()
		}
	}
	// The batch-wide phase breakdown rides as one trailer line: the engine
	// aggregates every item into the shared trace, so per-item attribution
	// would be fiction. Index -1 marks the line as out-of-band.
	if info.Debug() {
		_ = enc.Encode(batchLine{Index: -1, Trace: traceToWire(info)})
		if flusher != nil {
			flusher.Flush()
		}
	}
	// The stream itself is always 200, so surface per-query failures to
	// the error counters explicitly — operators alert on errors_total.
	s.metrics.AddErrors(failed)
	info.noteStats(map[string]any{
		"items": len(items), "computed": len(todo), "failed": failed,
		"parallelism": parallelism,
	})
}

// runBatchApprox serves an approx-algorithm batch: the approximate engine
// has no shared-work pass, so each item runs as its own pipeline job (cache
// probe included) under its own item deadline, settling on the shared
// emitter.
func (s *Server) runBatchApprox(ctx context.Context, snap *Snapshot, noCache bool,
	itemTimeout time.Duration, todo []batchItem, emitter *batchEmitter) {
	var wg sync.WaitGroup
	for _, it := range todo {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, resp, _, err := resolve(ctx, s, s.ksprJob(snap, it.q, noCache, 1, itemTimeout))
			if err != nil {
				emitter.fail(it.i, err)
				return
			}
			emitter.settle(it.i, batchLine{Index: it.i, Result: resp})
		}()
	}
	wg.Wait()
	emitter.finish(nil)
}

// ---- top-k / skyline / impact -------------------------------------------

func (req *topkRequest) scope() (string, int) { return req.Dataset, 0 }

func (req *topkRequest) plan(_ context.Context, _ *Server, snap *Snapshot) (job[topkResponse], error) {
	if req.K < 1 {
		return job[topkResponse]{}, fmt.Errorf("k must be >= 1, got %d", req.K)
	}
	if len(req.Weights) != snap.DB.Dim() {
		return job[topkResponse]{}, fmt.Errorf("weights have %d entries, dataset has %d attributes",
			len(req.Weights), snap.DB.Dim())
	}
	return job[topkResponse]{compute: func(context.Context) (*entry[topkResponse], error) {
		resp := &topkResponse{Dataset: snap.Name, Generation: snap.Generation, K: req.K}
		for _, id := range snap.DB.TopK(req.Weights, req.K) {
			e := topkEntry{ID: id, Score: dot(snap.DB.Record(id), req.Weights)}
			if id < len(snap.Dataset.Labels) {
				e.Label = snap.Dataset.Labels[id]
			}
			resp.Results = append(resp.Results, e)
		}
		return &entry[topkResponse]{resp: resp}, nil
	}}, nil
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func (req *skylineRequest) scope() (string, int) { return req.Dataset, 0 }

func (req *skylineRequest) plan(_ context.Context, _ *Server, snap *Snapshot) (job[skylineResponse], error) {
	k := 0
	if req.K != nil {
		if k = *req.K; k < 1 {
			return job[skylineResponse]{}, fmt.Errorf("k must be >= 1, got %d", k)
		}
	}
	return job[skylineResponse]{compute: func(context.Context) (*entry[skylineResponse], error) {
		var ids []int
		if k > 0 {
			ids = snap.DB.KSkyband(k)
		} else {
			ids = snap.DB.Skyline()
		}
		resp := &skylineResponse{Dataset: snap.Name, Generation: snap.Generation, K: k, IDs: ids, Count: len(ids)}
		if len(snap.Dataset.Labels) > 0 {
			resp.Labels = make([]string, len(ids))
			for i, id := range ids {
				if id < len(snap.Dataset.Labels) {
					resp.Labels[i] = snap.Dataset.Labels[id]
				}
			}
		}
		return &entry[skylineResponse]{resp: resp}, nil
	}}, nil
}

// buildDensity maps a named preference density to a pdf over original-space
// weight vectors (length d, summing to 1).
func buildDensity(req *densityReq, d int) (func(w []float64) float64, string, error) {
	if req == nil || req.Name == "" || strings.EqualFold(req.Name, "uniform") {
		return nil, "uniform", nil
	}
	switch strings.ToLower(req.Name) {
	case "dirichlet":
		if len(req.Alpha) != d {
			return nil, "", fmt.Errorf("dirichlet density needs %d alpha values, got %d", d, len(req.Alpha))
		}
		for _, a := range req.Alpha {
			if a <= 0 {
				return nil, "", fmt.Errorf("dirichlet alpha values must be positive")
			}
		}
		alpha := append([]float64(nil), req.Alpha...)
		return func(w []float64) float64 {
			p := 1.0
			for i, a := range alpha {
				if w[i] <= 0 {
					if a == 1 {
						continue
					}
					return 0 // clip the boundary: diverging (a<1) or zero (a>1)
				}
				p *= math.Pow(w[i], a-1)
			}
			return p
		}, "dirichlet", nil
	case "gaussian":
		if len(req.Center) != d {
			return nil, "", fmt.Errorf("gaussian density needs a %d-dim center, got %d", d, len(req.Center))
		}
		sigma := req.Sigma
		if sigma <= 0 {
			sigma = 0.1
		}
		center := append([]float64(nil), req.Center...)
		return func(w []float64) float64 {
			var d2 float64
			for i := range w {
				diff := w[i] - center[i]
				d2 += diff * diff
			}
			return math.Exp(-d2 / (2 * sigma * sigma))
		}, "gaussian", nil
	default:
		return nil, "", fmt.Errorf("unknown density %q (want uniform, dirichlet, gaussian)", req.Name)
	}
}

// /v1/impact answers §1's market-impact question: the probability mass of
// the focal record's kSPR regions under a named preference density. The
// regions come from runKSPR, so they are cached and deadline-bounded like
// any other query; the sampling itself is this request's job.
func (req *impactRequest) scope() (string, int) { return req.Dataset, req.TimeoutMs }

func (req *impactRequest) plan(ctx context.Context, s *Server, snap *Snapshot) (job[impactResponse], error) {
	// Region-membership sampling needs an exact kSPR result; reject approx
	// upfront rather than after burning a worker on the query.
	if _, approx, err := parseAlgorithm(req.Algorithm); err != nil {
		return job[impactResponse]{}, err
	} else if approx {
		return job[impactResponse]{}, errors.New("impact needs an exact algorithm (cta, p-cta, lp-cta, k-skyband)")
	}
	pdf, densityName, err := buildDensity(req.Density, snap.DB.Dim())
	if err != nil {
		return job[impactResponse]{}, err
	}
	// The sampling loop is not cancellable, so bound the work a single
	// request can demand of a pool worker.
	samples := req.Samples
	if samples <= 0 {
		samples = 20000
	}
	samples = min(samples, maxImpactSamples)
	qresp, raw, err := s.runKSPR(ctx, snap, queryRequest{
		Dataset:   req.Dataset,
		Focal:     req.Focal,
		K:         req.K,
		Algorithm: req.Algorithm,
		Seed:      req.Seed,
		NoCache:   req.NoCache,
	})
	if err != nil {
		return job[impactResponse]{}, err
	}
	return job[impactResponse]{compute: func(context.Context) (*entry[impactResponse], error) {
		resp := &impactResponse{
			Dataset:     snap.Name,
			Generation:  snap.Generation,
			Focal:       req.Focal,
			K:           req.K,
			Density:     densityName,
			Samples:     samples,
			Probability: snap.DB.ImpactProbabilityPDF(raw.(*kspr.Result), pdf, samples, req.Seed),
			Regions:     qresp.Stats.Regions,
		}
		resp.Cached = qresp.Cached
		return &entry[impactResponse]{resp: resp}, nil
	}}, nil
}

// ---- health & metrics ----------------------------------------------------

// handleHealthz is the liveness probe: green as soon as the process
// serves HTTP. Readiness (WAL recovery done) lives on /readyz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"datasets": len(s.registry.List()),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.metricsView())
}
