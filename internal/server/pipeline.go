package server

// The request pipeline behind every query endpoint. An endpoint supplies
// a request type, a plan step (validate against the resolved snapshot,
// build the cache key) and a compute function; the pipeline does the
// rest, once for all of them: decode, snapshot lookup and 404, deadline,
// cache probe, worker pool, error status, cache put, trace attach, write.

import (
	"context"
	"errors"
	"net/http"
	"time"
)

// served is the pipeline-owned tail of every cacheable response.
type served struct {
	Cached bool `json:"cached"`
	// Trace carries the engine phase breakdown under ?debug=trace.
	Trace *traceWire `json:"trace,omitempty"`
}

func (t *served) tail() *served { return t }

// entry is one computed answer, as the result cache stores it. Nothing in
// it changes once it is cached.
type entry[R any] struct {
	resp *R
	// status and msg carry a deterministic failure (whatif:price's
	// unreachable target), answered and cached like a response.
	status int
	msg    string
	// stats are the decision stats the request's wide event carries.
	stats any
	// src is what produced resp, for readers beyond the wire: the kSPR
	// routes keep a *ksprSource here.
	src any
}

// job is a planned request.
type job[R any] struct {
	// key is the result-cache key ("" for answers that are never cached);
	// noCache is the request's own opt-out.
	key     string
	noCache bool
	// compute produces the answer on a pool worker, under the deadline.
	compute func(ctx context.Context) (*entry[R], error)
}

// endpoint is a pipeline request type. scope names the dataset the
// request reads and its requested deadline (0 = the server default);
// plan validates the request against the resolved snapshot, under that
// deadline, and returns its job.
type endpoint[R any] interface {
	scope() (dataset string, timeoutMs int)
	plan(ctx context.Context, s *Server, snap *Snapshot) (job[R], error)
}

// route adapts one endpoint to net/http: decode (decodeBody or
// decodeQuery, which answer a malformed request themselves) fills a fresh
// Q from its wire form, then the pipeline serves it.
func route[Q any, P interface {
	*Q
	endpoint[R]
}, R any](s *Server, decode func(http.ResponseWriter, *http.Request, any) bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		req := P(new(Q))
		if decode(w, r, req) {
			serve[R](s, w, r, req)
		}
	}
}

// serve runs one decoded request through the pipeline.
func serve[R any](s *Server, w http.ResponseWriter, r *http.Request, req endpoint[R]) {
	dataset, timeoutMs := req.scope()
	snap, ok := s.snapshot(w, r, dataset)
	if !ok {
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.timeout(timeoutMs))
	defer cancel()
	j, err := req.plan(ctx, s, snap)
	if err != nil {
		writeError(w, errStatusCode(err), "%v", err)
		return
	}
	e, resp, hit, err := resolve(ctx, s, j)
	if err != nil {
		writeError(w, errStatusCode(err), "%v", err)
		return
	}
	info := reqInfoFrom(ctx)
	info.noteCached(hit)
	info.noteStats(e.stats)
	if e.status != 0 {
		writeError(w, e.status, "%s", e.msg)
		return
	}
	if t, ok := any(resp).(interface{ tail() *served }); ok && info.Debug() {
		t.tail().Trace = traceToWire(info)
	}
	writeJSON(w, http.StatusOK, resp)
}

// snapshot resolves the named dataset for a request, answering 404 when it
// is not loaded, and notes the incarnation on the request's wide event.
func (s *Server) snapshot(w http.ResponseWriter, r *http.Request, name string) (*Snapshot, bool) {
	snap, ok := s.registry.Get(name)
	if !ok {
		writeError(w, http.StatusNotFound, "dataset %q not found", name)
		return nil, false
	}
	reqInfoFrom(r.Context()).noteDataset(snap)
	return snap, true
}

// cacheable reports whether a request may use the result cache. EXPLAIN
// mode bypasses it: a hit would have no phases to report, and a traced
// response must not be shared with untraced callers. Slow-query-log
// traces do not force a miss — a hit is by definition not slow.
func cacheable(ctx context.Context, noCache bool) bool {
	return !noCache && !reqInfoFrom(ctx).Debug()
}

// cached returns the entry the result cache holds under key.
func cached[R any](s *Server, key string) (*entry[R], bool) {
	v, ok := s.cache.Get(key)
	if !ok {
		return nil, false
	}
	e, ok := v.(*entry[R])
	return e, ok
}

// resolve answers j from the result cache when it may, else computes it
// on the worker pool under ctx's deadline and caches the entry. Besides
// the entry it returns the response to send (on a cache hit a shallow copy
// flagged as cached, so the cached entry stays immutable) and whether the
// answer was a hit.
func resolve[R any](ctx context.Context, s *Server, j job[R]) (*entry[R], *R, bool, error) {
	useCache := j.key != "" && cacheable(ctx, j.noCache)
	if useCache {
		if e, ok := cached[R](s, j.key); ok {
			return e, markCached(e.resp), true, nil
		}
	}
	v, err := s.pool.Submit(ctx, func(ctx context.Context) (any, error) { return j.compute(ctx) })
	if err != nil {
		return nil, nil, false, err
	}
	e := v.(*entry[R])
	if useCache {
		s.cache.Put(j.key, e)
	}
	return e, e.resp, false, nil
}

// markCached returns a shallow copy of a cached response flagged as a
// cache hit.
func markCached[R any](resp *R) *R {
	if resp == nil {
		return nil
	}
	c := *resp
	if t, ok := any(&c).(interface{ tail() *served }); ok {
		t.tail().Cached = true
	}
	return &c
}

// timeout resolves the effective per-request deadline.
func (s *Server) timeout(ms int) time.Duration {
	t := s.cfg.DefaultTimeout
	if ms > 0 {
		t = time.Duration(ms) * time.Millisecond
	}
	if t > s.cfg.MaxTimeout {
		t = s.cfg.MaxTimeout
	}
	return t
}

// errStatusCode maps a request error to an HTTP status: deadline expiry
// is 504 (the request-scoped timeout fired mid-query), cancellation and
// pool shutdown 503, everything else 400 (all remaining errors are input
// validation: bad focal, bad k, ...).
func errStatusCode(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled), errors.Is(err, ErrPoolClosed):
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadRequest
	}
}
