// The traffic side of the harness: dataset setup, the closed/open-hybrid
// worker loop, and the four request classes (kspr, batch, mutate,
// whatif). Every response is handed to the verifier before it counts.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Request class names (also the mix keys and latency map keys).
const (
	classKSPR   = "kspr"
	classBatch  = "batch"
	classMutate = "mutate"
	classWhatIf = "whatif"
)

// dsState is the harness-side view of one loaded dataset: the verifier's
// generation floor, and the stable ids of harness-inserted records (the
// only ones update/delete mutations may target, so the live record count
// never drops below the initial n and every dense focal in [0, n) stays
// valid for the whole run).
type dsState struct {
	name string
	// gen is the highest generation any response for this dataset has
	// reported; later requests must never observe less (read-your-
	// generation across the whole fleet of workers).
	gen atomic.Uint64
	// mu serializes mutation batches per dataset, guarding inserted.
	mu       sync.Mutex
	inserted []int64
}

// maxFloor raises the dataset's generation floor to g.
func (d *dsState) maxFloor(g uint64) {
	for {
		cur := d.gen.Load()
		if g <= cur || d.gen.CompareAndSwap(cur, g) {
			return
		}
	}
}

// runner drives the load phase against one target.
type runner struct {
	cfg    *config
	base   string
	client *http.Client
	ds     []*dsState
	ver    *verifier
	stats  *collector
	// tokens paces workers when -rate > 0 (open-loop arrivals).
	tokens chan struct{}
	// classes is the mix expanded into a weighted pick table.
	classes []string
}

func newRunner(cfg *config, base string) (*runner, error) {
	var classes []string
	for _, c := range []string{classKSPR, classBatch, classMutate, classWhatIf} {
		for i := 0; i < cfg.mix[c]; i++ {
			classes = append(classes, c)
		}
	}
	r := &runner{
		cfg:  cfg,
		base: base,
		client: &http.Client{
			Timeout: 2 * time.Minute,
			Transport: &http.Transport{
				MaxIdleConns:        cfg.conc * 2,
				MaxIdleConnsPerHost: cfg.conc * 2,
			},
		},
		ver:     newVerifier(),
		stats:   newCollector(),
		classes: classes,
	}
	return r, nil
}

// loadDatasets installs the synthetic datasets over HTTP and reads the
// server's CPU-budget size (the 429 verifier needs it).
func (r *runner) loadDatasets() error {
	for i := 0; i < r.cfg.datasets; i++ {
		name := fmt.Sprintf("load%d", i)
		body := fmt.Sprintf(`{"name":%q,"generate":{"dist":"IND","n":%d,"d":%d,"seed":%d}}`,
			name, r.cfg.n, r.cfg.d, r.cfg.seed+int64(i))
		resp, err := r.client.Post(r.base+"/v1/datasets", "application/json", strings.NewReader(body))
		if err != nil {
			return fmt.Errorf("load dataset %s: %w", name, err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("load dataset %s: status %d: %s", name, resp.StatusCode, raw)
		}
		var info struct {
			Generation uint64 `json:"generation"`
		}
		if err := json.Unmarshal(raw, &info); err != nil {
			return fmt.Errorf("load dataset %s: %w", name, err)
		}
		d := &dsState{name: name}
		d.gen.Store(info.Generation)
		r.ds = append(r.ds, d)
	}
	slots, err := r.budgetSlots()
	if err != nil {
		return err
	}
	r.ver.budgetSlots = slots
	return nil
}

// budgetSlots reads cpu.extra_slots from /metrics.
func (r *runner) budgetSlots() (int, error) {
	raw, err := r.getDebug("/metrics")
	if err != nil {
		return 0, err
	}
	var m struct {
		CPU struct {
			ExtraSlots int `json:"extra_slots"`
		} `json:"cpu"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		return 0, fmt.Errorf("decode /metrics: %w", err)
	}
	return m.CPU.ExtraSlots, nil
}

// drive runs the timed worker phase and returns the measured wall time.
func (r *runner) drive() time.Duration {
	ctx, cancel := context.WithCancel(context.Background())
	if r.cfg.rate > 0 {
		r.tokens = make(chan struct{}, r.cfg.conc*2)
		interval := time.Duration(float64(time.Second) / r.cfg.rate)
		go func() {
			tick := time.NewTicker(interval)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
					select {
					case r.tokens <- struct{}{}:
					default: // workers saturated: shed the arrival
					}
				}
			}
		}()
	}
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < r.cfg.conc; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			r.worker(ctx, id)
		}(w)
	}
	time.Sleep(r.cfg.duration)
	cancel()
	wg.Wait()
	return time.Since(start)
}

// worker issues requests until ctx is cancelled. Each worker owns its RNG
// (seeded off the run seed and worker id) so runs are reproducible at a
// fixed concurrency.
func (r *runner) worker(ctx context.Context, id int) {
	rng := rand.New(rand.NewSource(r.cfg.seed + int64(id)*7919))
	zipfDS := rand.NewZipf(rng, r.cfg.zipfS, 1, uint64(len(r.ds)-1))
	zipfFocal := rand.NewZipf(rng, r.cfg.zipfS, 1, uint64(r.cfg.n-1))
	for ctx.Err() == nil {
		if r.tokens != nil {
			select {
			case <-r.tokens:
			case <-ctx.Done():
				return
			}
		}
		class := r.classes[rng.Intn(len(r.classes))]
		d := r.ds[int(zipfDS.Uint64())]
		start := time.Now()
		var err error
		switch class {
		case classKSPR:
			err = r.doKSPR(ctx, d, int(zipfFocal.Uint64()), rng)
		case classBatch:
			err = r.doBatch(ctx, d, rng, zipfFocal)
		case classMutate:
			err = r.doMutate(ctx, d, rng)
		case classWhatIf:
			err = r.doWhatIf(ctx, d, int(zipfFocal.Uint64()))
		}
		if ctx.Err() != nil && err != nil {
			return // shutdown race: don't count a cancellation as an error
		}
		r.stats.record(class, time.Since(start), err)
	}
}

// ---- wire helpers --------------------------------------------------------

// errHTTP marks a request-level failure (non-2xx other than handled 429s,
// transport errors, malformed bodies). err429 marks a 429 response that
// passed its sanity checks — counted separately, not as an error.
var err429 = fmt.Errorf("backpressure (429)")

// post sends a JSON body and returns the response with its raw body read.
func (r *runner) post(ctx context.Context, path string, body any) (*http.Response, []byte, error) {
	raw, err := json.Marshal(body)
	if err != nil {
		return nil, nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.base+path, bytes.NewReader(raw))
	if err != nil {
		return nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := r.client.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	return resp, out, nil
}

// queryWire is the subset of a kSPR query response the harness reads. The
// raw region payload is kept for byte-level recompute comparison.
type queryWire struct {
	Generation uint64          `json:"generation"`
	Focal      int             `json:"focal"`
	K          int             `json:"k"`
	Cached     bool            `json:"cached"`
	Regions    json.RawMessage `json:"regions"`
}

// doKSPR issues one single-query request and runs the generation and
// (sampled) cache-vs-cold-recompute checks.
func (r *runner) doKSPR(ctx context.Context, d *dsState, focal int, rng *rand.Rand) error {
	floor := d.gen.Load()
	resp, body, err := r.post(ctx, "/v1/kspr", map[string]any{
		"dataset": d.name, "focal": focal, "k": r.cfg.k,
	})
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("kspr %s focal %d: status %d: %.200s", d.name, focal, resp.StatusCode, body)
	}
	var q queryWire
	if err := json.Unmarshal(body, &q); err != nil {
		return fmt.Errorf("kspr decode: %w", err)
	}
	r.ver.checkGeneration(d, floor, q.Generation, classKSPR)
	if q.Cached {
		r.stats.cacheHits.Add(1)
		if rng.Float64() < r.cfg.verifySample {
			r.verifyRecompute(ctx, d, focal, &q)
		}
	}
	return nil
}

// verifyRecompute re-runs a cache-served query with no_cache and demands
// a byte-identical region payload at the same generation. A generation
// moved by a concurrent mutation makes the comparison meaningless; that
// is counted as skipped, not passed.
func (r *runner) verifyRecompute(ctx context.Context, d *dsState, focal int, cached *queryWire) {
	resp, body, err := r.post(ctx, "/v1/kspr", map[string]any{
		"dataset": d.name, "focal": focal, "k": r.cfg.k, "no_cache": true,
	})
	if err != nil || resp.StatusCode != http.StatusOK {
		r.ver.recomputeSkips.Add(1) // transient failure: the main loop still measures it
		return
	}
	var cold queryWire
	if err := json.Unmarshal(body, &cold); err != nil {
		r.ver.recomputeSkips.Add(1)
		return
	}
	if cold.Generation != cached.Generation {
		r.ver.recomputeSkips.Add(1)
		return
	}
	r.ver.recomputeChecks.Add(1)
	if !jsonEqual(cached.Regions, cold.Regions) {
		r.ver.violate("cache-vs-recompute: %s focal %d gen %d: cached regions differ from cold recompute",
			d.name, focal, cached.Generation)
	}
}

// jsonEqual compares two raw JSON fragments modulo whitespace.
func jsonEqual(a, b json.RawMessage) bool {
	var ca, cb bytes.Buffer
	if json.Compact(&ca, a) != nil || json.Compact(&cb, b) != nil {
		return false
	}
	return bytes.Equal(ca.Bytes(), cb.Bytes())
}

// batchLineWire is one NDJSON line of a batch response.
type batchLineWire struct {
	Index  int        `json:"index"`
	Error  string     `json:"error,omitempty"`
	Status int        `json:"status,omitempty"`
	Result *queryWire `json:"result,omitempty"`
}

// doBatch issues one NDJSON batch request. With probability -par-prob it
// asks for engine parallelism 2, which is what makes the CPU budget — and
// therefore the 429 backpressure path — observable under load.
func (r *runner) doBatch(ctx context.Context, d *dsState, rng *rand.Rand, zipfFocal *rand.Zipf) error {
	nq := r.cfg.batchMin + rng.Intn(r.cfg.batchMax-r.cfg.batchMin+1)
	queries := make([]map[string]any, nq)
	for i := range queries {
		queries[i] = map[string]any{"focal": int(zipfFocal.Uint64())}
	}
	req := map[string]any{"dataset": d.name, "k": r.cfg.k, "queries": queries}
	par := 0
	if rng.Float64() < r.cfg.parProb {
		par = 2
		req["parallelism"] = par
	}
	floor := d.gen.Load()
	resp, body, err := r.post(ctx, "/v1/kspr:batch", req)
	if err != nil {
		return err
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		r.ver.check429(classBatch, par, resp.Header.Get("Retry-After"), body)
		return err429
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("batch %s: status %d: %.200s", d.name, resp.StatusCode, body)
	}

	// Exactly one line per item, every index in range, none twice.
	seen := make([]int, nq)
	var itemErr error
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var bl batchLineWire
		if err := json.Unmarshal(line, &bl); err != nil {
			return fmt.Errorf("batch %s: bad stream line: %w", d.name, err)
		}
		if bl.Index < 0 || bl.Index >= nq {
			r.ver.violate("batch-lines: %s: line index %d outside [0,%d)", d.name, bl.Index, nq)
			continue
		}
		seen[bl.Index]++
		if bl.Error != "" {
			itemErr = fmt.Errorf("batch %s item %d: status %d: %s", d.name, bl.Index, bl.Status, bl.Error)
			continue
		}
		if bl.Result != nil {
			r.ver.checkGeneration(d, floor, bl.Result.Generation, classBatch)
			if bl.Result.Cached {
				r.stats.cacheHits.Add(1)
			}
		}
	}
	r.ver.batchLineChecks.Add(uint64(nq))
	for i, n := range seen {
		if n != 1 {
			r.ver.violate("batch-lines: %s: item %d settled %d times (want exactly 1)", d.name, i, n)
		}
	}
	return itemErr
}

// doMutate applies one small atomic mutation batch. Updates and deletes
// only ever target records this harness inserted, so the dataset never
// shrinks below its initial n records and mutation errors are real
// server bugs, not harness races. The per-dataset lock only reserves and
// returns ids — it is NOT held across the HTTP round trip. An earlier
// version held it through the request, and the harness's own mutex
// profile flagged that as the run's dominant contention point (2.6s of
// lock delay in a 5s run): deletes are safe because a reserved id leaves
// `inserted` before the lock drops, and concurrent updates of one id are
// exactly the conflicting-seller traffic the server must serialize anyway.
func (r *runner) doMutate(ctx context.Context, d *dsState, rng *rand.Rand) error {
	nops := 1 + rng.Intn(3)
	ops := make([]map[string]any, 0, nops)
	// Update and delete targets are both reserved (popped from
	// d.inserted) while the batch is in flight, so no two concurrent
	// batches ever address the same id — an in-flight update racing a
	// committed delete would otherwise be a harness-made 400.
	var updated, deleted []int64
	d.mu.Lock()
	for i := 0; i < nops; i++ {
		vec := make([]float64, r.cfg.d)
		for j := range vec {
			vec[j] = rng.Float64()
		}
		if len(d.inserted) == 0 || rng.Float64() < 0.5 {
			ops = append(ops, map[string]any{"op": "insert", "values": vec})
			continue
		}
		idx := rng.Intn(len(d.inserted))
		id := d.inserted[idx]
		d.inserted = append(d.inserted[:idx], d.inserted[idx+1:]...)
		if rng.Float64() < 0.5 {
			updated = append(updated, id)
			ops = append(ops, map[string]any{"op": "update", "id": id, "values": vec})
		} else {
			deleted = append(deleted, id)
			ops = append(ops, map[string]any{"op": "delete", "id": id})
		}
	}
	d.mu.Unlock()

	// returnIDs makes ids eligible targets again: fresh insert ids on
	// success, reserved delete ids back on failure (outcome unknown, but
	// a failed delete leaves the record alive — re-deleting is safe, and
	// re-deleting an actually-deleted id is a server error the run reports).
	returnIDs := func(ids []int64) {
		if len(ids) == 0 {
			return
		}
		d.mu.Lock()
		d.inserted = append(d.inserted, ids...)
		d.mu.Unlock()
	}

	floor := d.gen.Load()
	resp, body, err := r.post(ctx, "/v1/datasets/"+d.name+":mutate", map[string]any{"mutations": ops})
	if err != nil {
		returnIDs(append(updated, deleted...))
		return err
	}
	if resp.StatusCode != http.StatusOK {
		returnIDs(append(updated, deleted...))
		return fmt.Errorf("mutate %s: status %d: %.200s", d.name, resp.StatusCode, body)
	}
	var ack struct {
		Generation uint64  `json:"generation"`
		IDs        []int64 `json:"ids"`
	}
	if err := json.Unmarshal(body, &ack); err != nil {
		returnIDs(updated)
		return fmt.Errorf("mutate decode: %w", err)
	}
	r.ver.checkGeneration(d, floor, ack.Generation, classMutate)
	fresh := updated
	for i, op := range ops {
		if op["op"] == "insert" && i < len(ack.IDs) {
			fresh = append(fresh, ack.IDs[i])
		}
	}
	returnIDs(fresh)
	return nil
}

// doWhatIf issues one competitor-attribution call (the what-if layer's
// cheapest production query).
func (r *runner) doWhatIf(ctx context.Context, d *dsState, focal int) error {
	floor := d.gen.Load()
	url := fmt.Sprintf("%s/v1/impact:competitors?dataset=%s&focal=%d&k=%d&samples=500&seed=1",
		r.base, d.name, focal, r.cfg.k)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("whatif %s focal %d: status %d: %.200s", d.name, focal, resp.StatusCode, body)
	}
	var out struct {
		Generation uint64 `json:"generation"`
		Cached     bool   `json:"cached"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return fmt.Errorf("whatif decode: %w", err)
	}
	r.ver.checkGeneration(d, floor, out.Generation, classWhatIf)
	if out.Cached {
		r.stats.cacheHits.Add(1)
	}
	return nil
}

// ---- stats ---------------------------------------------------------------

// collector aggregates per-class latencies and error counts across
// workers. Lock granularity is one mutex over the whole record path; at
// harness request rates this is far off any measured path.
type collector struct {
	mu        sync.Mutex
	lat       map[string][]int64
	errs      map[string]uint64
	n429      map[string]uint64
	examples  []string
	cacheHits atomic.Uint64
}

func newCollector() *collector {
	return &collector{
		lat:  map[string][]int64{},
		errs: map[string]uint64{},
		n429: map[string]uint64{},
	}
}

func (c *collector) record(class string, elapsed time.Duration, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lat[class] = append(c.lat[class], elapsed.Nanoseconds())
	switch {
	case err == nil:
	case err == err429:
		c.n429[class]++
	default:
		c.errs[class]++
		if len(c.examples) < 8 {
			c.examples = append(c.examples, err.Error())
		}
	}
}

// totalRequests is the number of requests the timed phase recorded.
func (c *collector) totalRequests() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var n uint64
	for _, l := range c.lat {
		n += uint64(len(l))
	}
	return n
}

func (c *collector) errExamples() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.examples...)
}

// summarize folds the collector and verifier into the summary file.
func (r *runner) summarize(elapsed time.Duration) *loadSummary {
	c := r.stats
	c.mu.Lock()
	defer c.mu.Unlock()
	sum := &loadSummary{
		Name:        r.cfg.name,
		Datasets:    r.cfg.datasets,
		N:           r.cfg.n,
		D:           r.cfg.d,
		K:           r.cfg.k,
		Seed:        r.cfg.seed,
		ZipfS:       r.cfg.zipfS,
		DurationSec: elapsed.Seconds(),
		Concurrency: r.cfg.conc,
		RateTarget:  r.cfg.rate,
		Mix:         r.cfg.mix,
		CacheHits:   c.cacheHits.Load(),
		Latency:     map[string]latencySummary{},
	}
	fillHost(sum)
	var all []int64
	for class, lats := range c.lat {
		sum.Latency[class] = digest(lats)
		all = append(all, lats...)
		sum.Requests += uint64(len(lats))
	}
	sum.Latency["all"] = digest(all)
	for _, n := range c.errs {
		sum.Errors += n
	}
	for _, n := range c.n429 {
		sum.Resp429 += n
	}
	if sum.Requests > 0 {
		sum.ErrorRate = float64(sum.Errors) / float64(sum.Requests)
		sum.Rate429 = float64(sum.Resp429) / float64(sum.Requests)
	}
	if elapsed > 0 {
		sum.Throughput = float64(sum.Requests) / elapsed.Seconds()
	}
	sum.Verify = r.ver.summary()
	return sum
}
