package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/dataset"
	"repro/internal/server"
)

// serve-mixed parameters. The rate is pinned at about half the capacity
// the seed commit measured on a 2-CPU host (see README.md).
const (
	serveDatasets  = 12
	serveN         = 2000
	serveD         = 3
	serveK         = 5
	serveRate      = 75.0 // requests per second, open loop
	serveLimit     = 100 * time.Millisecond
	serveConns     = 2
	serveWarmup    = 3 * time.Second
	capacityFocals = 32 // capacity blocks: focals of each dataset, outside its k-skyband
	serveBlocks    = 5  // open-loop segments, each followed by a capacity block
	serveSetupReps = 5  // restarts timed for setup_s after each block
	serveZipfS     = 1.3
	batchSize      = 4
	explainEvery   = 10 // traced runs: one kspr request in this many asks for ?debug=trace
	hitCheckEvery  = 32 // one cache hit in this many is recomputed after the run
)

// mixShare is one request class and its share of a mix, in percent.
type mixShare struct {
	class string
	pct   int
}

// The request mix of the open loop.
var serveMix = []mixShare{{"kspr", 60}, {"batch", 15}, {"mutate", 15}, {"whatif", 10}}

// planned is one scheduled request, drawn from the seed before the run.
type planned struct {
	class  string
	ds     int
	focals []int     // kspr and whatif use focals[0]
	sky    bool      // kspr: focals[0] is in the k-skyband, so a miss runs the cell tree
	values []float64 // mutate: the record an insert adds
	delete bool      // mutate: delete an earlier insert instead, if any
}

// outcome is what the load generator observed for one request.
type outcome struct {
	class     string
	sky       bool
	due, sent time.Time
	done      time.Time
	ok        bool
	status    int
	cached    bool
	explained bool
	engineMs  float64
	items     int // batch items answered
}

// serveState is the client's view of the served datasets.
type serveState struct {
	base     string
	client   *http.Client
	names    []string
	floor    []atomic.Uint64 // highest generation seen per dataset
	mu       sync.Mutex
	pending  [][]int64 // ids of inserts not yet deleted, per dataset
	muts     []loggedMutation
	hits     []hitSample // one cache hit in hitCheckEvery
	hitsSeen int
	rep      *report
	repMu    sync.Mutex
}

type loggedMutation struct {
	ds       int
	storeGen uint64
	mut      kspr.Mutation
}

type hitSample struct {
	ds, focal int
	gen       uint64
	regions   []byte
}

func (st *serveState) fail(format string, args ...any) {
	st.repMu.Lock()
	st.rep.fail(format, args...)
	st.repMu.Unlock()
}

// raise lifts a dataset's generation floor to g.
func (st *serveState) raise(ds int, g uint64) {
	for {
		cur := st.floor[ds].Load()
		if g <= cur || st.floor[ds].CompareAndSwap(cur, g) {
			return
		}
	}
}

// checkGen requires a response generation not below the floor seen when
// the request was sent.
func (st *serveState) checkGen(ds int, floor, got uint64, class string) {
	if got < floor {
		st.fail("%s on %s: generation %d after %d was already seen", class, st.names[ds], got, floor)
	}
	st.raise(ds, got)
}

func runServe(cfg runConfig, rep *report) error {
	rng := rand.New(rand.NewSource(cfg.seed))
	var records [][][]float64
	var csvs []string
	var orders [][]int
	var bands []int
	for j := 0; j < serveDatasets; j++ {
		ds, err := dataset.Generate(dataset.Independent, serveN, serveD, cfg.seed*1_000_003+int64(j))
		if err != nil {
			return err
		}
		records = append(records, flatten(ds.Float64s()))
		csvs = append(csvs, toCSV(ds.Float64s()))
		order, band := zipfOrder(ds.Float64s(), rng)
		orders = append(orders, order)
		bands = append(bands, band)
	}
	// Two thirds of the measured time go to the open loop, the rest to
	// the capacity blocks.
	loopTime := cfg.seconds * 2 / 3
	capTime := cfg.seconds - loopTime
	warm := int(serveRate * serveWarmup.Seconds())
	perBlock := max(1, int(serveRate*loopTime.Seconds())/serveBlocks)
	total := warm + serveBlocks*perBlock
	plan := makePlan(total, serveMix, orders, bands, rng)
	ksprPlan, batchPlan := capacityPlans(orders, bands, rng)

	client := &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns, DisableCompression: true,
	}}
	defer client.CloseIdleConnections()
	// The datasets are loaded over HTTP once. setup_s is a restart over
	// their stores, the cost paid before the first answer on every start
	// after the first: the first load writes and fsyncs each store's
	// snapshot and index, so its time is mostly the host's disk. Each
	// restart is a fresh process over a copy of the stores as they were
	// after the load, like a ksprd restart: in this process the live
	// server's heap would spare a restart the garbage collections a fresh
	// one pays. A few run after each block, so that they spread over the
	// run like the capacity rounds: 21 restarts in a row took under a
	// second, and their median moved by a factor of 2.5 with the host.
	dir := filepath.Join(cfg.out, "store")
	t0 := time.Now()
	stack, _, err := startStack(dir, csvs, client)
	if err != nil {
		return err
	}
	rep.set("ingest_s", time.Since(t0).Seconds(), "s", 1)
	stack.stop()
	setupDir := filepath.Join(cfg.out, "setup-store")
	if err := os.CopyFS(setupDir, os.DirFS(dir)); err != nil {
		return fmt.Errorf("copying the stores: %w", err)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var setups []float64
	timeRestart := func() error {
		cmd := exec.Command(self, "-restart-store", setupDir)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("restart: %w", err)
		}
		var sec float64
		var recovered int
		if _, err := fmt.Sscan(string(out), &sec, &recovered); err != nil {
			return fmt.Errorf("restart: reading %q: %w", out, err)
		}
		if recovered != serveDatasets {
			return fmt.Errorf("restart recovered %d datasets, want %d", recovered, serveDatasets)
		}
		setups = append(setups, sec)
		return nil
	}
	// The load runs against a server recovered from the stores, not the
	// one that loaded them.
	stack, recovered, err := startStack(dir, nil, client)
	if err != nil {
		return err
	}
	defer stack.stop()
	if recovered != serveDatasets {
		return fmt.Errorf("restart recovered %d datasets, want %d", recovered, serveDatasets)
	}

	st := &serveState{base: stack.base, client: client, rep: rep,
		floor: make([]atomic.Uint64, serveDatasets), pending: make([][]int64, serveDatasets)}
	for j := range csvs {
		st.names = append(st.names, fmt.Sprintf("bench%d", j))
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	// The run alternates serveBlocks open-loop segments with capacity
	// blocks, so that both spread over the whole run: the host's speed
	// swings over periods of 5-10 s, and one capacity phase of a third of
	// the run took the speed of one or two of them.
	//
	// A capacity block is one caller cycling through a fixed set of kspr
	// requests and then a fixed set of batch requests, round after round,
	// after one untimed round that refills the cache, so the timed rounds
	// are cache hits. With two callers, client and server (one process)
	// filled both CPUs, and the rates spread by a fifth across seeds and
	// ranked them differently from one set of runs to the next.
	interval := time.Second / serveRate
	outs := make([]outcome, total)
	send := func(p planned) outcome { return st.do(p, time.Now(), false) }
	capPlan := append(append([]planned(nil), ksprPlan...), batchPlan...)
	capOuts := make([][]outcome, len(capPlan))
	var window time.Duration // first due time to last answer, summed over segments
	for b, from := 0, 0; b < serveBlocks; b++ {
		n := perBlock
		if b == 0 {
			n += warm
		}
		openLoop(time.Now().Add(50*time.Millisecond), interval, n, serveConns, func(i int, due time.Time) {
			i += from
			outs[i] = st.do(plan[i], due, cfg.trace && i%explainEvery == 0)
			if tr != nil {
				o := outs[i]
				root := tr.add("request."+o.class, o.due, o.done, -1, strconv.Itoa(i))
				tr.add("loadgen.wait", o.due, o.sent, root, strconv.Itoa(i))
				tr.add("http."+o.class, o.sent, o.done, root, strconv.Itoa(i))
			}
		})
		window += segmentWindow(outs[max(from, warm) : from+n])
		from += n

		for _, p := range capPlan {
			send(p)
			rep.attempted++
		}
		for i, row := range cycleLoop(capTime/serveBlocks, capPlan, send) {
			capOuts[i] = append(capOuts[i], row...)
		}
		for r := 0; r < serveSetupReps; r++ {
			if err := timeRestart(); err != nil {
				return err
			}
		}
	}
	rep.set("setup_s", median(setups), "s", len(setups))
	measured := outs[warm:]
	rep.attempted += total
	reportServe(measured, window, rep)
	rep.note("achieved %.1f requests/s (offered %.0f/s)", float64(len(measured))/window.Seconds(), serveRate)
	rep.note("open loop: %d requests at %.0f/s over %d connections after a %v warm-up, in %d segments; latency limit %v; datasets %d x n=%d d=%d k=%d; WAL sync off",
		len(measured), serveRate, serveConns, serveWarmup, serveBlocks, serveLimit, serveDatasets, serveN, serveD, serveK)
	reportCapacity(capOuts[:len(ksprPlan)], capOuts[len(ksprPlan):], rep)

	st.recheckHits()
	if cfg.trace {
		reportServeLayers(measured, rep)
		st.replayStore(records, cfg.out, tr)
		probe := &engineSet{spec: engineSpec{n: serveN, d: serveD, k: serveK}, records: records}
		if _, err := probe.open(rep); err != nil {
			return err
		}
		for j := range records {
			probe.focals = append(probe.focals, orders[j][:batchSize])
		}
		if err := probe.prepare(); err != nil {
			return err
		}
		probe.layers(4*time.Second, tr, rep)
		probe.check(cfg.seed, rep)
		return tr.writeSpans(cfg.spans, rep)
	}
	return nil
}

// openLoop issues count requests, the i-th due at start + i*interval, from
// a fixed set of workers. A request waits for a free worker when all are
// busy, so a stall delays the requests due after it, and do receives the
// due time to measure latency from.
func openLoop(start time.Time, interval time.Duration, count, workers int, do func(i int, due time.Time)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= count {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				do(i, due)
			}
		}()
	}
	wg.Wait()
}

// segmentWindow is the time from the first request's due time to the last answer.
func segmentWindow(outs []outcome) time.Duration {
	last := outs[0].done
	for _, o := range outs {
		if o.done.After(last) {
			last = o.done
		}
	}
	return last.Sub(outs[0].due)
}

// cycleLoop sends plan's requests in order from one caller, round after
// round, until budget has elapsed at the end of a round. It returns the
// outcomes of each plan entry, one per round.
func cycleLoop(budget time.Duration, plan []planned, do func(p planned) outcome) [][]outcome {
	outs := make([][]outcome, len(plan))
	start := time.Now()
	for time.Since(start) < budget {
		for i, p := range plan {
			outs[i] = append(outs[i], do(p))
		}
	}
	return outs
}

// zipfOrder is the order Zipf-distributed focals are drawn in: the
// k-skyband by attribute sum (best first), then every other record in a
// seeded random order. It also returns the size of the k-skyband.
func zipfOrder(recs [][]float64, rng *rand.Rand) ([]int, int) {
	db, err := kspr.Open(recs)
	if err != nil {
		panic(err) // generated records are always valid
	}
	sb := db.KSkyband(serveK)
	sum := func(id int) float64 {
		s := 0.0
		for _, v := range recs[id] {
			s += v
		}
		return s
	}
	sort.Slice(sb, func(a, b int) bool { return sum(sb[a]) > sum(sb[b]) || sum(sb[a]) == sum(sb[b]) && sb[a] < sb[b] })
	in := make(map[int]bool, len(sb))
	for _, id := range sb {
		in[id] = true
	}
	rest := make([]int, 0, len(recs)-len(sb))
	for id := range recs {
		if !in[id] {
			rest = append(rest, id)
		}
	}
	rng.Shuffle(len(rest), func(a, b int) { rest[a], rest[b] = rest[b], rest[a] })
	return append(sb, rest...), len(sb)
}

func makePlan(total int, mix []mixShare, orders [][]int, bands []int, rng *rand.Rand) []planned {
	zipf := rand.NewZipf(rng, serveZipfS, 1, uint64(serveN-1))
	// Classes come in shuffled blocks of 20 that hold the mix exactly, so
	// every run sends the same number of requests of each class.
	var block []string
	for _, m := range mix {
		for c := 0; c < m.pct/5; c++ {
			block = append(block, m.class)
		}
	}
	plan := make([]planned, total)
	for i := range plan {
		if i%len(block) == 0 {
			rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		}
		p := &plan[i]
		p.class = block[i%len(block)]
		p.ds = rng.Intn(len(orders))
		n := 1
		if p.class == "batch" {
			n = batchSize
		}
		for f := 0; f < n; f++ {
			r := int(zipf.Uint64())
			p.focals = append(p.focals, orders[p.ds][r])
			p.sky = p.sky || r < bands[p.ds]
		}
		if p.class == "mutate" {
			// Interior records: they rarely reach the k-skyband, so most
			// cached answers migrate to the new generation.
			p.values = []float64{0.6 * rng.Float64(), 0.6 * rng.Float64(), 0.6 * rng.Float64()}
			p.delete = rng.Intn(2) == 0
		}
	}
	return plan
}

// capacityPlans are the capacity blocks' requests: a kspr request for
// each of capacityFocals focals of each dataset, evenly spaced over the
// records outside its k-skyband in the Zipf order (one seeded draw from
// each of capacityFocals equal slices), and batch requests that hold each
// of those focals twice, in seeded groups of batchSize. Such a focal is
// dominated by k records, so its answer is empty and the cost of a hit is
// the serving path alone. On k-skyband focals the cost of a hit follows
// the size of the answer, and about half of them have an empty answer;
// how many, and how large the others are, differed from dataset to
// dataset enough that the rates moved by a tenth from seed to seed.
func capacityPlans(orders [][]int, bands []int, rng *rand.Rand) (kspr, batch []planned) {
	for ds, order := range orders {
		rest := order[bands[ds]:]
		focals := make([]int, capacityFocals)
		for i := range focals {
			focals[i] = rest[int((float64(i)+rng.Float64())*float64(len(rest))/capacityFocals)]
		}
		for _, f := range focals {
			kspr = append(kspr, planned{class: "kspr", ds: ds, focals: []int{f}})
		}
		for pass := 0; pass < 2; pass++ {
			fs := append([]int(nil), focals...)
			rng.Shuffle(len(fs), func(a, b int) { fs[a], fs[b] = fs[b], fs[a] })
			for i := 0; i+batchSize <= len(fs); i += batchSize {
				batch = append(batch, planned{class: "batch", ds: ds, focals: fs[i : i+batchSize]})
			}
		}
	}
	rng.Shuffle(len(kspr), func(a, b int) { kspr[a], kspr[b] = kspr[b], kspr[a] })
	rng.Shuffle(len(batch), func(a, b int) { batch[a], batch[b] = batch[b], batch[a] })
	return kspr, batch
}

func toCSV(recs [][]float64) string {
	var b strings.Builder
	b.WriteString("a1,a2,a3\n")
	for _, r := range recs {
		for c, v := range r {
			if c > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// serveStack is a self-hosted ksprd: the server package behind a loopback
// listener, with WAL-backed datasets.
type serveStack struct {
	srv  *server.Server
	hs   *http.Server
	base string
	done chan error
}

// restartProbe is the child process of one setup_s sample: it starts a
// server over the stores in dir and prints the seconds until its listener
// was up and how many datasets it recovered.
func restartProbe(dir string) error {
	t0 := time.Now()
	s, recovered, err := startStack(dir, nil, nil)
	if err != nil {
		return err
	}
	el := time.Since(t0)
	s.stop()
	fmt.Println(el.Seconds(), recovered)
	return nil
}

// startStack starts a server over the store directory dir, which recovers
// every dataset stored there, then loads csvs over HTTP. It returns how
// many datasets were recovered.
func startStack(dir string, csvs []string, client *http.Client) (*serveStack, int, error) {
	srv := server.NewServer(server.Config{StoreDir: dir})
	snaps, err := srv.RecoverDatasets()
	if err != nil {
		srv.Close()
		return nil, 0, fmt.Errorf("recovering stores: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, 0, err
	}
	s := &serveStack{srv: srv, hs: &http.Server{Handler: srv.Handler()}, base: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- s.hs.Serve(ln) }()
	for j, csv := range csvs {
		body, _ := json.Marshal(map[string]string{"name": fmt.Sprintf("bench%d", j), "csv": csv})
		status, raw, _, err := post(client, s.base+"/v1/datasets", body)
		if err != nil || status != http.StatusOK {
			s.stop()
			return nil, 0, fmt.Errorf("loading dataset %d: status %d %s: %v", j, status, raw, err)
		}
	}
	return s, len(snaps), nil
}

func (s *serveStack) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.hs.Shutdown(ctx)
	<-s.done
	s.srv.Close()
}

func post(client *http.Client, url string, body []byte) (int, []byte, http.Header, error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, resp.Header, err
}

type queryWire struct {
	Generation uint64          `json:"generation"`
	Regions    json.RawMessage `json:"regions"`
	Cached     bool            `json:"cached"`
	Trace      *struct {
		TotalMs float64 `json:"total_ms"`
	} `json:"trace"`
}

// do sends one planned request and checks its answer.
func (st *serveState) do(p planned, due time.Time, explain bool) outcome {
	o := outcome{class: p.class, sky: p.sky, due: due, explained: explain}
	name := st.names[p.ds]
	floor := st.floor[p.ds].Load()
	var url string
	var body []byte
	var mut kspr.Mutation
	switch p.class {
	case "kspr":
		url = st.base + "/v1/kspr"
		if explain {
			url += "?debug=trace"
		}
		body, _ = json.Marshal(map[string]any{"dataset": name, "focal": p.focals[0], "k": serveK})
	case "batch":
		qs := make([]map[string]int, len(p.focals))
		for i, f := range p.focals {
			qs[i] = map[string]int{"focal": f}
		}
		url = st.base + "/v1/kspr:batch"
		body, _ = json.Marshal(map[string]any{"dataset": name, "k": serveK, "queries": qs})
	case "mutate":
		url = st.base + "/v1/datasets/" + name + ":mutate"
		st.mu.Lock()
		if ids := st.pending[p.ds]; p.delete && len(ids) > 0 {
			mut = kspr.Delete(ids[len(ids)-1])
			st.pending[p.ds] = ids[:len(ids)-1]
			body, _ = json.Marshal(map[string]any{"op": "delete", "id": mut.ID})
		} else {
			mut = kspr.Insert(p.values...)
			body, _ = json.Marshal(map[string]any{"op": "insert", "values": p.values})
		}
		st.mu.Unlock()
	case "whatif":
		url = st.base + "/v1/whatif:frontier"
		body, _ = json.Marshal(map[string]any{"dataset": name, "focal": p.focals[0], "k": serveK,
			"attr": 0, "steps": 4, "samples": 2000})
	}
	o.sent = time.Now()
	status, raw, _, err := post(st.client, url, body)
	o.done = time.Now()
	o.status = status
	if err != nil || status != http.StatusOK {
		st.fail("%s %s: status %d: %v %.200s", p.class, name, status, err, raw)
		return o
	}
	switch p.class {
	case "kspr":
		var q queryWire
		if err := json.Unmarshal(raw, &q); err != nil {
			st.fail("kspr: decoding response: %v", err)
			return o
		}
		st.checkGen(p.ds, floor, q.Generation, "kspr")
		o.cached = q.Cached
		if q.Trace != nil {
			o.engineMs = q.Trace.TotalMs
		}
		if q.Cached {
			st.mu.Lock()
			if st.hitsSeen%hitCheckEvery == 0 {
				st.hits = append(st.hits, hitSample{ds: p.ds, focal: p.focals[0], gen: q.Generation, regions: q.Regions})
			}
			st.hitsSeen++
			st.mu.Unlock()
		}
	case "batch":
		seen := make([]int, len(p.focals))
		sc := bufio.NewScanner(bytes.NewReader(raw))
		sc.Buffer(nil, 64<<20)
		for sc.Scan() {
			var line struct {
				Index  int        `json:"index"`
				Error  string     `json:"error"`
				Result *queryWire `json:"result"`
			}
			if err := json.Unmarshal(sc.Bytes(), &line); err != nil || line.Index < 0 || line.Index >= len(seen) {
				st.fail("batch: bad line %.200s", sc.Bytes())
				return o
			}
			seen[line.Index]++
			if line.Result == nil {
				st.fail("batch item %d: %s", line.Index, line.Error)
				return o
			}
			st.checkGen(p.ds, floor, line.Result.Generation, "batch")
		}
		for i, n := range seen {
			if n != 1 {
				st.fail("batch item %d answered on %d lines", i, n)
				return o
			}
		}
		o.items = len(seen)
	case "mutate":
		var m struct {
			Generation      uint64  `json:"generation"`
			StoreGeneration uint64  `json:"store_generation"`
			IDs             []int64 `json:"ids"`
		}
		if err := json.Unmarshal(raw, &m); err != nil || len(m.IDs) != 1 {
			st.fail("mutate: bad response %.200s", raw)
			return o
		}
		st.checkGen(p.ds, floor, m.Generation, "mutate")
		st.mu.Lock()
		if mut.Op == kspr.OpInsert {
			st.pending[p.ds] = append(st.pending[p.ds], m.IDs[0])
		}
		st.muts = append(st.muts, loggedMutation{ds: p.ds, storeGen: m.StoreGeneration, mut: mut})
		st.mu.Unlock()
	case "whatif":
		var w struct {
			Generation uint64 `json:"generation"`
		}
		if err := json.Unmarshal(raw, &w); err != nil {
			st.fail("whatif: decoding response: %v", err)
			return o
		}
		st.checkGen(p.ds, floor, w.Generation, "whatif")
	}
	o.ok = true
	return o
}

// recheckHits recomputes cache hits with no_cache after the run and
// compares the regions byte for byte: the sampled hits whose generation is
// still current, then a fresh hit per dataset on the hottest focals.
func (st *serveState) recheckHits() {
	compared := 0
	fresh := func(ds, focal int, noCache bool) (*queryWire, bool) {
		body, _ := json.Marshal(map[string]any{"dataset": st.names[ds], "focal": focal, "k": serveK, "no_cache": noCache})
		status, raw, _, err := post(st.client, st.base+"/v1/kspr", body)
		st.rep.attempted++
		var q queryWire
		if err == nil && status == http.StatusOK {
			err = json.Unmarshal(raw, &q)
		}
		if err != nil || status != http.StatusOK {
			st.fail("cache recheck %s focal %d: status %d: %v", st.names[ds], focal, status, err)
			return nil, false
		}
		return &q, true
	}
	compare := func(h hitSample) {
		q, ok := fresh(h.ds, h.focal, true)
		if !ok || q.Generation != h.gen {
			return
		}
		compared++
		if !bytes.Equal(q.Regions, h.regions) {
			st.fail("cached answer for %s focal %d at generation %d differs from a recomputation", st.names[h.ds], h.focal, h.gen)
		}
	}
	for _, h := range st.hits {
		if h.gen == st.floor[h.ds].Load() {
			compare(h)
		}
	}
	for ds := range st.names {
		for _, h := range st.hits {
			if h.ds != ds {
				continue
			}
			// Ask twice so the second answer comes from the cache.
			fresh(ds, h.focal, false)
			if q, ok := fresh(ds, h.focal, false); ok && q.Cached {
				compare(hitSample{ds: ds, focal: h.focal, gen: q.Generation, regions: q.Regions})
			}
			break
		}
	}
	st.rep.note("cache hits recomputed and compared byte for byte: %d of %d hits seen", compared, st.hitsSeen)
}

// replayStore times store apply: each dataset's run of mutation batches is
// replayed, in store-generation order, on a fresh WAL-backed store holding
// the same records.
func (st *serveState) replayStore(records [][][]float64, out string, tr *tracer) {
	sort.Slice(st.muts, func(a, b int) bool { return st.muts[a].storeGen < st.muts[b].storeGen })
	var applyMs []float64
	for ds, recs := range records {
		db, err := kspr.OpenStore(filepath.Join(out, fmt.Sprintf("replay-%d", ds)))
		if err != nil {
			st.fail("replay: opening store: %v", err)
			continue
		}
		ins := make([]kspr.Mutation, len(recs))
		for i, r := range recs {
			ins[i] = kspr.Insert(r...)
		}
		if _, err := db.Apply(ins...); err != nil {
			st.fail("replay: loading records: %v", err)
		}
		for _, m := range st.muts {
			if m.ds != ds {
				continue
			}
			sp := tr.begin("kspr.DB.Apply", -1, "")
			t := time.Now()
			_, err := db.Apply(m.mut)
			applyMs = append(applyMs, ms(time.Since(t)))
			tr.end(sp)
			if err != nil {
				st.fail("replay: applying %v: %v", m.mut.Op, err)
			}
		}
		db.Close()
	}
	st.rep.set("store.apply_ms", median(applyMs), "ms", len(applyMs))
}

func reportServe(outs []outcome, window time.Duration, rep *report) {
	byClass := map[string][]float64{}
	var all, service, engineMiss []float64
	within, ksprGood, batchGood := 0, 0, 0
	for _, o := range outs {
		if !o.ok {
			continue
		}
		lat := ms(o.done.Sub(o.due))
		all = append(all, lat)
		byClass[o.class] = append(byClass[o.class], lat)
		if o.class == "kspr" {
			service = append(service, ms(o.done.Sub(o.sent)))
			if o.sky && !o.cached {
				engineMiss = append(engineMiss, ms(o.done.Sub(o.sent)))
			}
		}
		if o.done.Sub(o.due) <= serveLimit {
			within++
			switch o.class {
			case "kspr":
				ksprGood++
			case "batch":
				batchGood += o.items
			}
		}
	}
	// A kSPR request's own time, from send to the last byte. Cache hits
	// and misses on dominated focals both take about a millisecond and
	// make up about three quarters of the requests, so the median lies in
	// that group; misses on k-skyband focals, which run the cell tree, are
	// reported on their own.
	rep.set("query_p50_ms", median(service), "ms", len(service))
	rep.set("engine_miss_p50_ms", median(engineMiss), "ms", len(engineMiss))
	rep.setPercentile("query_p90_ms", service, 0.9)
	// Time spent waiting behind earlier requests shows in the due-time
	// latencies and in the goodput: answers within the limit per second
	// of the measured window, first due time to last answer.
	rep.set("kspr_goodput_per_s", float64(ksprGood)/window.Seconds(), "1/s", ksprGood)
	rep.set("batch_goodput_per_s", float64(batchGood)/window.Seconds(), "1/s", batchGood)
	rep.set("kspr_p50_ms", median(byClass["kspr"]), "ms", len(byClass["kspr"]))
	rep.set("within_limit_share", float64(within)/float64(len(outs)), "share", len(outs))
	rep.set("http_p50_ms", median(all), "ms", len(all))
	rep.setPercentile("http_p99_ms", all, 0.99)
	rep.setPercentile("kspr_p99_ms", byClass["kspr"], 0.99)
	rep.setPercentile("batch_p95_ms", byClass["batch"], 0.95)
	rep.setPercentile("mutate_p95_ms", byClass["mutate"], 0.95)
	rep.setPercentile("whatif_p95_ms", byClass["whatif"], 0.95)
}

// reportCapacity turns the capacity blocks into the gated rates: answers
// per second of one round's time, where a round's time is the sum over the
// round's requests of each one's median service time, send to last byte.
// A shared host stalls the process for milliseconds at a time, and a
// request of well under a millisecond that a stall hits takes it whole: a
// sum over all service times moved by a third with the stall time of the
// run. A
// median per request drops the stalls, and the sum weighs every request
// alike. queries_per_s is kspr cache hits, the serving path of decode,
// cache and encode; the engine workloads gate engine cost.
// batch_queries_per_s counts batch items.
func reportCapacity(ksprOuts, batchOuts [][]outcome, rep *report) {
	unanswered := false
	roundMs := func(outs [][]outcome) (sum float64, items, sent, hits int) {
		for _, row := range outs {
			var t []float64
			n := 1 // a kspr request answers one query
			for _, o := range row {
				sent++
				if !o.ok {
					continue
				}
				t = append(t, ms(o.done.Sub(o.sent)))
				n = max(n, o.items)
				if o.cached {
					hits++
				}
			}
			if len(t) == 0 {
				unanswered = true
				continue
			}
			sum += median(t)
			items += n
		}
		return sum, items, sent, hits
	}
	ksprMs, ksprN, ksprSent, ksprHits := roundMs(ksprOuts)
	batchMs, batchN, batchSent, _ := roundMs(batchOuts)
	rep.attempted += ksprSent + batchSent
	rounds := func(outs [][]outcome) int {
		if len(outs) == 0 {
			return 0
		}
		return len(outs[0])
	}
	rep.note("capacity, one caller: %d rounds of %d kspr requests (%d of %d answers cache hits), then %d rounds of %d batch requests (%d items)",
		rounds(ksprOuts), len(ksprOuts), ksprHits, ksprSent, rounds(batchOuts), len(batchOuts), batchN)
	if unanswered || ksprMs == 0 || batchMs == 0 {
		rep.fail("capacity blocks: a request was never answered")
		return
	}
	rep.set("queries_per_s", 1000*float64(ksprN)/ksprMs, "1/s", ksprSent)
	rep.set("batch_queries_per_s", 1000*float64(batchN)/batchMs, "1/s", batchSent)
}

func reportServeLayers(outs []outcome, rep *report) {
	var hit, miss, engine, outside, late []float64
	rejected := 0
	for _, o := range outs {
		late = append(late, ms(o.sent.Sub(o.due)))
		if o.status == http.StatusTooManyRequests {
			rejected++
		}
		if !o.ok || o.class != "kspr" {
			continue
		}
		service := ms(o.done.Sub(o.sent))
		switch {
		case o.explained:
			engine = append(engine, o.engineMs)
			outside = append(outside, service-o.engineMs)
		case o.cached:
			hit = append(hit, service)
		default:
			miss = append(miss, service)
		}
	}
	rep.set("server.cache_hit_share", float64(len(hit))/float64(max(len(hit)+len(miss), 1)), "share", len(hit)+len(miss))
	rep.set("server.hit_p50_ms", median(hit), "ms", len(hit))
	rep.set("server.miss_p50_ms", median(miss), "ms", len(miss))
	rep.set("server.engine_ms", median(engine), "ms", len(engine))
	rep.set("server.outside_engine_ms", median(outside), "ms", len(outside))
	rep.set("server.reject_429_share", float64(rejected)/float64(len(outs)), "share", len(outs))
	rep.setPercentile("loadgen.late_p99_ms", late, 0.99)
}
