package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/rtree"
)

// engineSpec describes a library workload: one caller in a closed loop of
// serial DB.KSPR calls over a fixed focal set, the focals of each dataset
// followed by one KSPRBatch call over them at parallelism 2.
type engineSpec struct {
	n, d, k  int
	datasets int
	// skyband and uniform are the focals per dataset drawn from the
	// band-skyband and from all records; see pickFocals.
	skyband, uniform int
	band             int
	// chunk is about how many of a dataset's focals one loop step takes;
	// 0 takes them all.
	chunk int
	// setupReps is how many rounds of opens setup_s is the median of.
	setupReps int
}

const (
	// minSerial is the number of serial answers a -trace 0 run times at
	// least, so that query_p90_ms has 10 samples beyond it.
	minSerial = 100
)

// expandSpec spreads its focals over many small datasets, two each: how
// long one n=1e3 dataset's queries take depends so much on its shape that
// a single dataset per run would make runs with different seeds differ by
// more than any bound. A run reaches only the datasets its time allows.
//
// Its focals come from the skyline. About half of the 2-skyband is
// dominated by one record, and most of those focals have an empty answer,
// which takes less time to find. With focals from the whole 2-skyband the
// median fell between the two kinds and moved by a fifth across seeds.
var expandSpec = engineSpec{n: 1000, d: 4, k: 2, datasets: 400, skyband: 2, band: 1, setupReps: 9}

// dominanceSpec has one dataset; its 100 focals are taken 20 per step.
// A third come from the k-skyband rather than half: skyband focals cost
// several times more, and with an even split the median would fall in
// the gap between the two groups and jump from run to run.
var dominanceSpec = engineSpec{n: 1_000_000, d: 3, k: 5, datasets: 1, skyband: 34, uniform: 66, band: 5, chunk: 20, setupReps: 3}

// engineSet is a workload's opened datasets and focals.
type engineSet struct {
	spec    engineSpec
	records [][][]float64
	dbs     []*kspr.DB
	focals  [][]int
	steps   []step
	// serial holds each focal's first answer, for the checks.
	serial [][]*kspr.Result
	enc    [][][]byte
}

// step is one turn of the closed loop: the focals of dataset ds at the
// given positions of its focal list.
type step struct {
	ds  int
	idx []int
}

// passStats accumulates the dataset steps of the closed loop.
type passStats struct {
	steps      int
	serialMs   []float64
	serialTime time.Duration
	batchItems int
	batchTime  time.Duration
	// traced runs only
	phases   map[string][]float64
	unattrMs []float64
	wallMs   float64
	allocKB  []float64
	allocs   []float64
	stats    []kspr.Stats
	gcCycles uint32
}

var enginePhases = []string{core.PhaseDominance, core.PhaseSkyband, core.PhaseExpand,
	core.PhaseRankBounds, core.PhasePivots, core.PhaseFinalize}

func runEngine(spec engineSpec, cfg runConfig, rep *report) error {
	rng := rand.New(rand.NewSource(cfg.seed))
	set := &engineSet{spec: spec}
	var stages []string
	t := time.Now()
	stage := func(name string) {
		stages = append(stages, fmt.Sprintf("%s %.1fs", name, time.Since(t).Seconds()))
		t = time.Now()
	}
	for j := 0; j < spec.datasets; j++ {
		ds, err := dataset.Generate(dataset.Independent, spec.n, spec.d, cfg.seed*1_000_003+int64(j))
		if err != nil {
			return err
		}
		set.records = append(set.records, flatten(ds.Float64s()))
	}
	stage("generate")
	setup, err := set.open(rep)
	if err != nil {
		return err
	}
	rep.set("setup_s", setup, "s", spec.setupReps)
	stage("open")
	for j, db := range set.dbs {
		set.focals = append(set.focals, pickFocals(db, set.records[j], spec, rng))
	}
	if err := set.prepare(); err != nil {
		return err
	}
	// Start measuring from a collected heap, so garbage left by set-up
	// does not land in the first queries.
	runtime.GC()
	stage("pick focals")
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
		set.reportEndToEnd(set.layers(cfg.seconds, tr, rep), rep)
		for _, name := range []string{"server.cache_hit_share", "server.hit_p50_ms", "server.miss_p50_ms",
			"server.engine_ms", "server.outside_engine_ms", "server.reject_429_share", "store.apply_ms", "loadgen.late_p99_ms"} {
			rep.set(name, 0, "", 0)
		}
	} else {
		plain := set.loop(cfg.seconds, minSerial, 0, nil, rep)
		set.reportEndToEnd(plain, rep)
		rep.setPercentile("query_p90_ms", plain.serialMs, 0.9)
	}
	stage("measure")
	set.check(cfg.seed, rep)
	stage("check")
	rep.note("stages: %s", strings.Join(stages, ", "))
	if tr != nil {
		return tr.writeSpans(cfg.spans, rep)
	}
	return nil
}

// open opens every dataset spec.setupReps times and returns the median
// time to open them all. The last set of handles is kept.
func (s *engineSet) open(rep *report) (float64, error) {
	var setups, perDB []float64
	for r := 0; r < max(s.spec.setupReps, 1); r++ {
		s.dbs = nil
		runtime.GC()
		start := time.Now()
		for _, recs := range s.records {
			t := time.Now()
			db, err := kspr.Open(recs)
			if err != nil {
				return 0, fmt.Errorf("kspr.Open: %w", err)
			}
			perDB = append(perDB, ms(time.Since(t)))
			s.dbs = append(s.dbs, db)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	rep.set("kspr.open_ms", median(perDB), "ms", len(perDB))
	return median(setups), nil
}

// prepare plans the loop steps, allocates the answer slots and runs one
// untimed query, so lazy set-up finishes before timing.
func (s *engineSet) prepare() error {
	for j, f := range s.focals {
		s.serial = append(s.serial, make([]*kspr.Result, len(f)))
		s.enc = append(s.enc, make([][]byte, len(f)))
		// Steps take every n-th focal, not consecutive ones: the focal list
		// runs from cheap to dear, and a run that stops after some of the
		// steps must still have timed a representative mix.
		n := 1
		if s.spec.chunk > 0 {
			n = (len(f) + s.spec.chunk - 1) / s.spec.chunk
		}
		for t := 0; t < n; t++ {
			st := step{ds: j}
			for i := t; i < len(f); i += n {
				st.idx = append(st.idx, i)
			}
			s.steps = append(s.steps, st)
		}
	}
	if _, err := s.dbs[0].KSPR(s.focals[0][0], s.spec.k, kspr.WithParallelism(1)); err != nil {
		return fmt.Errorf("warm-up query: %w", err)
	}
	return nil
}

func (s *engineSet) reportEndToEnd(ps *passStats, rep *report) {
	rep.set("query_p50_ms", median(ps.serialMs), "ms", len(ps.serialMs))
	rep.set("queries_per_s", float64(len(ps.serialMs))/ps.serialTime.Seconds(), "1/s", len(ps.serialMs))
	rep.set("batch_queries_per_s", float64(ps.batchItems)/ps.batchTime.Seconds(), "1/s", ps.batchItems)
	rep.note("closed loop, one caller: %d steps, %d serial answers, %d batch items (%d datasets n=%d d=%d k=%d, %d focals)",
		ps.steps, len(ps.serialMs), ps.batchItems, len(s.dbs), s.spec.n, s.spec.d, s.spec.k, s.focalCount())
}

// layers is the traced run: an untraced loop for half the budget, then the
// same dataset steps again with tracing on, then the index-layer probes.
// Comparing the two loops gives the tracing overhead. It returns the
// untraced loop.
func (s *engineSet) layers(budget time.Duration, tr *tracer, rep *report) *passStats {
	plain := s.loop(budget/2, 0, 0, nil, rep)
	traced := s.loop(0, 0, plain.steps, tr, rep)
	perQuery := func(ps *passStats) float64 { return ps.serialTime.Seconds() / float64(len(ps.serialMs)) }
	rep.set("obs.trace_overhead_share", perQuery(traced)/perQuery(plain)-1, "share", len(traced.serialMs))
	rep.set("core.batch_vs_serial_ratio", (plain.batchTime.Seconds()/float64(plain.batchItems))/perQuery(plain),
		"ratio", plain.batchItems)
	reportEngineLayers(traced, rep)
	s.probeRtree(tr, rep)
	return plain
}

// flatten copies records into one backing array, so the benchmark's copy
// of a large dataset is two objects for the garbage collector, not n.
func flatten(recs [][]float64) [][]float64 {
	if len(recs) == 0 {
		return nil
	}
	d := len(recs[0])
	flat := make([]float64, 0, len(recs)*d)
	out := make([][]float64, len(recs))
	for i, r := range recs {
		flat = append(flat, r...)
		out[i] = flat[i*d : (i+1)*d : (i+1)*d]
	}
	return out
}

func (s *engineSet) focalCount() int {
	n := 0
	for _, f := range s.focals {
		n += len(f)
	}
	return n
}

// pickFocals returns the spec's focal set for one dataset: spec.skyband
// focals evenly spaced over the spec.band-skyband, then spec.uniform evenly spaced
// over all records, both ordered by attribute product. For independent
// attributes the product is the share of records a focal dominates, which
// is what its dominance work grows with. Evenly spaced means one seeded
// draw from each of the equal slices of the order. Each slice gets its own
// draw: one offset shared by all slices would move every focal the same
// way and make whole runs cheaper or dearer.
func pickFocals(db *kspr.DB, recs [][]float64, spec engineSpec, rng *rand.Rand) []int {
	prod := make([]float64, len(recs))
	for i, r := range recs {
		prod[i] = 1
		for _, v := range r {
			prod[i] *= v
		}
	}
	spaced := func(ids []int, m int) []int {
		sort.Slice(ids, func(a, b int) bool {
			pa, pb := prod[ids[a]], prod[ids[b]]
			return pa < pb || pa == pb && ids[a] < ids[b]
		})
		out := make([]int, m)
		for i := range out {
			out[i] = ids[int((float64(i)+rng.Float64())*float64(len(ids))/float64(m))]
		}
		return out
	}
	var sky, uni []int
	if spec.skyband > 0 {
		sky = spaced(db.KSkyband(spec.band), spec.skyband)
	}
	if spec.uniform > 0 {
		all := make([]int, len(recs))
		for i := range all {
			all[i] = i
		}
		uni = spaced(all, spec.uniform)
	}
	// Interleave the two kinds evenly, so every loop step gets the same mix.
	type keyed struct {
		key float64
		id  int
	}
	var all []keyed
	for _, ids := range [][]int{sky, uni} {
		for i, id := range ids {
			all = append(all, keyed{(float64(i) + 0.5) / float64(len(ids)), id})
		}
	}
	sort.SliceStable(all, func(a, b int) bool { return all[a].key < all[b].key })
	focals := make([]int, len(all))
	for i, k := range all {
		focals[i] = k.id
	}
	return focals
}

// loop runs the planned steps in turn, cycling: each step times its
// focals one by one with DB.KSPR, then answers the same focals with one
// KSPRBatch call at parallelism 2. It stops once budget has
// elapsed and minSerial serial answers were timed or, when steps > 0,
// after exactly that many steps. A non-nil tracer turns on the engine's
// phase trace, allocation counts and spans. Answers are kept or compared
// outside the timed calls.
func (s *engineSet) loop(budget time.Duration, minSerial, steps int, tr *tracer, rep *report) *passStats {
	ps := &passStats{phases: map[string][]float64{}}
	var ms0, ms1 runtime.MemStats
	traced := tr != nil
	runtime.ReadMemStats(&ms0)
	gc0 := ms0.NumGC
	start := time.Now()
	for {
		if steps > 0 && ps.steps == steps ||
			steps == 0 && ps.steps > 0 && time.Since(start) >= budget && len(ps.serialMs) >= minSerial {
			break
		}
		st := s.steps[ps.steps%len(s.steps)]
		j, db := st.ds, s.dbs[st.ds]
		step := tr.begin("bench.step", -1, fmt.Sprintf("s%d", ps.steps))
		for _, i := range st.idx {
			f := s.focals[j][i]
			opts := []kspr.QueryOption{kspr.WithParallelism(1)}
			var qt *kspr.Trace
			if traced {
				qt = kspr.NewTrace()
				opts = append(opts, kspr.WithTrace(qt))
				runtime.ReadMemStats(&ms0)
			}
			sp := tr.begin("kspr.DB.KSPR", step, fmt.Sprintf("s%d-f%d", ps.steps, f))
			t := time.Now()
			res, err := db.KSPR(f, s.spec.k, opts...)
			el := time.Since(t)
			tr.end(sp)
			rep.attempted++
			if err != nil {
				rep.fail("KSPR(dataset %d, focal %d): %v", j, f, err)
				continue
			}
			ps.serialMs = append(ps.serialMs, ms(el))
			ps.serialTime += el
			if traced {
				runtime.ReadMemStats(&ms1)
				ps.record(qt, el, res.Stats, ms0, ms1)
			}
			s.keep(j, i, res, rep)
		}
		qs := make([]kspr.BatchQuery, len(st.idx))
		for n, i := range st.idx {
			qs[n] = kspr.BatchQuery{FocalID: s.focals[j][i]}
		}
		sp := tr.begin("kspr.DB.KSPRBatch", step, fmt.Sprintf("s%d-batch", ps.steps))
		t := time.Now()
		outs, err := db.KSPRBatch(qs, s.spec.k, kspr.WithBatchOptions(kspr.WithParallelism(2)))
		el := time.Since(t)
		tr.end(sp)
		tr.end(step)
		ps.steps++
		rep.attempted += len(qs)
		if err != nil {
			rep.failed += len(qs) - 1
			rep.fail("KSPRBatch(dataset %d): %v", j, err)
			continue
		}
		ps.batchItems += len(qs)
		ps.batchTime += el
		for n, o := range outs {
			i := st.idx[n]
			if o.Err != nil {
				rep.fail("KSPRBatch(dataset %d) item %d: %v", j, i, o.Err)
			} else if s.enc[j][i] != nil && !bytes.Equal(core.EncodeResult(o.Result), s.enc[j][i]) {
				rep.fail("KSPRBatch(dataset %d) item %d differs from the serial answer", j, i)
			}
		}
	}
	runtime.ReadMemStats(&ms1)
	ps.gcCycles = ms1.NumGC - gc0
	return ps
}

// keep stores a focal's first answer and checks later ones against it.
func (s *engineSet) keep(j, i int, res *kspr.Result, rep *report) {
	enc := core.EncodeResult(res)
	if s.enc[j][i] == nil {
		s.serial[j][i], s.enc[j][i] = res, enc
	} else if !bytes.Equal(enc, s.enc[j][i]) {
		rep.fail("KSPR(dataset %d, focal %d) answered differently on a later pass", j, s.focals[j][i])
	}
}

// record adds one traced query's phase times, allocations and counters.
func (ps *passStats) record(qt *kspr.Trace, wall time.Duration, st kspr.Stats, before, after runtime.MemStats) {
	got := map[string]float64{}
	var sum float64
	for _, p := range qt.Phases() {
		got[p.Name] += ms(p.Duration())
		sum += ms(p.Duration())
	}
	for _, name := range enginePhases {
		ps.phases[name] = append(ps.phases[name], got[name])
	}
	ps.unattrMs = append(ps.unattrMs, ms(wall)-sum)
	ps.wallMs += ms(wall)
	ps.allocKB = append(ps.allocKB, float64(after.TotalAlloc-before.TotalAlloc)/1024)
	ps.allocs = append(ps.allocs, float64(after.Mallocs-before.Mallocs))
	ps.stats = append(ps.stats, st)
}

// reportEngineLayers turns a traced loop into the core.* and counter
// metrics (medians per query) and notes each phase's share of wall time.
func reportEngineLayers(ps *passStats, rep *report) {
	n := len(ps.serialMs)
	shares := ""
	for _, name := range enginePhases {
		rep.set("core."+name+"_ms", median(ps.phases[name]), "ms", n)
		shares += fmt.Sprintf(" %s %.1f%%", name, 100*sumOf(ps.phases[name])/ps.wallMs)
	}
	rep.set("core.unattributed_ms", median(ps.unattrMs), "ms", n)
	rep.set("core.unattributed_share", sumOf(ps.unattrMs)/ps.wallMs, "share", n)
	rep.note("traced query wall %.1f ms over %d queries; share of wall:%s unattributed %.1f%%",
		ps.wallMs, n, shares, 100*sumOf(ps.unattrMs)/ps.wallMs)
	rep.set("core.alloc_kb_per_query", median(ps.allocKB), "KB", n)
	rep.set("core.allocs_per_query", median(ps.allocs), "count", n)
	rep.set("go.gc_cycles", float64(ps.gcCycles), "count", n)
	col := func(f func(kspr.Stats) int) []float64 {
		out := make([]float64, len(ps.stats))
		for i, st := range ps.stats {
			out[i] = float64(f(st))
		}
		return out
	}
	rep.set("core.processed_records", median(col(func(s kspr.Stats) int { return s.ProcessedRecords })), "count", n)
	rep.set("celltree.nodes", median(col(func(s kspr.Stats) int { return s.CellTreeNodes })), "count", n)
	rep.set("celltree.feasibility_tests", median(col(func(s kspr.Stats) int { return s.FeasibilityTests })), "count", n)
	rep.set("lp.solves", median(col(func(s kspr.Stats) int { return s.LPSolves })), "count", n)
	rep.set("lp.pivots", median(col(func(s kspr.Stats) int { return s.LPPivots })), "count", n)
	rep.set("core.cells_pruned", median(col(func(s kspr.Stats) int { return s.CellsPruned })), "count", n)
	rep.set("core.regions", median(col(func(s kspr.Stats) int { return s.Regions })), "count", n)
	decided := sumOf(col(func(s kspr.Stats) int { return s.EarlyReported + s.EarlyPruned }))
	cells := sumOf(col(func(s kspr.Stats) int { return s.RankBoundCells }))
	share := 0.0
	if cells > 0 {
		share = decided / cells
	}
	rep.set("core.early_decided_share", share, "share", int(cells))
}

func sumOf(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// probeRtree times the index layer directly on an rtree.Build of each
// dataset's records: the build, the k-skyband, and the three dominance
// queries for every focal.
func (s *engineSet) probeRtree(tr *tracer, rep *report) {
	var build, sky, skySize, doms, domBy, eq, nDoms, nDomBy []float64
	for j, recs := range s.records {
		vecs := make([]geom.Vector, len(recs))
		for i, r := range recs {
			vecs[i] = r
		}
		runtime.GC()
		sp := tr.begin("rtree.Build", -1, "")
		t := time.Now()
		tree, err := rtree.Build(vecs)
		build = append(build, ms(time.Since(t)))
		tr.end(sp)
		if err != nil {
			rep.fail("rtree.Build(dataset %d): %v", j, err)
			continue
		}
		for r := 0; r < 3; r++ {
			sp := tr.begin("rtree.KSkyband", -1, "")
			t := time.Now()
			ids := tree.KSkyband(s.spec.k, nil)
			sky = append(sky, ms(time.Since(t)))
			tr.end(sp)
			skySize = append(skySize, float64(len(ids)))
		}
		for _, f := range s.focals[j] {
			p := tree.Records[f]
			self := func(id int) bool { return id == f }
			timed := func(name string, q func(geom.Vector, rtree.ExcludeFunc) []int, into *[]float64) int {
				sp := tr.begin(name, -1, fmt.Sprintf("d%d-f%d", j, f))
				t := time.Now()
				ids := q(p, self)
				*into = append(*into, ms(time.Since(t)))
				tr.end(sp)
				return len(ids)
			}
			nDoms = append(nDoms, float64(timed("rtree.Dominators", tree.Dominators, &doms)))
			nDomBy = append(nDomBy, float64(timed("rtree.DominatedBy", tree.DominatedBy, &domBy)))
			timed("rtree.EqualTo", tree.EqualTo, &eq)
		}
	}
	rep.set("rtree.build_ms", median(build), "ms", len(build))
	rep.set("rtree.kskyband_ms", median(sky), "ms", len(sky))
	rep.set("rtree.kskyband_size", median(skySize), "count", len(skySize))
	rep.set("rtree.dominators_ms", median(doms), "ms", len(doms))
	rep.set("rtree.dominated_by_ms", median(domBy), "ms", len(domBy))
	rep.set("rtree.equal_to_ms", median(eq), "ms", len(eq))
	rep.set("rtree.dominator_ids", median(nDoms), "count", len(nDoms))
	rep.set("rtree.dominated_ids", median(nDomBy), "count", len(nDomBy))
}

// check verifies every kept answer outside the timed loop: weights sampled
// inside each region must rank the focal within k, and random weights that
// rank it within k must fall in some region.
func (s *engineSet) check(seed int64, rep *report) {
	type job struct{ j, i int }
	var jobs []job
	for j := range s.dbs {
		for i, res := range s.serial[j] {
			if res != nil {
				jobs = append(jobs, job{j, i})
			}
		}
	}
	// Two checkers: at n=1e6 every DB.Rank call scans the whole dataset.
	errs := make([]error, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				n := int(next.Add(1) - 1)
				if n >= len(jobs) {
					return
				}
				jb := jobs[n]
				rng := rand.New(rand.NewSource(seed*7919 + int64(n)))
				errs[n] = checkAnswer(s.dbs[jb.j], s.focals[jb.j][jb.i], s.spec.k, s.serial[jb.j][jb.i], rng)
			}
		}()
	}
	wg.Wait()
	for n, err := range errs {
		if err != nil {
			rep.fail("dataset %d focal %d: %v", jobs[n].j, s.focals[jobs[n].j][jobs[n].i], err)
		}
	}
}

const (
	checkRegions = 3 // regions sampled per answer, two weights each
	checkRandom  = 6 // random weight vectors per answer
)

func checkAnswer(db *kspr.DB, focal, k int, res *kspr.Result, rng *rand.Rand) error {
	d := db.Dim()
	lift := func(w []float64) []float64 {
		full := append(append([]float64(nil), w...), 0)
		full[d-1] = 1 - geom.Vector(w).Sum()
		return full
	}
	step := max(1, len(res.Regions)/checkRegions)
	for r := 0; r < len(res.Regions); r += step {
		reg := &res.Regions[r]
		for s := 0; s < 2; s++ {
			w := append([]float64(nil), reg.Witness...)
			if s == 1 && len(reg.Vertices) > 0 {
				// Halfway between the witness and a random convex
				// combination of the vertices: still strictly inside.
				mix := make([]float64, len(w))
				var total float64
				for _, v := range reg.Vertices {
					a := rng.Float64()
					total += a
					for c := range mix {
						mix[c] += a * v[c]
					}
				}
				for c := range w {
					w[c] = 0.5*w[c] + 0.5*mix[c]/total
				}
			}
			if rank := db.Rank(focal, lift(w)); rank > k {
				return fmt.Errorf("region %d: sampled weight %v ranks the focal %d > k=%d", r, w, rank, k)
			}
		}
	}
	for s := 0; s < checkRandom; s++ {
		w := make([]float64, d)
		var sum float64
		for c := range w {
			w[c] = rng.ExpFloat64() + 1e-12
			sum += w[c]
		}
		for c := range w {
			w[c] /= sum
		}
		if db.Rank(focal, w) <= k && !res.ContainsWeight(w[:d-1], 1e-7) {
			return fmt.Errorf("weight %v ranks the focal within k=%d but lies in no region", w, k)
		}
	}
	return nil
}
