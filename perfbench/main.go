// Command perfbench is the repository's benchmark. It runs one named
// workload against the kspr library or a self-hosted ksprd server stack,
// checks every answer it times, and prints one JSON result line.
//
//	perfbench -workload expand-n1e3 -seed 1 -seconds 20 -trace 0
//
// With -trace 0 it reports the end-to-end metrics; with -trace 1 it makes
// a separate traced run and reports the per-layer metrics. A human-readable
// report (every metric with its unit and sample count) precedes the JSON
// line. See README.md for the workloads and what each metric means.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metricDef names a metric the JSON result line carries.
type metricDef struct{ name, unit string }

// endToEnd are reported by every workload with -trace 0.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"query_p50_ms", "ms"},
	{"queries_per_s", "1/s"},
	{"batch_queries_per_s", "1/s"},
}

// perLayer are reported by every workload with -trace 1. A layer the
// workload does not load reports 0 with a sample count of 0.
var perLayer = []metricDef{
	{"core.dominance_ms", "ms"},
	{"core.skyband_ms", "ms"},
	{"core.expand_ms", "ms"},
	{"core.rank_bounds_ms", "ms"},
	{"core.pivot_check_ms", "ms"},
	{"core.finalize_ms", "ms"},
	{"core.unattributed_ms", "ms"},
	{"core.unattributed_share", "share"},
	{"core.alloc_kb_per_query", "KB"},
	{"core.allocs_per_query", "count"},
	{"go.gc_cycles", "count"},
	{"core.processed_records", "count"},
	{"celltree.nodes", "count"},
	{"celltree.feasibility_tests", "count"},
	{"lp.solves", "count"},
	{"lp.pivots", "count"},
	{"core.early_decided_share", "share"},
	{"core.cells_pruned", "count"},
	{"core.regions", "count"},
	{"core.batch_vs_serial_ratio", "ratio"},
	{"rtree.dominators_ms", "ms"},
	{"rtree.dominated_by_ms", "ms"},
	{"rtree.equal_to_ms", "ms"},
	{"rtree.dominator_ids", "count"},
	{"rtree.dominated_ids", "count"},
	{"rtree.kskyband_ms", "ms"},
	{"rtree.kskyband_size", "count"},
	{"rtree.build_ms", "ms"},
	{"kspr.open_ms", "ms"},
	{"server.cache_hit_share", "share"},
	{"server.hit_p50_ms", "ms"},
	{"server.miss_p50_ms", "ms"},
	{"server.engine_ms", "ms"},
	{"server.outside_engine_ms", "ms"},
	{"server.reject_429_share", "share"},
	{"store.apply_ms", "ms"},
	{"loadgen.late_p99_ms", "ms"},
	{"obs.trace_overhead_share", "share"},
}

// runConfig is what every workload receives.
type runConfig struct {
	seed    int64
	seconds time.Duration
	trace   bool
	out     string // scratch directory for temporary stores, removed at exit
	spans   string // where a traced run writes its spans
}

var workloads = map[string]func(runConfig, *report) error{
	"expand-n1e3":    func(c runConfig, r *report) error { return runEngine(expandSpec, c, r) },
	"dominance-n1e6": func(c runConfig, r *report) error { return runEngine(dominanceSpec, c, r) },
	"serve-mixed":    runServe,
}

func main() {
	workload := flag.String("workload", "", "workload name: expand-n1e3, dominance-n1e6 or serve-mixed")
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 20, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 makes a traced run that reports the per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for spans and temporary stores")
	restartStore := flag.String("restart-store", "", "serve-mixed runs this in a child process for each setup_s sample: time one server start over the stores in this directory")
	flag.Parse()
	if *restartStore != "" {
		if err := restartProbe(*restartStore); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: restart: %v\n", err)
			os.Exit(1)
		}
		return
	}
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *workload, *seconds, *trace)
		os.Exit(2)
	}
	cfg := runConfig{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1}
	dir, err := os.MkdirTemp(*out, "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	cfg.out = dir
	cfg.spans = filepath.Join(*out, fmt.Sprintf("spans-%s-%d.json", *workload, *seed))
	rep := newReport()
	rep.note("workload %s seed %d seconds %d trace %d; %s, nproc %d, GOMAXPROCS %d",
		*workload, *seed, *seconds, *trace, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0))
	err = run(cfg, rep)
	os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	if rss, err := peakRSSMB(); err == nil {
		rep.set("peak_rss_mb", rss, "MB", 1)
	} else {
		rep.fail("peak_rss_mb: %v", err)
	}
	if rep.attempted > 0 {
		rep.note("error_share %.6f (%d of %d operations failed, were refused or answered wrongly)",
			float64(rep.failed)/float64(rep.attempted), rep.failed, rep.attempted)
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	printResult(rep, defs)
}

func printResult(rep *report, defs []metricDef) {
	for _, n := range rep.notes {
		fmt.Println(n)
	}
	for _, w := range rep.wrong {
		fmt.Println("FAILED:", w)
	}
	names := make([]string, 0, len(rep.metrics))
	for name := range rep.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := rep.metrics[name]
		fmt.Printf("%-28s %14.4f %-6s n=%d\n", name, m.Value, m.Unit, m.N)
	}
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]jsonMetric{}
	for _, d := range defs {
		m, ok := rep.metrics[d.name]
		if !ok {
			rep.fail("metric %s was not measured", d.name)
		}
		out[d.name] = jsonMetric{Value: m.Value, Unit: d.unit}
	}
	line, _ := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{rep.failed == 0, max(rep.attempted, 1), rep.failed, out})
	fmt.Println(string(line))
}
