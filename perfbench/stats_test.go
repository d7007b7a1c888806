package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"sort"
	"sync"
	"testing"
	"time"
)

func TestPercentileRefusesTooFewSamplesBeyond(t *testing.T) {
	xs := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i) // unsorted on purpose
		}
		return out
	}
	for _, tc := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{100, 0.9, 90, true},
		{99, 0.9, 0, false},
		{1000, 0.99, 990, true},
		{999, 0.99, 0, false},
		{200, 0.95, 190, true},
		{199, 0.95, 0, false},
		{0, 0.5, 0, false},
	} {
		got, err := percentile(xs(tc.n), tc.p)
		if (err == nil) != tc.ok {
			t.Errorf("percentile(n=%d, p=%g): err = %v, want ok=%v", tc.n, tc.p, err, tc.ok)
		}
		if tc.ok && got != tc.want {
			t.Errorf("percentile(n=%d, p=%g) = %g, want %g", tc.n, tc.p, got, tc.want)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %g", got)
	}
}

// A stall in one request must show up in the latency of the requests due
// after it, because latency is measured from when each request was due.
func TestOpenLoopChargesStallToLaterRequests(t *testing.T) {
	const (
		count    = 12
		interval = 2 * time.Millisecond
		stall    = 80 * time.Millisecond
	)
	var mu sync.Mutex
	lat := make([]time.Duration, count)
	start := time.Now().Add(5 * time.Millisecond)
	openLoop(start, interval, count, 1, func(i int, due time.Time) {
		if want := start.Add(time.Duration(i) * interval); !due.Equal(want) {
			t.Errorf("request %d due %v, want %v", i, due, want)
		}
		if i == 3 {
			time.Sleep(stall)
		}
		mu.Lock()
		lat[i] = time.Since(due)
		mu.Unlock()
	})
	if lat[0] > stall/2 {
		t.Errorf("request 0 latency %v before any stall", lat[0])
	}
	// Request 4 was due 2ms after request 3 started, so it waited out
	// nearly all of the stall.
	if min := stall - 2*interval - time.Millisecond; lat[4] < min {
		t.Errorf("request 4 latency %v, want >= %v: the stall was not charged", lat[4], min)
	}
	for i := 5; i < count; i++ {
		if lat[i] > lat[i-1] {
			t.Errorf("backlog grew after the stall: request %d latency %v > %v", i, lat[i], lat[i-1])
		}
	}
}

// The capacity loop must run whole rounds of its plan and stop at the
// end of the round in which its budget elapsed.
func TestCycleLoopRunsWholeRounds(t *testing.T) {
	const (
		budget = 40 * time.Millisecond
		cost   = time.Millisecond
	)
	plan := make([]planned, 7)
	start := time.Now()
	outs := cycleLoop(budget, plan, func(p planned) outcome {
		time.Sleep(cost)
		return outcome{ok: true}
	})
	elapsed := time.Since(start)
	if len(outs) != len(plan) {
		t.Fatalf("%d outcome rows for a plan of %d", len(outs), len(plan))
	}
	rounds := len(outs[0])
	for i, row := range outs {
		if len(row) != rounds {
			t.Errorf("plan entry %d sent %d times, entry 0 %d times", i, len(row), rounds)
		}
	}
	// A round takes at least 7ms, so 40ms holds at most 6 rounds; scheduling
	// may stretch a sleep, never shorten it.
	if rounds < 1 || rounds > int(budget/(cost*time.Duration(len(plan))))+1 {
		t.Errorf("ran %d rounds of %v in a %v budget", rounds, cost*time.Duration(len(plan)), budget)
	}
	if elapsed < budget || elapsed > budget+10*cost*time.Duration(len(plan)) {
		t.Errorf("returned after %v, want soon after the %v budget", elapsed, budget)
	}
}

// A stall that hits one request in one round must not move the capacity
// rate, which sums each request's median service time.
func TestCapacityRateIgnoresAStall(t *testing.T) {
	rows := func(stall time.Duration, items int) [][]outcome {
		base := time.Unix(0, 0)
		outs := make([][]outcome, 4)
		for i := range outs {
			for r := 0; r < 5; r++ {
				d := time.Duration(i+1) * time.Millisecond
				if r == 2 && i == 1 {
					d += stall
				}
				outs[i] = append(outs[i], outcome{ok: true, cached: true, items: items, sent: base, done: base.Add(d)})
			}
		}
		return outs
	}
	rate := func(stall time.Duration) (float64, float64) {
		rep := newReport()
		reportCapacity(rows(stall, 0), rows(stall, 4), rep)
		return rep.metrics["queries_per_s"].Value, rep.metrics["batch_queries_per_s"].Value
	}
	q0, b0 := rate(0)
	q1, b1 := rate(50 * time.Millisecond)
	// Medians 1+2+3+4 = 10ms per round: 4 queries, or 16 batch items.
	if q0 != 400 || b0 != 1600 {
		t.Errorf("rates %g and %g, want 400 and 1600", q0, b0)
	}
	if q1 != q0 || b1 != b0 {
		t.Errorf("a stall moved the rates from %g, %g to %g, %g", q0, b0, q1, b1)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "child", Start: 10, End: 40, Parent: 0},
		{Name: "child", Start: 30, End: 60, Parent: 0}, // overlaps the first
		{Name: "other", Start: 200, End: 210, Parent: -1},
	}
	self := selfTimes(spans)
	ns := func(name string) float64 { return math.Round(self[name][0] * 1e6) }
	// Children cover 10..60 of the root: self time is 50ns.
	if got := ns("root"); got != 50 {
		t.Errorf("root self = %gns, want 50", got)
	}
	if got := ns("child"); got != 60 || self["child"][1] != 2 {
		t.Errorf("child self = %gns over %g spans, want 60ns over 2", got, self["child"][1])
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// The names the program reports must be valid and must be exactly the
// ones BENCHMARK.json declares.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, w := range bench.Workloads {
		declared = append(declared, w.Name)
	}
	var known []string
	for name := range workloads {
		known = append(known, name)
	}
	sort.Strings(declared)
	sort.Strings(known)
	if len(declared) != len(known) {
		t.Errorf("workloads: BENCHMARK.json %v, program %v", declared, known)
	}
	for i := range known {
		if i < len(declared) && declared[i] != known[i] {
			t.Errorf("workloads: BENCHMARK.json %v, program %v", declared, known)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, program %d", kind, len(got), len(want))
			return
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", bench.EndToEnd, endToEnd)
	check("per_layer", bench.PerLayer, perLayer)
	seen := map[string]bool{}
	for _, name := range append(append([]string(nil), known...), metricNames()...) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %s", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
}

func metricNames() []string {
	var out []string
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		out = append(out, d.name)
	}
	return out
}
