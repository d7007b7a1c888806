package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceNilSafe(t *testing.T) {
	var tr *Trace
	sp := tr.Span("x")
	sp.End()
	tr.Add("x", time.Second)
	tr.Reset()
	if tr.Phases() != nil {
		t.Fatalf("nil trace Phases = %v, want nil", tr.Phases())
	}
	if tr.TotalNs() != 0 {
		t.Fatalf("nil trace TotalNs = %d, want 0", tr.TotalNs())
	}
}

func TestTraceAggregation(t *testing.T) {
	tr := NewTrace()
	tr.Add("expand", 3*time.Millisecond)
	tr.Add("skyband", 2*time.Millisecond)
	tr.Add("expand", 5*time.Millisecond)
	phases := tr.Phases()
	if len(phases) != 2 {
		t.Fatalf("got %d phases, want 2", len(phases))
	}
	// First-seen order preserved, same-name spans aggregated.
	if phases[0].Name != "expand" || phases[0].Count != 2 || phases[0].Ns != int64(8*time.Millisecond) {
		t.Fatalf("expand phase = %+v", phases[0])
	}
	if phases[1].Name != "skyband" || phases[1].Count != 1 {
		t.Fatalf("skyband phase = %+v", phases[1])
	}
	if got := tr.TotalNs(); got != int64(10*time.Millisecond) {
		t.Fatalf("TotalNs = %d, want %d", got, 10*time.Millisecond)
	}
	if d := phases[0].Duration(); d != 8*time.Millisecond {
		t.Fatalf("Duration = %v", d)
	}
	tr.Reset()
	if len(tr.Phases()) != 0 {
		t.Fatalf("Reset left %d phases", len(tr.Phases()))
	}
	tr.Add("late", time.Millisecond)
	if got := tr.Phases(); len(got) != 1 || got[0].Name != "late" {
		t.Fatalf("post-Reset phases = %v", got)
	}
}

func TestTraceSpanRecordsElapsed(t *testing.T) {
	tr := NewTrace()
	sp := tr.Span("work")
	time.Sleep(2 * time.Millisecond)
	sp.End()
	phases := tr.Phases()
	if len(phases) != 1 || phases[0].Ns <= 0 {
		t.Fatalf("phases = %+v", phases)
	}
}

func TestSortedPhases(t *testing.T) {
	tr := NewTrace()
	tr.Add("small", time.Millisecond)
	tr.Add("big", 10*time.Millisecond)
	got := SortedPhases(tr)
	if got[0].Name != "big" || got[1].Name != "small" {
		t.Fatalf("SortedPhases order = %v", got)
	}
	if SortedPhases(nil) != nil {
		t.Fatal("SortedPhases(nil) should be nil")
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	h := NewHistogram([]float64{0.001, 0.01, 0.1})
	cases := []struct {
		d      time.Duration
		bucket int
	}{
		{0, 0},                       // below first bound
		{time.Millisecond, 0},        // exactly on a bound counts in that bucket (le semantics)
		{time.Millisecond + 1, 1},    // just past a bound spills into the next
		{10 * time.Millisecond, 1},   // exactly 0.01
		{50 * time.Millisecond, 2},   // interior of the last finite bucket
		{100 * time.Millisecond, 2},  // exactly the last finite bound
		{200 * time.Millisecond, 3},  // +Inf bucket
		{5000 * time.Millisecond, 3}, // way past the range
	}
	for _, c := range cases {
		h.Observe(c.d)
	}
	s := h.Snapshot()
	want := []uint64{2, 2, 2, 2}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (counts %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 8 || s.Total() != 8 {
		t.Fatalf("Count=%d Total=%d, want 8", s.Count, s.Total())
	}
}

func TestHistogramDefaultBuckets(t *testing.T) {
	h := NewHistogram(nil)
	s := h.Snapshot()
	if len(s.Bounds) != len(DefaultLatencyBuckets) {
		t.Fatalf("bounds len = %d, want %d", len(s.Bounds), len(DefaultLatencyBuckets))
	}
	for i := 1; i < len(s.Bounds); i++ {
		if s.Bounds[i] <= s.Bounds[i-1] {
			t.Fatalf("bounds not ascending at %d: %v", i, s.Bounds)
		}
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram([]float64{0.001, 0.01, 0.1, 1})
	// 90 fast samples, 9 medium, 1 slow.
	for i := 0; i < 90; i++ {
		h.Observe(500 * time.Microsecond)
	}
	for i := 0; i < 9; i++ {
		h.Observe(50 * time.Millisecond)
	}
	h.Observe(500 * time.Millisecond)
	s := h.Snapshot()
	if q := s.Quantile(0.50); q != 0.001 {
		t.Fatalf("p50 = %v, want 0.001", q)
	}
	if q := s.Quantile(0.95); q != 0.1 {
		t.Fatalf("p95 = %v, want 0.1", q)
	}
	if q := s.Quantile(0.99); q != 0.1 {
		t.Fatalf("p99 = %v, want 0.1", q)
	}
	if q := s.Quantile(1.0); q != 1 {
		t.Fatalf("p100 = %v, want 1", q)
	}
	// +Inf bucket clamps to the largest finite bound.
	h2 := NewHistogram([]float64{0.001})
	h2.Observe(time.Second)
	if q := h2.Snapshot().Quantile(0.5); q != 0.001 {
		t.Fatalf("overflow quantile = %v, want 0.001", q)
	}
	if q := (HistSnapshot{}).Quantile(0.5); q != 0 {
		t.Fatalf("empty quantile = %v, want 0", q)
	}
}

// TestNearestRank pins the one quantile rule: rank ceil(p·n) clamped to
// [1, n], the same rank over sorted samples and over bucket counts.
func TestNearestRank(t *testing.T) {
	if got := NearestRank(0.5, 0); got != 0 {
		t.Fatalf("empty rank = %d, want 0", got)
	}
	cases := []struct {
		p    float64
		n    int
		want int
	}{
		{0.50, 1, 1}, {0.99, 1, 1}, {0, 1, 1},
		{0.50, 2, 1}, {0.51, 2, 2}, {1.0, 2, 2},
		{0.50, 10, 5}, {0.95, 10, 10}, {0.10, 10, 1}, {0, 10, 1},
		{0.95, 20, 19}, {0.99, 100, 99}, {0.999, 100, 100},
	}
	for _, c := range cases {
		if got := NearestRank(c.p, c.n); got != c.want {
			t.Errorf("NearestRank(%v, %d) = %d, want %d", c.p, c.n, got, c.want)
		}
	}
	// The bucket reading agrees with the sorted-sample reading: one
	// sample per bucket makes each bound a sample.
	bounds := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	snap := HistSnapshot{Bounds: bounds, Counts: []uint64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0}}
	for _, p := range []float64{0, 0.1, 0.25, 0.5, 0.95, 0.99, 1} {
		if got, want := snap.Quantile(p), bounds[NearestRank(p, len(bounds))-1]; got != want {
			t.Errorf("bucket p%v = %v, sorted-sample p%v = %v", p, got, p, want)
		}
	}
}

// TestSnapshotIntoReusesCounts checks that SnapshotInto matches Snapshot
// and stops allocating once the caller's buffer is sized.
func TestSnapshotIntoReusesCounts(t *testing.T) {
	h := NewHistogram(nil)
	h.Observe(3 * time.Millisecond)
	h.Observe(40 * time.Millisecond)
	var s HistSnapshot
	h.SnapshotInto(&s)
	want := h.Snapshot()
	if s.Count != want.Count || s.SumNs != want.SumNs || len(s.Counts) != len(want.Counts) {
		t.Fatalf("SnapshotInto %+v != Snapshot %+v", s, want)
	}
	for i := range s.Counts {
		if s.Counts[i] != want.Counts[i] {
			t.Fatalf("bucket %d: %d != %d", i, s.Counts[i], want.Counts[i])
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { h.SnapshotInto(&s) }); allocs != 0 {
		t.Fatalf("SnapshotInto allocates %v/op with a sized buffer", allocs)
	}
}

func TestPromWriterGolden(t *testing.T) {
	var b strings.Builder
	p := NewPromWriter(&b)
	p.Counter("kspr_requests_total", "Total requests.", 42, Label{"endpoint", "kspr"})
	p.Gauge(`kspr_pool_depth`, `Queue depth with "quotes" and back\slash`, 3)
	p.Header("kspr_latency_seconds", "Latency.", "histogram")
	h := NewHistogram([]float64{0.001, 0.01})
	h.Observe(500 * time.Microsecond)
	h.Observe(5 * time.Millisecond)
	h.Observe(5 * time.Millisecond)
	h.Observe(time.Second)
	p.HistogramSeries("kspr_latency_seconds", []Label{{"endpoint", "kspr"}}, h.Snapshot())
	if p.Err() != nil {
		t.Fatalf("writer error: %v", p.Err())
	}
	want := `# HELP kspr_requests_total Total requests.
# TYPE kspr_requests_total counter
kspr_requests_total{endpoint="kspr"} 42
# HELP kspr_pool_depth Queue depth with "quotes" and back\\slash
# TYPE kspr_pool_depth gauge
kspr_pool_depth 3
# HELP kspr_latency_seconds Latency.
# TYPE kspr_latency_seconds histogram
kspr_latency_seconds_bucket{endpoint="kspr",le="0.001"} 1
kspr_latency_seconds_bucket{endpoint="kspr",le="0.01"} 3
kspr_latency_seconds_bucket{endpoint="kspr",le="+Inf"} 4
kspr_latency_seconds_sum{endpoint="kspr"} 1.0105
kspr_latency_seconds_count{endpoint="kspr"} 4
`
	if b.String() != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", b.String(), want)
	}
}

func TestPromValueFormatting(t *testing.T) {
	if formatValue(math.Inf(1)) != "+Inf" {
		t.Fatal("+Inf formatting")
	}
	if formatValue(math.Inf(-1)) != "-Inf" {
		t.Fatal("-Inf formatting")
	}
	if formatValue(0.25) != "0.25" {
		t.Fatalf("0.25 -> %s", formatValue(0.25))
	}
	if got := escapeLabel("a\"b\\c\nd"); got != `a\"b\\c\nd` {
		t.Fatalf("escapeLabel = %s", got)
	}
}

func TestConcurrentTraceAndHistogram(t *testing.T) {
	tr := NewTrace()
	h := NewHistogram(nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				tr.Add("p", time.Microsecond)
				h.Observe(time.Duration(i) * time.Microsecond)
				if i%50 == 0 {
					_ = tr.Phases()
					_ = h.Snapshot().Quantile(0.95)
				}
			}
		}()
	}
	wg.Wait()
	if got := tr.Phases()[0].Count; got != 8*500 {
		t.Fatalf("trace count = %d, want %d", got, 8*500)
	}
	if got := h.Snapshot().Total(); got != 8*500 {
		t.Fatalf("hist total = %d, want %d", got, 8*500)
	}
}

func TestNewRequestID(t *testing.T) {
	a, b := NewRequestID(), NewRequestID()
	if len(a) != 16 || len(b) != 16 {
		t.Fatalf("lengths %d/%d, want 16", len(a), len(b))
	}
	if a == b {
		t.Fatal("two request IDs collided")
	}
}
