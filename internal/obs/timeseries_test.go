package obs

import (
	"math"
	"sync"
	"testing"
	"time"
)

var t0 = time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)

// fill records n ticks at interval steps starting at t0, with req counting
// 10 per tick and load gauging the tick index.
func fill(ts *TimeSeries, n int, interval time.Duration) {
	for i := 0; i < n; i++ {
		ts.Record(t0.Add(time.Duration(i)*interval), []SamplePoint{
			{Name: "req", Kind: KindCounter, Value: float64((i + 1) * 10)},
			{Name: "load", Kind: KindGauge, Value: float64(i)},
		})
	}
}

func TestTimeSeriesBasics(t *testing.T) {
	ts := NewTimeSeries(time.Second, 10*time.Second)
	if got := ts.Capacity(); got != 10 {
		t.Fatalf("capacity = %d, want 10", got)
	}
	fill(ts, 3, time.Second)
	if got := ts.Len(); got != 3 {
		t.Fatalf("len = %d, want 3", got)
	}
	_, v, ok := ts.Latest("req")
	if !ok || v != 30 {
		t.Fatalf("latest req = %v, %v; want 30, true", v, ok)
	}
	if _, _, ok := ts.Latest("nope"); ok {
		t.Fatal("latest of unknown series should be !ok")
	}
	kind, ok := ts.Kind("load")
	if !ok || kind != KindGauge {
		t.Fatalf("kind(load) = %v, %v", kind, ok)
	}
	names := ts.SeriesNames()
	if len(names) != 2 || names[0] != "req" || names[1] != "load" {
		t.Fatalf("series names = %v", names)
	}
}

func TestTimeSeriesWrapAround(t *testing.T) {
	// Capacity 5 ring fed 13 ticks: only the last 5 survive, and delta
	// arithmetic keeps working across the wrap point.
	ts := NewTimeSeries(time.Second, 5*time.Second)
	fill(ts, 13, time.Second)
	if got := ts.Len(); got != 5 {
		t.Fatalf("len after wrap = %d, want 5", got)
	}
	if got := ts.Ticks(); got != 13 {
		t.Fatalf("ticks = %d, want 13", got)
	}
	now := t0.Add(12 * time.Second)
	// Oldest retained tick is i=8 (value 90); newest i=12 (value 130).
	delta, span, ok := ts.DeltaSince("req", time.Minute, now)
	if !ok || delta != 40 || span != 4*time.Second {
		t.Fatalf("delta = %v over %v (ok=%v), want 40 over 4s", delta, span, ok)
	}
	r := ts.Range([]string{"req"}, t0, 0)
	if len(r.Times) != 5 {
		t.Fatalf("range returned %d ticks, want 5", len(r.Times))
	}
	if got := r.Values["req"][0]; got != 90 {
		t.Fatalf("oldest retained req = %v, want 90", got)
	}
	if got := r.Values["req"][4]; got != 130 {
		t.Fatalf("newest req = %v, want 130", got)
	}
	// Timestamps must come back oldest-first and strictly increasing.
	for i := 1; i < len(r.Times); i++ {
		if !r.Times[i].After(r.Times[i-1]) {
			t.Fatalf("times not increasing at %d: %v then %v", i, r.Times[i-1], r.Times[i])
		}
	}
}

func TestTimeSeriesCounterReset(t *testing.T) {
	ts := NewTimeSeries(time.Second, time.Minute)
	ts.Record(t0, []SamplePoint{{Name: "req", Kind: KindCounter, Value: 1000}})
	ts.Record(t0.Add(time.Second), []SamplePoint{{Name: "req", Kind: KindCounter, Value: 1100}})
	// Process restart: the counter starts over from zero.
	ts.Record(t0.Add(2*time.Second), []SamplePoint{{Name: "req", Kind: KindCounter, Value: 25}})
	now := t0.Add(2 * time.Second)
	delta, _, ok := ts.DeltaSince("req", time.Minute, now)
	if !ok || delta != 25 {
		t.Fatalf("post-reset delta = %v (ok=%v), want 25", delta, ok)
	}
	// A falling gauge is a genuine negative delta, not a reset.
	ts.Record(t0.Add(3*time.Second), []SamplePoint{{Name: "g", Kind: KindGauge, Value: 50}})
	ts.Record(t0.Add(4*time.Second), []SamplePoint{{Name: "g", Kind: KindGauge, Value: 20}})
	delta, _, ok = ts.DeltaSince("g", time.Minute, t0.Add(4*time.Second))
	if !ok || delta != -30 {
		t.Fatalf("gauge delta = %v (ok=%v), want -30", delta, ok)
	}
}

func TestTimeSeriesDeltaNeedsTwoSamples(t *testing.T) {
	ts := NewTimeSeries(time.Second, time.Minute)
	ts.Record(t0, []SamplePoint{{Name: "req", Kind: KindCounter, Value: 5}})
	if _, _, ok := ts.DeltaSince("req", time.Minute, t0); ok {
		t.Fatal("single sample must not produce a delta")
	}
	ts.Record(t0.Add(time.Second), []SamplePoint{{Name: "req", Kind: KindCounter, Value: 9}})
	// Window too small to cover both samples: only the newest is in range.
	if _, _, ok := ts.DeltaSince("req", 500*time.Millisecond, t0.Add(time.Second)); ok {
		t.Fatal("window covering one sample must not produce a delta")
	}
}

func TestTimeSeriesRate(t *testing.T) {
	ts := NewTimeSeries(time.Second, time.Minute)
	fill(ts, 11, time.Second)
	now := t0.Add(10 * time.Second)
	rate, ok := ts.RateSince("req", time.Minute, now)
	if !ok || rate != 10 {
		t.Fatalf("rate = %v (ok=%v), want 10/s", rate, ok)
	}
}

func TestTimeSeriesBaseline(t *testing.T) {
	ts := NewTimeSeries(time.Second, time.Minute)
	if _, _, ok := ts.Baseline("req", time.Minute, t0); ok {
		t.Fatal("baseline of an empty ring should be !ok")
	}
	fill(ts, 11, time.Second) // req = 10, 20, ..., 110 at t0+0s .. t0+10s
	// The newest sample at or before now-window.
	bt, v, ok := ts.Baseline("req", 4*time.Second, t0.Add(10*time.Second))
	if !ok || v != 70 || !bt.Equal(t0.Add(6*time.Second)) {
		t.Fatalf("baseline = %v at %v (ok=%v), want 70 at t0+6s", v, bt, ok)
	}
	// A window reaching past the ring falls back to the oldest sample.
	bt, v, ok = ts.Baseline("req", time.Hour, t0.Add(10*time.Second))
	if !ok || v != 10 || !bt.Equal(t0) {
		t.Fatalf("baseline = %v at %v (ok=%v), want 10 at t0", v, bt, ok)
	}
	if _, _, ok := ts.Baseline("nope", time.Minute, t0); ok {
		t.Fatal("baseline of unknown series should be !ok")
	}
}

func TestTimeSeriesRangeStep(t *testing.T) {
	// 30 ticks at 1s; step=10s keeps the LAST tick of each bucket so
	// counter deltas across the downsampled points stay exact.
	ts := NewTimeSeries(time.Second, time.Minute)
	fill(ts, 30, time.Second)
	r := ts.Range([]string{"req"}, t0, 10*time.Second)
	if len(r.Times) != 3 {
		t.Fatalf("downsampled to %d points, want 3", len(r.Times))
	}
	want := []float64{100, 200, 300} // ticks i=9, i=19, i=29
	for i, w := range want {
		if got := r.Values["req"][i]; got != w {
			t.Fatalf("point %d = %v, want %v", i, got, w)
		}
	}
	// since filters out older ticks entirely.
	r = ts.Range([]string{"req"}, t0.Add(25*time.Second), 0)
	if len(r.Times) != 5 {
		t.Fatalf("since filter kept %d ticks, want 5", len(r.Times))
	}
}

func TestTimeSeriesRangeStepAcrossWrap(t *testing.T) {
	// The ring wraps at 10 slots; downsampling must still walk
	// oldest-to-newest across the wrap seam.
	ts := NewTimeSeries(time.Second, 10*time.Second)
	fill(ts, 25, time.Second)
	r := ts.Range([]string{"req"}, t0, 5*time.Second)
	// Retained ticks are i=15..24 (values 160..250). Buckets of 5s from t0:
	// i=15..19 → last is 200, i=20..24 → last is 250.
	if len(r.Times) != 2 {
		t.Fatalf("got %d points, want 2", len(r.Times))
	}
	if r.Values["req"][0] != 200 || r.Values["req"][1] != 250 {
		t.Fatalf("points = %v, want [200 250]", r.Values["req"])
	}
}

func TestTimeSeriesMissingTicksAreNaN(t *testing.T) {
	ts := NewTimeSeries(time.Second, time.Minute)
	ts.Record(t0, []SamplePoint{{Name: "a", Kind: KindGauge, Value: 1}})
	ts.Record(t0.Add(time.Second), []SamplePoint{{Name: "b", Kind: KindGauge, Value: 2}})
	r := ts.Range([]string{"a", "b", "ghost"}, t0, 0)
	if !math.IsNaN(r.Values["a"][1]) {
		t.Fatalf("a at tick 1 = %v, want NaN (skipped)", r.Values["a"][1])
	}
	if !math.IsNaN(r.Values["b"][0]) {
		t.Fatalf("b at tick 0 = %v, want NaN (registered late)", r.Values["b"][0])
	}
	for i, v := range r.Values["ghost"] {
		if !math.IsNaN(v) {
			t.Fatalf("ghost[%d] = %v, want NaN", i, v)
		}
	}
	// Latest skips the NaN gap.
	_, v, ok := ts.Latest("a")
	if !ok || v != 1 {
		t.Fatalf("latest a = %v (ok=%v), want 1", v, ok)
	}
	// DeltaSince needs two real samples; a + one NaN is not enough.
	if _, _, ok := ts.DeltaSince("a", time.Minute, t0.Add(time.Second)); ok {
		t.Fatal("delta over one real sample must be !ok")
	}
}

func TestTimeSeriesNilSafe(t *testing.T) {
	var ts *TimeSeries
	ts.Record(t0, []SamplePoint{{Name: "x", Value: 1}})
	if ts.Len() != 0 || ts.Capacity() != 0 || ts.Ticks() != 0 || ts.Interval() != 0 {
		t.Fatal("nil ring must report zeroes")
	}
	if _, _, ok := ts.Latest("x"); ok {
		t.Fatal("nil Latest must be !ok")
	}
	if _, _, ok := ts.DeltaSince("x", time.Minute, t0); ok {
		t.Fatal("nil DeltaSince must be !ok")
	}
	if _, ok := ts.RateSince("x", time.Minute, t0); ok {
		t.Fatal("nil RateSince must be !ok")
	}
	if ts.SeriesNames() != nil {
		t.Fatal("nil SeriesNames must be nil")
	}
	if _, ok := ts.Kind("x"); ok {
		t.Fatal("nil Kind must be !ok")
	}
	r := ts.Range([]string{"x"}, t0, 0)
	if len(r.Times) != 0 {
		t.Fatal("nil Range must be empty")
	}
}

func TestTimeSeriesConcurrent(t *testing.T) {
	// Writers and readers race over the ring; the -race build is the
	// assertion.
	ts := NewTimeSeries(time.Millisecond, 100*time.Millisecond)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			pts := []SamplePoint{{Name: "c", Kind: KindCounter}}
			for i := 0; i < 500; i++ {
				pts[0].Value = float64(i)
				ts.Record(t0.Add(time.Duration(i)*time.Millisecond), pts)
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				ts.Latest("c")
				ts.DeltaSince("c", time.Second, t0.Add(time.Second))
				ts.Range([]string{"c"}, t0, 10*time.Millisecond)
			}
		}()
	}
	wg.Wait()
}

func TestTimeSeriesRecordSteadyStateAllocs(t *testing.T) {
	ts := NewTimeSeries(time.Second, time.Minute)
	pts := []SamplePoint{
		{Name: "a", Kind: KindCounter, Value: 1},
		{Name: "b", Kind: KindGauge, Value: 2},
	}
	ts.Record(t0, pts) // registration tick allocates; steady state must not
	allocs := testing.AllocsPerRun(100, func() {
		ts.Record(t0.Add(time.Second), pts)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Record allocates %v/op, want 0", allocs)
	}
}

func TestTimeSeriesClamping(t *testing.T) {
	if got := NewTimeSeries(time.Hour, time.Second).Capacity(); got != 2 {
		t.Fatalf("tiny ring capacity = %d, want clamp to 2", got)
	}
	if got := NewTimeSeries(time.Nanosecond, time.Hour).Capacity(); got != maxHistorySlots {
		t.Fatalf("huge ring capacity = %d, want clamp to %d", got, maxHistorySlots)
	}
	if got := NewTimeSeries(0, 0).Capacity(); got != int(DefaultHistoryRetention/DefaultHistoryInterval) {
		t.Fatalf("default capacity = %d", got)
	}
}
