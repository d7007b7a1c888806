package obs

import (
	"math"
	"sync"
	"time"
)

// SeriesKind classifies a telemetry series for the history ring: gauges are
// read back raw, counters are monotonic totals consumers should derive
// rates and deltas from (DeltaSince / RateSince apply counter-reset
// tolerance only to counters).
type SeriesKind uint8

// The two series kinds of the telemetry history.
const (
	// KindGauge is a point-in-time level (goroutines, pool depth, p99).
	KindGauge SeriesKind = iota
	// KindCounter is a monotonically increasing total (requests, errors).
	KindCounter
)

// SamplePoint is one series' value at one sampling tick. The sampler
// builds a reusable slice of these per tick, so the steady-state record
// path allocates nothing.
type SamplePoint struct {
	Name  string
	Kind  SeriesKind
	Value float64
}

// DefaultHistoryInterval is the sampling cadence of the telemetry history;
// DefaultHistoryRetention how far back the ring reaches. Together they
// size the ring (retention / interval slots).
const (
	DefaultHistoryInterval  = 10 * time.Second
	DefaultHistoryRetention = time.Hour
)

// maxHistorySlots bounds the ring so a misconfigured retention/interval
// pair cannot demand unbounded memory (1e5 slots x 8 bytes = 800 KB per
// series before anyone notices the flag typo).
const maxHistorySlots = 100_000

// series is one named ring of float64 values aligned with the shared
// timestamp ring. Slots the series missed (registered after the ring
// started, or skipped a tick) hold NaN.
type series struct {
	name string
	kind SeriesKind
	vals []float64
}

// TimeSeries is the in-process telemetry history: a fixed-capacity ring of
// sampling ticks, each tick carrying one float64 per registered series.
// Capacity is fixed at construction; recording a tick into existing series
// allocates nothing (new series allocate their ring once, on first
// appearance). All methods are safe for concurrent use and nil-safe
// (history disabled).
type TimeSeries struct {
	interval time.Duration
	mu       sync.Mutex
	times    []int64 // unix nanos per tick; shared by every series
	next     int
	n        int
	series   map[string]*series
	ordered  []*series // registration order, for deterministic iteration
	ticks    uint64
}

// NewTimeSeries sizes the ring to retention/interval slots (both <= 0
// select the defaults; the slot count is clamped to [2, 100000]).
func NewTimeSeries(interval, retention time.Duration) *TimeSeries {
	if interval <= 0 {
		interval = DefaultHistoryInterval
	}
	if retention <= 0 {
		retention = DefaultHistoryRetention
	}
	slots := int(retention / interval)
	if slots < 2 {
		slots = 2
	}
	if slots > maxHistorySlots {
		slots = maxHistorySlots
	}
	return &TimeSeries{
		interval: interval,
		times:    make([]int64, slots),
		series:   map[string]*series{},
	}
}

// Interval returns the configured sampling cadence (0 on nil).
func (ts *TimeSeries) Interval() time.Duration {
	if ts == nil {
		return 0
	}
	return ts.interval
}

// Capacity returns the ring's slot count (0 on nil).
func (ts *TimeSeries) Capacity() int {
	if ts == nil {
		return 0
	}
	return len(ts.times)
}

// Len returns the number of retained ticks (0 on nil).
func (ts *TimeSeries) Len() int {
	if ts == nil {
		return 0
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return ts.n
}

// Ticks returns the lifetime tick count — unlike Len it keeps growing
// after the ring wraps (0 on nil).
func (ts *TimeSeries) Ticks() uint64 {
	if ts == nil {
		return 0
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return ts.ticks
}

// newSeries registers a series, backfilling its past with NaN. Caller
// holds ts.mu.
func (ts *TimeSeries) newSeries(name string, kind SeriesKind) *series {
	sr := &series{name: name, kind: kind, vals: make([]float64, len(ts.times))}
	for i := range sr.vals {
		sr.vals[i] = math.NaN()
	}
	ts.series[name] = sr
	ts.ordered = append(ts.ordered, sr)
	return sr
}

// Record appends one sampling tick: every point lands in its series at the
// shared timestamp, series absent from points record NaN for the tick, and
// the oldest tick is evicted once the ring is full. Points may repeat a
// name (last write wins). Steady state — every point's series already
// registered — performs no allocation.
func (ts *TimeSeries) Record(now time.Time, points []SamplePoint) {
	if ts == nil {
		return
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	idx := ts.next
	ts.times[idx] = now.UnixNano()
	// Series that skip this tick must not keep their evicted value.
	for _, sr := range ts.ordered {
		sr.vals[idx] = math.NaN()
	}
	for _, p := range points {
		sr := ts.series[p.Name]
		if sr == nil {
			sr = ts.newSeries(p.Name, p.Kind)
		}
		sr.vals[idx] = p.Value
	}
	ts.next = (ts.next + 1) % len(ts.times)
	if ts.n < len(ts.times) {
		ts.n++
	}
	ts.ticks++
}

// Amend writes additional series values into the most recently recorded
// tick — derived series (rates, windowed quantiles) the sampler can only
// compute after the raw tick has landed in the ring. New series register
// as in Record; a no-op before the first Record and on nil.
func (ts *TimeSeries) Amend(points []SamplePoint) {
	if ts == nil {
		return
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if ts.n == 0 {
		return
	}
	idx := (ts.next - 1 + len(ts.times)) % len(ts.times)
	for _, p := range points {
		sr := ts.series[p.Name]
		if sr == nil {
			sr = ts.newSeries(p.Name, p.Kind)
		}
		sr.vals[idx] = p.Value
	}
}

// SeriesNames returns the registered series names in registration order.
func (ts *TimeSeries) SeriesNames() []string {
	if ts == nil {
		return nil
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	names := make([]string, len(ts.ordered))
	for i, sr := range ts.ordered {
		names[i] = sr.name
	}
	return names
}

// Kind reports a series' kind (false when the series does not exist).
func (ts *TimeSeries) Kind(name string) (SeriesKind, bool) {
	if ts == nil {
		return 0, false
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	sr := ts.series[name]
	if sr == nil {
		return 0, false
	}
	return sr.kind, true
}

// at maps logical tick position k (0 = oldest retained) to a ring index.
// Caller holds ts.mu.
func (ts *TimeSeries) at(k int) int {
	if ts.n < len(ts.times) {
		return k
	}
	return (ts.next + k) % len(ts.times)
}

// Latest returns a series' most recent non-NaN sample (ok=false when the
// series is unknown or has no samples).
func (ts *TimeSeries) Latest(name string) (t time.Time, v float64, ok bool) {
	if ts == nil {
		return time.Time{}, 0, false
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	sr := ts.series[name]
	if sr == nil {
		return time.Time{}, 0, false
	}
	for k := ts.n - 1; k >= 0; k-- {
		idx := ts.at(k)
		if !math.IsNaN(sr.vals[idx]) {
			return time.Unix(0, ts.times[idx]), sr.vals[idx], true
		}
	}
	return time.Time{}, 0, false
}

// Baseline returns the sample a trailing-window rate is measured from: the
// newest non-NaN sample at or before now-window, or the oldest one when
// the ring does not reach back that far. ok=false when the series is
// unknown or has no samples.
func (ts *TimeSeries) Baseline(name string, window time.Duration, now time.Time) (t time.Time, v float64, ok bool) {
	if ts == nil {
		return time.Time{}, 0, false
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	sr := ts.series[name]
	if sr == nil {
		return time.Time{}, 0, false
	}
	cutoff := now.Add(-window).UnixNano()
	for k := 0; k < ts.n; k++ {
		idx := ts.at(k)
		if math.IsNaN(sr.vals[idx]) {
			continue
		}
		if ok && ts.times[idx] > cutoff {
			break
		}
		t, v, ok = time.Unix(0, ts.times[idx]), sr.vals[idx], true
	}
	return t, v, ok
}

// DeltaSince returns how much a series grew over the trailing window
// ending at now: the newest in-window sample minus the oldest, plus the
// time span those samples actually cover. Counter resets (a restarted
// process re-counting from zero makes the newest sample smaller than the
// oldest) are tolerated by treating the newest value as the growth since
// the reset — the pre-reset head is unknowable and dropped rather than
// reported as a negative delta. Gauges get the same endpoint arithmetic
// without reset tolerance (a falling gauge is a real negative delta).
// ok=false when fewer than two in-window samples exist.
func (ts *TimeSeries) DeltaSince(name string, window time.Duration, now time.Time) (delta float64, span time.Duration, ok bool) {
	if ts == nil {
		return 0, 0, false
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	sr := ts.series[name]
	if sr == nil {
		return 0, 0, false
	}
	cutoff := now.Add(-window).UnixNano()
	var (
		oldV, newV float64
		oldT, newT int64
		seen       int
	)
	for k := 0; k < ts.n; k++ {
		idx := ts.at(k)
		if ts.times[idx] < cutoff || math.IsNaN(sr.vals[idx]) {
			continue
		}
		if seen == 0 {
			oldV, oldT = sr.vals[idx], ts.times[idx]
		}
		newV, newT = sr.vals[idx], ts.times[idx]
		seen++
	}
	if seen < 2 || newT <= oldT {
		return 0, 0, false
	}
	delta = newV - oldV
	if sr.kind == KindCounter && delta < 0 {
		delta = newV
	}
	return delta, time.Duration(newT - oldT), true
}

// RateSince returns a counter's per-second rate over the trailing window
// (DeltaSince divided by the covered span). ok=false as for DeltaSince.
func (ts *TimeSeries) RateSince(name string, window time.Duration, now time.Time) (rate float64, ok bool) {
	delta, span, ok := ts.DeltaSince(name, window, now)
	if !ok || span <= 0 {
		return 0, false
	}
	return delta / span.Seconds(), true
}

// RangeResult is one Range read: tick timestamps plus the aligned values
// of every requested series (NaN where a series missed a tick).
type RangeResult struct {
	Times  []time.Time
	Values map[string][]float64
}

// Range returns the retained samples of the named series from since to
// now, oldest first, downsampled to one sample per step (the last sample
// of each step bucket, which for counters preserves exact deltas across
// bucket boundaries). step <= 0 returns every tick. Unknown series are
// returned as all-NaN columns so callers can tell "no such series" from
// "no data yet" via SeriesNames.
func (ts *TimeSeries) Range(names []string, since time.Time, step time.Duration) RangeResult {
	res := RangeResult{Values: map[string][]float64{}}
	if ts == nil {
		return res
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	cutoff := since.UnixNano()
	// First pass: pick the surviving tick indexes (last tick per step
	// bucket, every in-range tick when step <= 0).
	var picked []int
	lastBucket := int64(math.MinInt64)
	for k := 0; k < ts.n; k++ {
		idx := ts.at(k)
		t := ts.times[idx]
		if t < cutoff {
			continue
		}
		if step <= 0 {
			picked = append(picked, idx)
			continue
		}
		bucket := (t - cutoff) / int64(step)
		if bucket == lastBucket && len(picked) > 0 {
			picked[len(picked)-1] = idx // later tick in the same bucket wins
			continue
		}
		picked = append(picked, idx)
		lastBucket = bucket
	}
	res.Times = make([]time.Time, len(picked))
	for i, idx := range picked {
		res.Times[i] = time.Unix(0, ts.times[idx])
	}
	for _, name := range names {
		col := make([]float64, len(picked))
		sr := ts.series[name]
		for i, idx := range picked {
			if sr == nil {
				col[i] = math.NaN()
			} else {
				col[i] = sr.vals[idx]
			}
		}
		res.Values[name] = col
	}
	return res
}
