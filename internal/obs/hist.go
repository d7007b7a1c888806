package obs

import (
	"math"
	"sync/atomic"
	"time"
)

// DefaultLatencyBuckets is the serving layer's shared bucket layout for
// request-latency histograms: upper bounds in seconds on a 1–2.5–5 decade
// ladder from 100µs to 60s. Every endpoint uses the same layout so
// cross-endpoint quantiles compare bucket-for-bucket.
var DefaultLatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005,
	0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05,
	0.1, 0.25, 0.5,
	1, 2.5, 5,
	10, 30, 60,
}

// Histogram is a fixed-bucket latency histogram with lock-free Observe
// (one atomic add per sample plus sum/count upkeep). Bucket i counts
// samples ≤ Bounds[i]; a final implicit +Inf bucket catches the rest.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is +Inf
	count  atomic.Uint64
	sumNs  atomic.Int64
}

// NewHistogram returns a histogram over the given ascending upper bounds
// (seconds). A nil or empty bounds slice selects DefaultLatencyBuckets.
// The slice is copied.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefaultLatencyBuckets
	}
	h := &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
	return h
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	s := d.Seconds()
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if s <= h.bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	h.counts[lo].Add(1)
	h.count.Add(1)
	h.sumNs.Add(int64(d))
}

// Snapshot returns a point-in-time copy of the histogram's state.
// Concurrent Observes may straddle the copy, so Count can lag the bucket
// sum by in-flight samples; consumers should treat the bucket counts as
// authoritative.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	h.SnapshotInto(&s)
	return s
}

// SnapshotInto is Snapshot into caller-owned storage: s.Counts is reused
// when it has room, so a caller that keeps s across reads allocates
// nothing in steady state.
func (h *Histogram) SnapshotInto(s *HistSnapshot) {
	if cap(s.Counts) < len(h.counts) {
		s.Counts = make([]uint64, len(h.counts))
	}
	s.Bounds = h.bounds
	s.Counts = s.Counts[:len(h.counts)]
	s.Count = h.count.Load()
	s.SumNs = h.sumNs.Load()
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
}

// HistSnapshot is an immutable copy of a Histogram, suitable for
// quantile estimation and exposition without holding up writers.
type HistSnapshot struct {
	// Bounds are the bucket upper bounds in seconds; Counts has one extra
	// trailing element for the +Inf bucket. Counts are per-bucket, not
	// cumulative.
	Bounds []float64
	Counts []uint64
	// Count and SumNs aggregate all observations.
	Count uint64
	SumNs int64
}

// Total sums the bucket counts (the authoritative sample count).
func (s HistSnapshot) Total() uint64 {
	var n uint64
	for _, c := range s.Counts {
		n += c
	}
	return n
}

// NearestRank is the one quantile rule of this repository: the 1-based
// rank ceil(p·n) of the p-quantile among n ordered samples, clamped to
// [1, n]; 0 when n is 0. Over sorted samples the quantile is
// sorted[NearestRank(p, len(sorted))-1]; over bucket counts it is the
// bucket whose cumulative count first reaches the rank (HistSnapshot.
// Quantile).
func NearestRank(p float64, n int) int {
	if n <= 0 {
		return 0
	}
	return min(max(int(math.Ceil(p*float64(n))), 1), n)
}

// Quantile estimates the p-quantile (p in [0,1]) as the upper bound of
// the bucket holding the nearest-rank sample, in seconds. Samples landing
// in the +Inf bucket report the largest finite bound (the histogram can't
// resolve beyond its range). An empty snapshot reports 0.
func (s HistSnapshot) Quantile(p float64) float64 {
	rank := uint64(NearestRank(p, int(s.Total())))
	if rank == 0 || len(s.Bounds) == 0 {
		return 0
	}
	var cum uint64
	for i, c := range s.Counts {
		cum += c
		if cum >= rank && i < len(s.Bounds) {
			return s.Bounds[i]
		}
	}
	return s.Bounds[len(s.Bounds)-1]
}
