package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// minBeyond is the percentile rule: a percentile is reported only when at
// least this many samples lie beyond it.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of xs. It
// refuses when fewer than minBeyond samples rank above the reported one.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	i := int(math.Ceil(p*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if n == 0 || n-1-i < minBeyond {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, have %d of %d", 100*p, minBeyond, max(n-1-i, 0), n)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[i], nil
}

// median returns the middle sample (mean of the two middle ones for an
// even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// metric is one reported number with the sample count behind it.
type metric struct {
	Value float64
	Unit  string
	N     int
}

// report collects a run's metrics, failures and notes.
type report struct {
	metrics   map[string]metric
	notes     []string
	attempted int
	failed    int
	wrong     []string
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) set(name string, v float64, unit string, n int) {
	r.metrics[name] = metric{Value: v, Unit: unit, N: n}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail records one failed or wrongly answered operation; the first few
// reasons are kept for the report.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.wrong) < 8 {
		r.wrong = append(r.wrong, fmt.Sprintf(format, args...))
	}
}

// setPercentile reports the p-quantile of xs when the percentile rule
// allows it, and otherwise notes why it is missing.
func (r *report) setPercentile(name string, xs []float64, p float64) {
	v, err := percentile(xs, p)
	if err != nil {
		r.note("%s not reported: %v", name, err)
		return
	}
	r.set(name, v, "ms", len(xs))
}

// span is one traced interval recorded by the benchmark around a call into
// a layer. Parent is the index of the enclosing span, -1 for a root.
type span struct {
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Request string `json:"request,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per call.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index for end and for children.
func (t *tracer) begin(name string, parent int, req string) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: now, Parent: parent, Request: req})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// add records a finished span with explicit times.
func (t *tracer) add(name string, start, end time.Time, parent int, req string) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: start.Sub(t.t0).Nanoseconds(),
		End: end.Sub(t.t0).Nanoseconds(), Parent: parent, Request: req})
	return len(t.spans) - 1
}

// selfTimes returns, per span name, the total self time (duration minus
// the part covered by child spans) and the span count.
func selfTimes(spans []span) map[string][2]float64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := map[string][2]float64{}
	for i, s := range spans {
		ivs := make([][2]int64, 0, len(children[i]))
		for _, c := range children[i] {
			ivs = append(ivs, [2]int64{max(spans[c].Start, s.Start), min(spans[c].End, s.End)})
		}
		self := s.End - s.Start - covered(ivs)
		agg := out[s.Name]
		out[s.Name] = [2]float64{agg[0] + float64(self)/1e6, agg[1] + 1}
	}
	return out
}

// covered returns the length of the union of the intervals.
func covered(ivs [][2]int64) int64 {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var total, curS, curE int64
	open := false
	for _, iv := range ivs {
		if iv[1] <= iv[0] {
			continue
		}
		if open && iv[0] <= curE {
			curE = max(curE, iv[1])
			continue
		}
		if open {
			total += curE - curS
		}
		curS, curE, open = iv[0], iv[1], true
	}
	if open {
		total += curE - curS
	}
	return total
}

// writeSpans writes the recorded spans as JSON and reports self time per
// span name.
func (t *tracer) writeSpans(path string, r *report) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	raw, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	self := selfTimes(spans)
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Strings(names)
	r.note("spans: %d written to %s; self time per span:", len(spans), path)
	for _, name := range names {
		r.note("  %-26s %12.3f ms  n=%d", name, self[name][0], int(self[name][1]))
	}
	return nil
}

// peakRSSMB reads the process's memory high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
