package telemetry

import (
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// DefBuckets are the default latency bucket upper bounds, in seconds:
// roughly exponential from 10µs to 5s, sized for localhost wire
// round-trips (tens of microseconds) through blocking gets that wait
// on another daemon (milliseconds to seconds).
var DefBuckets = []float64{
	10e-6, 25e-6, 50e-6, 100e-6, 250e-6, 500e-6,
	1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 250e-3, 500e-3,
	1, 2.5, 5,
}

// Histogram is a fixed-bucket histogram of float64 observations
// (latencies in seconds by convention). Observations are lock-free;
// Snapshot is approximately consistent under concurrent writes, which
// is the standard trade for a hot-path histogram.
type Histogram struct {
	bounds []float64      // sorted upper bounds; +Inf bucket is implicit
	counts []atomic.Int64 // len(bounds)+1
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-updated
}

// NewHistogram returns a histogram with the given sorted upper bounds
// (nil means DefBuckets). Bounds are defensively copied and sorted.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// Binary search for the first bound >= v; the final slot is +Inf.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records a latency in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) {
	h.Observe(d.Seconds())
}

// Since records the latency from start to now; use with defer:
//
//	defer hist.Since(time.Now())
func (h *Histogram) Since(start time.Time) {
	h.ObserveDuration(time.Since(start))
}

// Stopwatch times one operation into a histogram. It is a plain value,
// so starting and stopping one allocates nothing; the zero Stopwatch
// (a nil histogram's) records nothing.
type Stopwatch struct {
	h     *Histogram
	start time.Time
}

// Start begins timing an operation; call End on the result when it
// completes. A nil histogram returns the inert zero Stopwatch without
// reading the clock.
func (h *Histogram) Start() Stopwatch {
	if h == nil {
		return Stopwatch{}
	}
	return Stopwatch{h: h, start: time.Now()}
}

// End records the time since Start.
func (s Stopwatch) End() {
	if s.h != nil {
		s.h.Since(s.start)
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Bounds returns the bucket upper bounds (shared; do not mutate).
func (h *Histogram) Bounds() []float64 { return h.bounds }

// Snapshot copies the histogram state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count:  h.count.Load(),
		Sum:    h.Sum(),
		Bounds: h.bounds,
		Counts: make([]int64, len(h.counts)),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// Quantile estimates the q-th quantile (0 ≤ q ≤ 1) of the live
// histogram; see HistogramSnapshot.Quantile.
func (h *Histogram) Quantile(q float64) float64 {
	return h.Snapshot().Quantile(q)
}

// HistogramSnapshot is the JSON-able copy of a Histogram. Counts has
// one more element than Bounds: the final slot holds observations
// above the last bound (the +Inf bucket).
type HistogramSnapshot struct {
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
}

// Quantile estimates the q-th quantile by linear interpolation within
// the bucket that contains it (the same estimator Prometheus uses).
// It returns 0 for an empty histogram, and the last finite bound for
// quantiles that land in the +Inf bucket.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	cum := int64(0)
	for i, c := range s.Counts {
		if float64(cum+c) >= rank && c > 0 {
			if i == len(s.Bounds) {
				// +Inf bucket: clamp to the last finite bound.
				return s.Bounds[len(s.Bounds)-1]
			}
			lower := 0.0
			if i > 0 {
				lower = s.Bounds[i-1]
			}
			upper := s.Bounds[i]
			within := (rank - float64(cum)) / float64(c)
			return lower + within*(upper-lower)
		}
		cum += c
	}
	return s.Bounds[len(s.Bounds)-1]
}

// Mean returns the average observation, or 0 when empty.
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}
