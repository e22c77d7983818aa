// Package metrics provides the measurement primitives the experiment harness
// uses: exact-percentile latency recorders, bounded latency distributions,
// constant-size running means and time-series summaries, and small
// statistics helpers.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// Latency records duration samples and answers exact percentile queries,
// sorting on demand. It keeps 8 B per sample, the price of exact
// percentiles; a recorder read only through Mean() is a Mean instead, which
// keeps constant-size state.
type Latency struct {
	samples []time.Duration
	sorted  bool
}

// Add records one sample.
func (l *Latency) Add(d time.Duration) {
	l.samples = append(l.samples, d)
	l.sorted = false
}

// Count returns the sample count.
func (l *Latency) Count() int { return len(l.samples) }

// Mean returns the arithmetic mean, or 0 with no samples.
func (l *Latency) Mean() time.Duration {
	if len(l.samples) == 0 {
		return 0
	}
	var sum time.Duration
	for _, s := range l.samples {
		sum += s
	}
	return sum / time.Duration(len(l.samples))
}

// P returns the q-quantile (q in [0,1]) using nearest-rank, or 0 with no
// samples.
func (l *Latency) P(q float64) time.Duration {
	if len(l.samples) == 0 {
		return 0
	}
	if !l.sorted {
		sort.Slice(l.samples, func(i, j int) bool { return l.samples[i] < l.samples[j] })
		l.sorted = true
	}
	idx := int(math.Ceil(q*float64(len(l.samples)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(l.samples) {
		idx = len(l.samples) - 1
	}
	return l.samples[idx]
}

// Max returns the largest sample.
func (l *Latency) Max() time.Duration { return l.P(1) }

// Samples returns a copy of the recorded samples (sorted ascending).
func (l *Latency) Samples() []time.Duration {
	l.P(0) // force sort
	out := make([]time.Duration, len(l.samples))
	copy(out, l.samples)
	return out
}

// FractionUnder returns the fraction of samples at or below the bound
// (SLO-compliance rate). An empty recorder is vacuously compliant: with no
// requests recorded, none violated the bound, so the fraction is 1.
func (l *Latency) FractionUnder(bound time.Duration) float64 {
	if len(l.samples) == 0 {
		return 1
	}
	n := 0
	for _, s := range l.samples {
		if s <= bound {
			n++
		}
	}
	return float64(n) / float64(len(l.samples))
}

// Mean is a running mean of durations: a sum and a count, constant-size
// however many samples it sees. Its Mean() is bit-identical to
// Latency.Mean() over the same samples.
type Mean struct {
	sum time.Duration
	n   int
}

// Add records one sample.
func (m *Mean) Add(d time.Duration) {
	m.sum += d
	m.n++
}

// Count returns the sample count.
func (m *Mean) Count() int { return m.n }

// Sum returns the sum of the samples.
func (m *Mean) Sum() time.Duration { return m.sum }

// Mean returns the arithmetic mean, or 0 with no samples.
func (m *Mean) Mean() time.Duration {
	if m.n == 0 {
		return 0
	}
	return m.sum / time.Duration(m.n)
}

// Timeline summarizes a scalar signal sampled at non-decreasing instants:
// its peak, its time-weighted mean and its sample count. It keeps
// constant-size state instead of the samples: the last sample, the peak of
// the samples before it, and the area and span of the intervals those
// samples closed, summed in sample order. Every answer is bit-identical to
// a scan over the recorded samples. A sample at the instant of the previous
// one replaces it.
type Timeline struct {
	n     int
	last  time.Duration // instant of the last sample
	lastV float64       // value of the last sample
	peak  float64       // peak of the samples before the last
	area  float64       // Σ value·dt over the closed intervals
	span  float64       // Σ dt over the closed intervals, in seconds
}

// Add records value v at instant at. Instants must be non-decreasing; a
// sample at the previous sample's instant replaces it.
func (t *Timeline) Add(at time.Duration, v float64) {
	if t.n > 0 {
		if at < t.last {
			panic(fmt.Sprintf("metrics: timeline sample at %v before %v", at, t.last))
		}
		if at == t.last {
			t.lastV = v
			return
		}
		dt := (at - t.last).Seconds()
		t.area += t.lastV * dt
		t.span += dt
		if t.n == 1 || t.lastV > t.peak {
			t.peak = t.lastV
		}
	}
	t.n++
	t.last, t.lastV = at, v
}

// Len returns the sample count.
func (t *Timeline) Len() int { return t.n }

// Peak returns the maximum value, or 0 when empty. The max is seeded from
// the first sample, not from zero, so all-negative signals report their true
// (negative) peak.
func (t *Timeline) Peak() float64 {
	if t.n == 1 || t.lastV > t.peak {
		return t.lastV
	}
	return t.peak
}

// Mean returns the time-weighted mean value up to the last sample time; the
// final sample gets zero weight. For signals sampled on change (where the
// last value holds until the end of the run), prefer MeanUntil with the run
// horizon so the tail is weighted.
func (t *Timeline) Mean() float64 { return t.MeanUntil(t.last) }

// MeanUntil returns the time-weighted mean value over [first sample time,
// horizon]: each sample holds until the next, and the final sample holds
// until the horizon. A horizon at or before the last sample time degenerates
// to Mean. When the weighted span is zero (single sample, or every sample at
// one instant) the last value is returned; an empty timeline returns 0.
func (t *Timeline) MeanUntil(horizon time.Duration) float64 {
	if t.n == 0 {
		return 0
	}
	if horizon < t.last {
		horizon = t.last
	}
	dt := (horizon - t.last).Seconds()
	area := t.area + t.lastV*dt
	span := t.span + dt
	if span == 0 {
		return t.lastV
	}
	return area / span
}

// AllocatorStats counts the work a flow-level bandwidth allocator performs:
// how often rates are recomputed, how much of the flow population each
// recompute touches, and how many engine events it schedules. Each
// netsim.Network owns one; in-simulation code is single-threaded and pays
// only the uncontended-atomic cost.
type AllocatorStats struct {
	// Recomputes counts rate recomputation passes.
	Recomputes atomic.Int64
	// FlowsTouched counts flows whose rate was reassigned, summed over all
	// recomputes; FlowsTouched/Recomputes is the mean recompute scope.
	FlowsTouched atomic.Int64
	// WaterFillIters counts progressive-filling iterations inside the
	// max-min water-fill.
	WaterFillIters atomic.Int64
	// EventsScheduled counts engine events the allocator scheduled
	// (debounce + completion timers).
	EventsScheduled atomic.Int64
}

// ObserveRecompute records one recompute pass over the given number of flows.
func (s *AllocatorStats) ObserveRecompute(flows int) {
	s.Recomputes.Add(1)
	s.FlowsTouched.Add(int64(flows))
}

// Counter is a monotone event counter.
type Counter struct{ N int64 }

// Inc adds one.
func (c *Counter) Inc() { c.N++ }
