// Package metrics provides the measurement primitives the experiment harness
// uses: exact-percentile latency recorders, time-series samplers, and small
// statistics helpers.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// Latency records duration samples and answers exact percentile queries
// (sorting on demand; sample counts in this repo are small enough that a
// sketch is unnecessary).
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

// Timeline records (time, value) samples of a scalar signal.
type Timeline struct {
	Times  []time.Duration
	Values []float64
}

// Add appends one sample; times must be non-decreasing.
func (t *Timeline) Add(at time.Duration, v float64) {
	if n := len(t.Times); n > 0 && at < t.Times[n-1] {
		panic(fmt.Sprintf("metrics: timeline sample at %v before %v", at, t.Times[n-1]))
	}
	t.Times = append(t.Times, at)
	t.Values = append(t.Values, v)
}

// Len returns the sample count.
func (t *Timeline) Len() int { return len(t.Times) }

// Peak returns the maximum value, or 0 when empty. The max is seeded from
// the first sample, not from zero, so all-negative signals report their true
// (negative) peak.
func (t *Timeline) Peak() float64 {
	if len(t.Values) == 0 {
		return 0
	}
	max := t.Values[0]
	for _, v := range t.Values[1:] {
		if v > max {
			max = v
		}
	}
	return max
}

// Mean returns the time-weighted mean value up to the last sample time; the
// final sample gets zero weight. For signals sampled on change (where the
// last value holds until the end of the run), prefer MeanUntil with the run
// horizon so the tail is weighted.
func (t *Timeline) Mean() float64 {
	if len(t.Times) == 0 {
		return 0
	}
	return t.MeanUntil(t.Times[len(t.Times)-1])
}

// MeanUntil returns the time-weighted mean value over [first sample time,
// horizon]: each sample holds until the next, and the final sample holds
// until the horizon. A horizon at or before the last sample time degenerates
// to Mean. When the weighted span is zero (single sample, or every sample at
// one instant) the last value is returned; an empty timeline returns 0.
func (t *Timeline) MeanUntil(horizon time.Duration) float64 {
	n := len(t.Times)
	if n == 0 {
		return 0
	}
	if horizon < t.Times[n-1] {
		horizon = t.Times[n-1]
	}
	var area, span float64
	for i := 0; i < n; i++ {
		end := horizon
		if i+1 < n {
			end = t.Times[i+1]
		}
		dt := (end - t.Times[i]).Seconds()
		area += t.Values[i] * dt
		span += dt
	}
	if span == 0 {
		return t.Values[n-1]
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
