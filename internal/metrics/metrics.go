// Package metrics provides the measurement primitives the experiment harness
// uses: exact-percentile latency recorders, bounded latency distributions,
// constant-size running means and time-series summaries, and small
// statistics helpers.
package metrics

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync/atomic"
	"time"
)

// chunkLen is the number of samples a full chunk holds: 16 KiB of uint32
// samples, 32 KiB of time.Duration ones.
const chunkLen = 1 << 12

// Latency records duration samples and answers exact percentile queries.
// It keeps 4 B per sample in [0, 2^32) ns (under about 4.29 s) and 8 B per
// any other sample, the price of exact percentiles; a recorder read only
// through Mean() is a Mean instead, which keeps constant-size state.
//
// Samples in [0, 2^32) go into a list of uint32 chunks and every other
// sample into a list of time.Duration chunks; neither list is ever widened
// or copied into the other, and every query counts both. In each list the
// first chunk doubles from 64 samples up to chunkLen and every later one
// is allocated full, so only the first chunk's samples are ever copied, at
// most one chunk per list is partly filled, and recording allocates about
// the bytes it keeps. A query sorts in place only the chunks an Add
// touched since the last query, and allocates nothing.
type Latency struct {
	narrow chunks[uint32]        // samples in [0, 2^32)
	wide   chunks[time.Duration] // every other sample
}

// chunks is one list of a Latency's samples.
type chunks[E uint32 | time.Duration] struct {
	cs     [][]E // all but the last hold chunkLen samples
	n      int
	sorted int // leading chunks sorted since their last add
}

// add records one sample.
func (c *chunks[E]) add(v E) {
	k := len(c.cs) - 1
	switch {
	case k < 0:
		c.cs, k = append(c.cs, make([]E, 0, 64)), 0
	case len(c.cs[k]) < cap(c.cs[k]): // room in the last chunk
	case k == 0 && cap(c.cs[0]) < chunkLen:
		c.cs[0] = append(make([]E, 0, 2*cap(c.cs[0])), c.cs[0]...)
	default:
		c.cs, k = append(c.cs, make([]E, 0, chunkLen)), k+1
	}
	c.cs[k] = append(c.cs[k], v)
	c.n++
	c.sorted = min(c.sorted, k)
}

// sort sorts, in place, every chunk an add touched since the last query.
func (c *chunks[E]) sort() {
	for ; c.sorted < len(c.cs); c.sorted++ {
		slices.Sort(c.cs[c.sorted])
	}
}

// atOrBelow counts the samples at or below v, a binary search per chunk.
// Every chunk must be sorted.
func (c *chunks[E]) atOrBelow(v E) int {
	n := 0
	for _, ch := range c.cs {
		n += sort.Search(len(ch), func(i int) bool { return ch[i] > v })
	}
	return n
}

// each calls f on every sample, in no particular order.
func (c *chunks[E]) each(f func(time.Duration)) {
	for _, ch := range c.cs {
		for _, v := range ch {
			f(time.Duration(v))
		}
	}
}

// Add records one sample.
func (l *Latency) Add(d time.Duration) {
	if uint64(d) < 1<<32 { // a negative d converts to at least 2^63
		l.narrow.add(uint32(d))
	} else {
		l.wide.add(d)
	}
}

// sort sorts, in place, every chunk an Add touched since the last query.
func (l *Latency) sort() {
	l.narrow.sort()
	l.wide.sort()
}

// atOrBelow counts the samples at or below v. Every chunk must be sorted.
func (l *Latency) atOrBelow(v time.Duration) int {
	n := l.wide.atOrBelow(v)
	switch {
	case v >= 1<<32:
		n += l.narrow.n
	case v >= 0:
		n += l.narrow.atOrBelow(uint32(v))
	}
	return n
}

// each calls f on every sample, in no particular order.
func (l *Latency) each(f func(time.Duration)) {
	l.narrow.each(f)
	l.wide.each(f)
}

// Count returns the sample count.
func (l *Latency) Count() int { return l.narrow.n + l.wide.n }

// Mean returns the arithmetic mean, or 0 with no samples.
func (l *Latency) Mean() time.Duration {
	n := l.Count()
	if n == 0 {
		return 0
	}
	var sum time.Duration
	l.each(func(v time.Duration) { sum += v })
	return sum / time.Duration(n)
}

// P returns the q-quantile (q in [0,1]) using nearest-rank, or 0 with no
// samples: the smallest sample v with at least rank = ⌈q·n⌉ samples at or
// below it, rank clamped to [1, n]. It binary-searches the value range:
// 64 probes, each at most one binary search per chunk.
func (l *Latency) P(q float64) time.Duration {
	n := l.Count()
	if n == 0 {
		return 0
	}
	l.sort()
	rank := min(max(int(math.Ceil(q*float64(n))), 1), n)
	// Every sample is at or below MaxInt64, so hi always qualifies. The
	// midpoint goes through the unsigned difference, which cannot overflow.
	lo, hi := time.Duration(math.MinInt64), time.Duration(math.MaxInt64)
	for lo < hi {
		mid := lo + time.Duration(uint64(hi-lo)/2)
		if l.atOrBelow(mid) >= rank {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Max returns the largest sample.
func (l *Latency) Max() time.Duration { return l.P(1) }

// Samples returns a copy of the recorded samples (sorted ascending).
func (l *Latency) Samples() []time.Duration {
	out := make([]time.Duration, 0, l.Count())
	l.each(func(v time.Duration) { out = append(out, v) })
	slices.Sort(out)
	return out
}

// FractionUnder returns the fraction of samples at or below the bound
// (SLO-compliance rate). An empty recorder is vacuously compliant: with no
// requests recorded, none violated the bound, so the fraction is 1.
func (l *Latency) FractionUnder(bound time.Duration) float64 {
	n := l.Count()
	if n == 0 {
		return 1
	}
	l.sort()
	return float64(l.atOrBelow(bound)) / float64(n)
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
