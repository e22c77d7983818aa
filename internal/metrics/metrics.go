// Package metrics provides the measurement primitives the experiment harness
// uses: exact-percentile latency recorders, bounded latency distributions,
// constant-size running means and time-series summaries, and small
// statistics helpers.
package metrics

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync/atomic"
	"time"
)

// A Latency seals its samples chunkLen at a time, and each sealed chunk
// keeps every indexStride-th sample's key whole in its index.
const (
	chunkLen    = 1 << 11
	indexStride = 64
	indexLen    = chunkLen / indexStride // index entries per sealed chunk
	entryLen    = 8 + 2                  // an entry's key and uint16 offset
)

// Every byte offset in a sealed chunk fits an entry's uint16, however wide
// its deltas: this constant overflows, and the build fails, if it does not.
const _ = uint16(indexLen*entryLen + (chunkLen-indexLen)*binary.MaxVarintLen64)

// Latency records duration samples and answers exact percentile queries.
// Samples go into a raw open chunk, which doubles from 64 samples up to
// chunkLen and is sorted in place by the first query after an Add. The Add
// that finds it full seals it: sorts it and encodes it into one allocation
// (chunk), after which the open chunk is reused. A sealed chunk of request
// latencies keeps 2 to 2.5 B per sample; one whose samples all lie in
// [0, 2^32) ns keeps at most about 4.1 B, and any at most about 8.2 B, and
// the allocator rounds each chunk up by at most 1/8. That is the price of
// exact percentiles; a recorder read only through Mean() is a Mean
// instead, which keeps constant-size state. Queries allocate nothing.
type Latency struct {
	sealed []chunk         // each holds chunkLen samples
	open   []time.Duration // the samples since the last seal
	sorted bool            // open is sorted since its last Add
}

// chunk is a sealed chunk: chunkLen samples, sorted by their order keys
// (key), as indexLen entries and then a stream of deltas. Entry b holds the
// key of sample b·indexStride and the byte offset of the next sample's
// delta; each of the block's other indexStride-1 samples follows as the
// LEB128 delta of its key from the key before.
type chunk []byte

// key maps a sample to its order key: keys order as the samples do, over
// all of int64, so one sorted stream holds negative samples too.
func key(v time.Duration) uint64 { return uint64(v) ^ 1<<63 }

// entry returns entry b's key and offset.
func (c chunk) entry(b int) (k uint64, off int) {
	e := c[b*entryLen:]
	return binary.LittleEndian.Uint64(e), int(binary.LittleEndian.Uint16(e[8:]))
}

// seal sorts the full open chunk, appends its encoding to the sealed list
// and empties it. It sizes the encoding first, so a chunk is one exact
// allocation.
func (l *Latency) seal() {
	l.sort()
	size := indexLen * entryLen
	for i := 1; i < chunkLen; i++ {
		if i%indexStride != 0 { // the delta's LEB128 length
			size += (bits.Len64(key(l.open[i])-key(l.open[i-1])|1) + 6) / 7
		}
	}
	c := make(chunk, indexLen*entryLen, size)
	for i, v := range l.open {
		if i%indexStride != 0 {
			c = binary.AppendUvarint(c, key(v)-key(l.open[i-1]))
			continue
		}
		e := c[i/indexStride*entryLen:]
		binary.LittleEndian.PutUint64(e, key(v))
		binary.LittleEndian.PutUint16(e[8:], uint16(len(c)))
	}
	l.sealed = append(l.sealed, c)
	l.open = l.open[:0]
}

// atOrBelow counts the samples whose key is at or below k: a binary search
// for the last block starting at or below k, then at most indexStride-1
// decodes within it.
func (c chunk) atOrBelow(k uint64) int {
	b := sort.Search(indexLen, func(b int) bool { first, _ := c.entry(b); return first > k }) - 1
	if b < 0 {
		return 0
	}
	x, off := c.entry(b)
	n := b*indexStride + 1
	for ; n < (b+1)*indexStride; n++ {
		d, w := binary.Uvarint(c[off:])
		if x += d; x > k {
			break
		}
		off += w
	}
	return n
}

// each calls f on every sample, in ascending order.
func (c chunk) each(f func(time.Duration)) {
	for b := 0; b < indexLen; b++ {
		x, off := c.entry(b)
		f(time.Duration(x ^ 1<<63))
		for i := 1; i < indexStride; i++ {
			d, w := binary.Uvarint(c[off:])
			x += d
			off += w
			f(time.Duration(x ^ 1<<63))
		}
	}
}

// Add records one sample.
func (l *Latency) Add(d time.Duration) {
	if len(l.open) == cap(l.open) {
		if cap(l.open) < chunkLen {
			l.open = append(make([]time.Duration, 0, max(64, 2*cap(l.open))), l.open...)
		} else {
			l.seal()
		}
	}
	l.open = append(l.open, d)
	l.sorted = false
}

// sort sorts the open chunk in place, if an Add touched it since the last
// query.
func (l *Latency) sort() {
	if !l.sorted {
		slices.Sort(l.open)
		l.sorted = true
	}
}

// atOrBelow counts the samples at or below v. The open chunk must be
// sorted.
func (l *Latency) atOrBelow(v time.Duration) int {
	n := sort.Search(len(l.open), func(i int) bool { return l.open[i] > v })
	for _, c := range l.sealed {
		n += c.atOrBelow(key(v))
	}
	return n
}

// each calls f on every sample, in no particular order.
func (l *Latency) each(f func(time.Duration)) {
	for _, c := range l.sealed {
		c.each(f)
	}
	for _, v := range l.open {
		f(v)
	}
}

// Count returns the sample count.
func (l *Latency) Count() int { return len(l.sealed)*chunkLen + len(l.open) }

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

// last returns the chunk's largest sample's key: its last block's first key
// plus the block's deltas.
func (c chunk) last() uint64 {
	x, off := c.entry(indexLen - 1)
	for i := 1; i < indexStride; i++ {
		d, w := binary.Uvarint(c[off:])
		x += d
		off += w
	}
	return x
}

// bounds returns the smallest and the largest sample. There must be one,
// and the open chunk must be sorted.
func (l *Latency) bounds() (lo, hi time.Duration) {
	kl, kh := uint64(math.MaxUint64), uint64(0)
	if n := len(l.open); n > 0 {
		kl, kh = key(l.open[0]), key(l.open[n-1])
	}
	for _, c := range l.sealed {
		first, _ := c.entry(0)
		kl, kh = min(kl, first), max(kh, c.last())
	}
	return time.Duration(kl ^ 1<<63), time.Duration(kh ^ 1<<63)
}

// P returns the q-quantile (q in [0,1]) using nearest-rank, or 0 with no
// samples: the smallest sample v with at least rank = ⌈q·n⌉ samples at or
// below it, rank clamped to [1, n]. It binary-searches the values between
// the smallest and the largest sample, ⌈log2(max−min+1)⌉ probes (about 30
// for millisecond latencies), each a binary search of the open chunk and of
// every sealed chunk's index, and at most indexStride-1 decodes per sealed
// chunk.
func (l *Latency) P(q float64) time.Duration {
	n := l.Count()
	if n == 0 {
		return 0
	}
	l.sort()
	rank := min(max(int(math.Ceil(q*float64(n))), 1), n)
	// No sample lies below lo, so the answer is at least lo, and every
	// sample is at or below hi, so hi qualifies. The midpoint goes through
	// the unsigned difference, which cannot overflow.
	lo, hi := l.bounds()
	switch rank {
	case 1:
		return lo
	case n:
		return hi
	}
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
