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

// A Latency keeps up to chunkLen samples open, and the Add that finds them
// full seals a sorted run of them into a chunk of at most blockBytes, one
// index entry per indexStride samples.
const (
	firstLen    = 64 // the open chunk's first capacity
	chunkLen    = 1 << 11
	indexStride = 64
	entryLen    = 8 + 2 + 1 // an entry's key, uint16 bit offset and Rice parameter
	blockBytes  = 4096      // a size class: no sealed chunk is longer
	escape      = 32        // a quotient this long or longer is escaped
)

// Every bit offset in a sealed chunk fits an entry's uint16: this constant
// overflows, and the build fails, if it does not.
const _ = uint16(8 * blockBytes)

// Latency records duration samples and answers exact percentile queries.
// Samples go into a raw open chunk of 64 and then chunkLen samples, sorted
// in place by the first query after an Add. The Add that finds it full sorts
// it and seals the longest prefix whose encoding fits blockBytes (4 KiB, a
// size class of its own) into one allocation, or all of it at its exact size
// when that fits; the rest stays open. A sealed chunk of request latencies
// keeps about 1.7 to 2.1 B per sample, allocator rounding included; one
// whose samples all lie in [0, 2^32) ns keeps at most about 3.3 B, and any
// at most about 7.2 B. That is the price of exact percentiles; a recorder
// read only through Mean() is a Mean instead, which keeps constant-size
// state. Queries allocate nothing.
type Latency struct {
	sealed []chunk
	n      int             // samples in sealed
	open   []time.Duration // the samples not sealed yet
	sorted bool            // open is sorted since its last Add
}

// chunk is a sealed chunk: n samples, sorted by their order keys (key), as
// an index of one entry per block of indexStride samples and then a stream
// of Rice-coded deltas. Entry b holds the key of sample b·indexStride, the
// bit offset of the next sample's delta and the block's Rice parameter k;
// each of the block's other samples follows as the delta of its key from
// the key before (see bitWriter.rice).
type chunk struct {
	b []byte
	n int
}

// key maps a sample to its order key: keys order as the samples do, over
// all of int64, so one sorted stream holds negative samples too.
func key(v time.Duration) uint64 { return uint64(v) ^ 1<<63 }

// riceK returns the Rice parameter of a block of indexStride keys whose
// span is span: the floor of log2 of their mean delta.
func riceK(span uint64) uint8 {
	return uint8(max(bits.Len64(span/(indexStride-1)), 1) - 1)
}

// riceLen returns the bits of d's Rice code with parameter k.
func riceLen(d uint64, k uint8) int {
	if q := d >> k; q < escape {
		return int(q) + 1 + int(k)
	}
	return escape + 64
}

// bitWriter writes bits into b, least significant first, from bit off on.
type bitWriter struct {
	b   []byte
	off int
}

// put writes the n low bits of v, which has no bits above them.
func (w *bitWriter) put(v uint64, n int) {
	if n > 56 {
		w.put(v&(1<<32-1), 32)
		v, n = v>>32, n-32
	}
	i, s := w.off>>3, w.off&7
	if i+8 <= len(w.b) {
		binary.LittleEndian.PutUint64(w.b[i:], binary.LittleEndian.Uint64(w.b[i:])|v<<s)
	} else {
		for v <<= s; v != 0; i, v = i+1, v>>8 {
			w.b[i] |= byte(v)
		}
	}
	w.off += n
}

// rice writes d's Rice code with parameter k: the quotient d>>k in unary,
// as that many 1 bits and a 0, then the remainder's k bits. A quotient of
// escape or more is instead escape 1 bits and all 64 bits of d.
func (w *bitWriter) rice(d uint64, k uint8) {
	q := d >> k
	if q >= escape {
		w.put(1<<escape-1, escape)
		w.put(d, 64)
		return
	}
	w.put(1<<q-1, int(q)+1)
	w.put(d&(1<<k-1), int(k))
}

// bits returns c's 64 bits from bit off on, least significant first, zero
// past its end.
func (c chunk) bits(off int) uint64 {
	i, s := off>>3, off&7
	var v uint64
	if i+8 <= len(c.b) {
		v = binary.LittleEndian.Uint64(c.b[i:])
	} else {
		for j := len(c.b) - 1; j >= i; j-- {
			v = v<<8 | uint64(c.b[j])
		}
	}
	v >>= s
	if s != 0 && i+8 < len(c.b) {
		v |= uint64(c.b[i+8]) << (64 - s)
	}
	return v
}

// next decodes the delta at bit off, coded with parameter k, and returns it
// and the bit offset after it.
func (c chunk) next(off int, k uint8) (uint64, int) {
	v := c.bits(off)
	q := bits.TrailingZeros64(^v)
	if q >= escape {
		return c.bits(off + escape), off + escape + 64
	}
	off += q + 1
	if q+1+int(k) <= 64 {
		v >>= q + 1
	} else {
		v = c.bits(off)
	}
	return uint64(q)<<k | v&(1<<k-1), off + int(k)
}

// entry returns entry b's key, bit offset and Rice parameter.
func (c chunk) entry(b int) (x uint64, off int, k uint8) {
	e := c.b[b*entryLen:]
	return binary.LittleEndian.Uint64(e), int(binary.LittleEndian.Uint16(e[8:])), e[10]
}

// blocks returns the number of index entries.
func (c chunk) blocks() int { return (c.n + indexStride - 1) / indexStride }

// seal sorts the full open chunk and seals its longest prefix whose
// encoding fits blockBytes, or all of it at its exact size when that fits;
// the rest stays open, sorted. It sizes the encoding first, so a chunk is
// one exact allocation. Each block's k comes from the mean delta of its
// indexStride open samples, sealed or not.
func (l *Latency) seal() {
	l.sort()
	o := l.open
	var ks [chunkLen / indexStride]uint8
	fits := func(entries, nbits int) bool { return entries*entryLen+(nbits+7)/8 <= blockBytes }
	m, size := 0, 0 // samples that fit, and their deltas' bits
scan:
	for b := 0; b*indexStride < len(o) && fits(b+1, size); b++ {
		blk := o[b*indexStride : (b+1)*indexStride]
		ks[b] = riceK(key(blk[indexStride-1]) - key(blk[0]))
		m++
		for i := 1; i < indexStride; i++ {
			w := riceLen(key(blk[i])-key(blk[i-1]), ks[b])
			if !fits(b+1, size+w) {
				break scan
			}
			size += w
			m++
		}
	}
	c := chunk{n: m}
	entries := c.blocks()
	c.b = make([]byte, entries*entryLen+(size+7)/8)
	w := bitWriter{b: c.b, off: 8 * entries * entryLen}
	for i, v := range o[:m] {
		b := i / indexStride
		if i%indexStride != 0 {
			w.rice(key(v)-key(o[i-1]), ks[b])
			continue
		}
		e := c.b[b*entryLen:]
		binary.LittleEndian.PutUint64(e, key(v))
		binary.LittleEndian.PutUint16(e[8:], uint16(w.off))
		e[10] = ks[b]
	}
	l.sealed = append(l.sealed, c)
	l.n += m
	l.open = o[:copy(o, o[m:])]
}

// atOrBelow counts the samples whose key is at or below x: a binary search
// for the last block starting at or below x, then at most indexStride-1
// decodes within it.
func (c chunk) atOrBelow(x uint64) int {
	b := sort.Search(c.blocks(), func(b int) bool { first, _, _ := c.entry(b); return first > x }) - 1
	if b < 0 {
		return 0
	}
	v, off, k := c.entry(b)
	n, end := b*indexStride+1, min(c.n, (b+1)*indexStride)
	for ; n < end; n++ {
		d, next := c.next(off, k)
		if v += d; v > x {
			break
		}
		off = next
	}
	return n
}

// each calls f on every sample, in ascending order.
func (c chunk) each(f func(time.Duration)) {
	for b := 0; b < c.blocks(); b++ {
		x, off, k := c.entry(b)
		f(time.Duration(x ^ 1<<63))
		for i := b*indexStride + 1; i < min(c.n, (b+1)*indexStride); i++ {
			var d uint64
			d, off = c.next(off, k)
			x += d
			f(time.Duration(x ^ 1<<63))
		}
	}
}

// Add records one sample.
func (l *Latency) Add(d time.Duration) {
	if len(l.open) == cap(l.open) {
		switch cap(l.open) {
		case 0:
			l.open = make([]time.Duration, 0, firstLen)
		case firstLen:
			l.open = append(make([]time.Duration, 0, chunkLen), l.open...)
		default:
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
func (l *Latency) Count() int { return l.n + len(l.open) }

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
	b := c.blocks() - 1
	x, off, k := c.entry(b)
	for i := b*indexStride + 1; i < c.n; i++ {
		var d uint64
		d, off = c.next(off, k)
		x += d
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
		first, _, _ := c.entry(0)
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
