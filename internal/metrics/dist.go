package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"time"
)

// DistCap is the number of samples a Dist keeps exactly. The sample past it
// folds the distribution into its log-linear histogram.
const DistCap = 1 << 15

// distBits sets the histogram's resolution: every value below 2^distBits ns
// has a bucket of its own, and every power of two above it is split into
// 2^distBits buckets, so a bucket is at most 2^-distBits of its lower edge
// wide.
const distBits = 10

// Dist is a bounded latency distribution. Up to DistCap samples it is a
// Latency, and every answer equals Latency's for the same samples. The
// sample past DistCap folds them into a histogram of at most 2^16 buckets
// and drops the samples, so a Dist keeps no per-sample state however many
// it sees. After the fold Count, Mean and Max stay exact; P is never below
// the exact nearest-rank answer and at most 2^-10 above it; FractionUnder
// never exceeds the exact fraction and falls short of it by at most the
// share of the one bucket that holds the bound. A Dist allocates nothing
// until its first Add, and an Add after the fold allocates only when its
// sample lands outside the buckets seen so far. Its exact buffer holds at
// most 256 KiB; a folded Dist over samples between 1 µs and 10 s holds
// about 100 KiB, and over any samples at most 216 KiB. A bucket counts at
// most 2^32-1 samples; one more panics.
type Dist struct {
	exact Latency // every sample, until the fold

	// After the fold: the count, sum and extremes of every sample, and the
	// bucket counts over buckets [lo, lo+len(counts)). counts is non-nil
	// exactly when the Dist has folded.
	n        int
	sum      time.Duration
	min, max time.Duration
	lo       int
	counts   []uint32
}

// bucketOf returns the index of the bucket holding v >= 0. Buckets are
// numbered in value order: v itself below 2^(distBits+1), then 2^distBits
// buckets for each further power of two.
func bucketOf(v time.Duration) int {
	s := bits.Len64(uint64(v)) - (distBits + 1)
	if s <= 0 {
		return int(v)
	}
	return s<<distBits + int(uint64(v)>>s)
}

// bucketUpper returns the largest value bucket i holds.
func bucketUpper(i int) time.Duration {
	s := i>>distBits - 1
	if s <= 0 {
		return time.Duration(i)
	}
	m := uint64(i - s<<distBits)
	return time.Duration((m+1)<<s - 1)
}

// Add records one sample. A negative sample panics: a latency is never
// negative, so one is a bug in the caller.
func (d *Dist) Add(v time.Duration) {
	if v < 0 {
		panic(fmt.Sprintf("metrics: negative latency sample %v", v))
	}
	if d.counts == nil {
		s := d.exact.samples
		if len(s) < DistCap {
			if len(s) == cap(s) {
				// Double up to the cap, so the buffer never outgrows
				// DistCap samples (256 KiB).
				d.exact.samples = append(make([]time.Duration, 0, min(max(2*cap(s), 64), DistCap)), s...)
			}
			d.exact.Add(v)
			return
		}
		d.fold()
	}
	d.n++
	d.sum += v
	d.min = min(d.min, v)
	d.max = max(d.max, v)
	d.bump(bucketOf(v), 1)
}

// fold moves the exact samples into the histogram and drops them.
func (d *Dist) fold() {
	s := d.exact.samples
	d.n, d.min, d.max = len(s), s[0], s[0]
	for _, v := range s {
		d.sum += v
		d.min = min(d.min, v)
		d.max = max(d.max, v)
	}
	d.cover(bucketOf(d.min), bucketOf(d.max))
	for _, v := range s {
		d.counts[bucketOf(v)-d.lo]++
	}
	d.exact = Latency{}
}

// cover widens the bucket window to hold buckets [lo, hi]. The window grows
// in whole octaves of 2^distBits buckets, so a stream that keeps setting new
// extremes reallocates at most once per octave.
func (d *Dist) cover(lo, hi int) {
	old := d.counts
	if old != nil {
		if lo >= d.lo && hi < d.lo+len(old) {
			return
		}
		lo, hi = min(lo, d.lo), max(hi, d.lo+len(old)-1)
	}
	const octave = 1 << distBits
	lo &^= octave - 1
	hi |= octave - 1
	d.counts = make([]uint32, hi-lo+1)
	if old != nil {
		copy(d.counts[d.lo-lo:], old)
	}
	d.lo = lo
}

// bump adds k samples to bucket i.
func (d *Dist) bump(i int, k uint32) {
	d.cover(i, i)
	c := &d.counts[i-d.lo]
	if *c > math.MaxUint32-k {
		panic("metrics: Dist bucket holds more than 2^32-1 samples")
	}
	*c += k
}

// Merge adds every sample of o to d, leaving o unchanged. The result
// answers exactly as one Dist fed both sample sets would, in any order.
func (d *Dist) Merge(o *Dist) {
	if o.counts == nil {
		for _, v := range o.exact.samples {
			d.Add(v)
		}
		return
	}
	if d.counts == nil {
		s := d.exact.samples
		*d = Dist{n: o.n, sum: o.sum, min: o.min, max: o.max, lo: o.lo, counts: slices.Clone(o.counts)}
		for _, v := range s {
			d.Add(v)
		}
		return
	}
	d.n += o.n
	d.sum += o.sum
	d.min = min(d.min, o.min)
	d.max = max(d.max, o.max)
	d.cover(o.lo, o.lo+len(o.counts)-1)
	for j, c := range o.counts {
		d.bump(o.lo+j, c)
	}
}

// Count returns the sample count.
func (d *Dist) Count() int {
	if d.counts == nil {
		return d.exact.Count()
	}
	return d.n
}

// Mean returns the arithmetic mean, or 0 with no samples.
func (d *Dist) Mean() time.Duration {
	if d.counts == nil {
		return d.exact.Mean()
	}
	return d.sum / time.Duration(d.n)
}

// Max returns the largest sample, or 0 with no samples.
func (d *Dist) Max() time.Duration {
	if d.counts == nil {
		return d.exact.Max()
	}
	return d.max
}

// P returns the q-quantile (q in [0,1]) using nearest-rank, or 0 with no
// samples. After the fold it is the upper edge of the bucket holding that
// rank, clamped to the smallest and largest sample.
func (d *Dist) P(q float64) time.Duration {
	if d.counts == nil {
		return d.exact.P(q)
	}
	rank := min(max(int(math.Ceil(q*float64(d.n))), 1), d.n)
	for j, c := range d.counts {
		if rank -= int(c); rank <= 0 {
			return min(max(bucketUpper(d.lo+j), d.min), d.max)
		}
	}
	return d.max
}

// FractionUnder returns the fraction of samples at or below the bound, and
// 1 with no samples (see Latency.FractionUnder). After the fold it counts
// only the buckets whose samples all lie at or below the bound: those whose
// upper edge, capped at the largest sample, is at most the bound.
func (d *Dist) FractionUnder(bound time.Duration) float64 {
	if d.counts == nil {
		return d.exact.FractionUnder(bound)
	}
	n := 0
	for j, c := range d.counts {
		if min(bucketUpper(d.lo+j), d.max) > bound {
			break
		}
		n += int(c)
	}
	return float64(n) / float64(d.n)
}

// Samples returns a copy of the recorded samples, sorted ascending. It
// panics once the Dist has folded, since the samples are gone by then.
func (d *Dist) Samples() []time.Duration {
	if d.counts != nil {
		panic("metrics: Samples on a Dist folded past DistCap samples")
	}
	return d.exact.Samples()
}
