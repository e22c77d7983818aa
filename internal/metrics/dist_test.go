package metrics

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"
	"time"
)

// distStreams are the sample streams the Dist tests feed: each draws one
// sample from rng.
var distStreams = []struct {
	name string
	gen  func(rng *rand.Rand) time.Duration
}{
	{"uniform", func(rng *rand.Rand) time.Duration { return time.Duration(rng.Int63n(int64(10 * time.Second))) }},
	// Log-normal around 9 ms, spanning nanoseconds to minutes.
	{"heavy-tailed", func(rng *rand.Rand) time.Duration { return time.Duration(math.Exp(16 + 3*rng.NormFloat64())) }},
	{"all-equal", func(*rand.Rand) time.Duration { return 7_777_777 }},
	{"all-zero", func(*rand.Rand) time.Duration { return 0 }},
	{"sub-1024ns", func(rng *rand.Rand) time.Duration { return time.Duration(rng.Intn(1024)) }},
	{"near-max", func(rng *rand.Rand) time.Duration { return math.MaxInt64 - time.Duration(rng.Int63n(1<<50)) }},
}

var distQuantiles = []float64{0, 0.5, 0.9, 0.99, 0.999, 1}

// feed draws n samples of a stream into a Dist and a Latency.
func feed(gen func(*rand.Rand) time.Duration, seed int64, n int) (*Dist, *Latency) {
	rng := rand.New(rand.NewSource(seed))
	d, l := &Dist{}, &Latency{}
	for i := 0; i < n; i++ {
		v := gen(rng)
		d.Add(v)
		l.Add(v)
	}
	return d, l
}

// probes returns FractionUnder bounds for sorted samples: every k-th sample
// and its neighbours 1 ns either side, with k chosen for at most about 100
// samples (every sample of a short stream), plus bounds beyond both ends.
func probes(sorted []time.Duration) []time.Duration {
	bs := []time.Duration{-1, math.MinInt64, math.MaxInt64}
	k := max(1, len(sorted)/100)
	for i := 0; i < len(sorted); i += k {
		v := sorted[i]
		bs = append(bs, v, v-1)
		if v < math.MaxInt64 {
			bs = append(bs, v+1)
		}
	}
	if n := len(sorted); n > 0 {
		bs = append(bs, sorted[0]-1, sorted[n-1])
	}
	return bs
}

// TestDistExactMatchesLatency requires every answer of a Dist holding at
// most DistCap samples to equal Latency's for the same samples.
func TestDistExactMatchesLatency(t *testing.T) {
	for _, s := range distStreams {
		for _, n := range []int{0, 1, 2, DistCap - 1, DistCap} {
			d, l := feed(s.gen, int64(n)+1, n)
			if d.Count() != l.Count() || d.Mean() != l.Mean() || d.Max() != l.Max() {
				t.Fatalf("%s n=%d: Count, Mean, Max = %d, %v, %v; Latency %d, %v, %v",
					s.name, n, d.Count(), d.Mean(), d.Max(), l.Count(), l.Mean(), l.Max())
			}
			for _, q := range distQuantiles {
				if got, want := d.P(q), l.P(q); got != want {
					t.Fatalf("%s n=%d: P(%v) = %v, Latency %v", s.name, n, q, got, want)
				}
			}
			sorted := l.Samples()
			if got := d.Samples(); !slices.Equal(got, sorted) {
				t.Fatalf("%s n=%d: Samples differ from Latency's", s.name, n)
			}
			for _, b := range probes(sorted) {
				if got, want := d.FractionUnder(b), l.FractionUnder(b); got != want {
					t.Fatalf("%s n=%d: FractionUnder(%v) = %v, Latency %v", s.name, n, b, got, want)
				}
			}
		}
	}
}

// checkFolded checks a folded Dist against the exact answers over the same
// samples: Count, Mean and Max equal; P never below the exact answer, at
// most 2^-10 above it and inside [min, max]; FractionUnder never above the
// exact fraction and below it by at most the share of the bucket holding
// the bound.
func checkFolded(t *testing.T, name string, d *Dist, l *Latency) {
	t.Helper()
	if d.counts == nil {
		t.Fatalf("%s: %d samples did not fold", name, d.Count())
	}
	sorted := l.Samples()
	n := len(sorted)
	if d.Count() != n || d.Mean() != l.Mean() || d.Max() != l.Max() {
		t.Fatalf("%s: Count, Mean, Max = %d, %v, %v; exact %d, %v, %v",
			name, d.Count(), d.Mean(), d.Max(), n, l.Mean(), l.Max())
	}
	for _, q := range distQuantiles {
		got, exact := d.P(q), l.P(q)
		if got < exact || got-exact > exact>>distBits || got < sorted[0] || got > sorted[n-1] {
			t.Fatalf("%s: P(%v) = %v, exact %v, samples in [%v, %v]", name, q, got, exact, sorted[0], sorted[n-1])
		}
	}
	// at counts the sorted samples at or below b.
	at := func(b time.Duration) int { return sort.Search(n, func(i int) bool { return sorted[i] > b }) }
	for _, b := range probes(sorted) {
		got := d.FractionUnder(b)
		exact := float64(at(b)) / float64(n)
		share := 0.0
		if b >= 0 {
			i := bucketOf(b)
			lower := time.Duration(0)
			if i > 0 {
				lower = bucketUpper(i-1) + 1
			}
			share = float64(at(bucketUpper(i))-at(lower-1)) / float64(n)
		}
		if got > exact || got < exact-share-1e-12 {
			t.Fatalf("%s: FractionUnder(%v) = %v, exact %v, bucket share %v", name, b, got, exact, share)
		}
	}
}

// TestDistFoldedBounds checks the folded Dist's error bounds past DistCap.
func TestDistFoldedBounds(t *testing.T) {
	for _, s := range distStreams {
		for _, n := range []int{DistCap + 1, 100_000, 1_000_000} {
			d, l := feed(s.gen, int64(n), n)
			checkFolded(t, s.name, d, l)
		}
	}
}

// TestBucketEdges pins the bucket layout: buckets tile the non-negative
// durations in value order, each at most 2^-10 of its lower edge wide.
func TestBucketEdges(t *testing.T) {
	last := bucketOf(math.MaxInt64)
	if bucketUpper(last) != math.MaxInt64 {
		t.Fatalf("last bucket %d ends at %v", last, bucketUpper(last))
	}
	lower := time.Duration(0)
	for i := 0; i <= last; i++ {
		upper := bucketUpper(i)
		if upper < lower || bucketOf(lower) != i || bucketOf(upper) != i {
			t.Fatalf("bucket %d = [%v, %v] maps to %d, %d", i, lower, upper, bucketOf(lower), bucketOf(upper))
		}
		if lower >= 1<<distBits && upper-lower >= lower>>distBits {
			t.Fatalf("bucket %d = [%v, %v] wider than 2^-%d of its lower edge", i, lower, upper, distBits)
		}
		lower = upper + 1
	}
}

// clone deep-copies a Dist, so a test can tell whether Merge touched it.
func clone(d *Dist) *Dist {
	c := *d
	c.exact.samples = slices.Clone(d.exact.samples)
	c.counts = slices.Clone(d.counts)
	return &c
}

// sameAnswers requires two Dists to answer every query identically.
func sameAnswers(t *testing.T, name string, got, want *Dist, bounds []time.Duration) {
	t.Helper()
	if got.Count() != want.Count() || got.Mean() != want.Mean() || got.Max() != want.Max() {
		t.Fatalf("%s: Count, Mean, Max = %d, %v, %v; want %d, %v, %v",
			name, got.Count(), got.Mean(), got.Max(), want.Count(), want.Mean(), want.Max())
	}
	if (got.counts == nil) != (want.counts == nil) {
		t.Fatalf("%s: folded = %v, want %v", name, got.counts != nil, want.counts != nil)
	}
	for _, q := range distQuantiles {
		if got.P(q) != want.P(q) {
			t.Fatalf("%s: P(%v) = %v, want %v", name, q, got.P(q), want.P(q))
		}
	}
	for _, b := range bounds {
		if got.FractionUnder(b) != want.FractionUnder(b) {
			t.Fatalf("%s: FractionUnder(%v) = %v, want %v", name, b, got.FractionUnder(b), want.FractionUnder(b))
		}
	}
}

// TestDistMerge merges random splits of one stream, on every combination of
// exact and folded sides, and requires the result to answer as one Dist fed
// the whole stream, in either merge order, with the argument unchanged.
func TestDistMerge(t *testing.T) {
	for _, c := range []struct {
		name   string
		na, nb int
	}{
		{"exact+exact", 1_000, 2_000},
		{"exact+exact past the cap", 20_000, 20_000},
		{"folded+exact", 40_000, 1_000},
		{"exact+folded", 1_000, 40_000},
		{"folded+folded", 40_000, 50_000},
		{"empty+folded", 0, 40_000},
	} {
		for _, s := range distStreams[:2] {
			rng := rand.New(rand.NewSource(int64(c.na + c.nb)))
			all := make([]time.Duration, c.na+c.nb)
			for i := range all {
				all[i] = s.gen(rng)
			}
			whole, l := &Dist{}, &Latency{}
			for _, v := range all {
				whole.Add(v)
				l.Add(v)
			}
			rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
			var a, b Dist
			for _, v := range all[:c.na] {
				a.Add(v)
			}
			for _, v := range all[c.na:] {
				b.Add(v)
			}
			bounds := probes(l.Samples())
			name := c.name + "/" + s.name
			for _, order := range []struct {
				dst, src *Dist
			}{{clone(&a), &b}, {clone(&b), &a}} {
				before := clone(order.src)
				order.dst.Merge(order.src)
				if !reflect.DeepEqual(order.src, before) {
					t.Fatalf("%s: Merge changed its argument", name)
				}
				sameAnswers(t, name, order.dst, whole, bounds)
			}
		}
	}
}

// TestDistFoldedFootprint bounds a folded Dist's memory: 10^6 samples
// between 1 µs and 10 s leave at most 128 KiB reachable, and an Add inside
// the buckets already seen allocates nothing.
func TestDistFoldedFootprint(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	lo, hi := math.Log(float64(time.Microsecond)), math.Log(float64(10*time.Second))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	d := &Dist{}
	for i := 0; i < 1_000_000; i++ {
		d.Add(time.Duration(math.Exp(lo + (hi-lo)*rng.Float64())))
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if held := int64(after.HeapAlloc) - int64(before.HeapAlloc); held > 128<<10 {
		t.Errorf("folded Dist holds %d B, want at most %d", held, 128<<10)
	}
	if n := testing.AllocsPerRun(1000, func() { d.Add(time.Duration(rng.Int63n(int64(time.Second)))) }); n != 0 {
		t.Errorf("Dist.Add after the fold allocates %v times per call", n)
	}
	runtime.KeepAlive(d)
}

// TestDistSamplesPanicsAfterFold: a folded Dist has no samples to return.
func TestDistSamplesPanicsAfterFold(t *testing.T) {
	d, _ := feed(distStreams[0].gen, 1, DistCap+1)
	defer func() {
		if recover() == nil {
			t.Error("Samples on a folded Dist did not panic")
		}
	}()
	d.Samples()
}

// TestDistAddNegativePanics: a latency is never negative.
func TestDistAddNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Add(-1) did not panic")
		}
	}()
	var d Dist
	d.Add(-1)
}

// FuzzDist drives a Dist and a Latency with the same fuzzer-shaped stream
// (raw 8-byte words, shifted right by shift, cycled to n samples) and holds
// the Dist to its contract: equal answers up to DistCap samples, the folded
// bounds past it, and a merge of the stream's two halves that answers as
// the whole.
func FuzzDist(f *testing.F) {
	f.Add(uint32(10), uint8(40), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint32(DistCap), uint8(20), []byte{0xff, 0, 0x10, 0x20, 0, 0, 0, 9, 1, 1, 1, 1, 1, 1, 1, 1})
	f.Add(uint32(DistCap+1), uint8(0), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})
	f.Add(uint32(3*DistCap), uint8(33), []byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, n uint32, shift uint8, raw []byte) {
		if len(raw) < 8 {
			return
		}
		words := len(raw) / 8
		n %= 3*DistCap + 1
		var d, half, rest Dist
		var l Latency
		for i := 0; i < int(n); i++ {
			w := raw[8*(i%words) : 8*(i%words)+8]
			u := uint64(w[0]) | uint64(w[1])<<8 | uint64(w[2])<<16 | uint64(w[3])<<24 |
				uint64(w[4])<<32 | uint64(w[5])<<40 | uint64(w[6])<<48 | uint64(w[7])<<56
			// Mix the cycle count in, so long streams are not one repeated word.
			u = (u + uint64(i/words)*0x9e3779b97f4a7c15) >> 1 >> (shift % 64)
			v := time.Duration(u)
			d.Add(v)
			l.Add(v)
			if i < int(n)/2 {
				half.Add(v)
			} else {
				rest.Add(v)
			}
		}
		if int(n) <= DistCap {
			for _, q := range distQuantiles {
				if d.P(q) != l.P(q) {
					t.Fatalf("P(%v) = %v, Latency %v", q, d.P(q), l.P(q))
				}
			}
			if d.Count() != l.Count() || d.Mean() != l.Mean() || d.Max() != l.Max() {
				t.Fatalf("Count, Mean, Max = %d, %v, %v; Latency %d, %v, %v",
					d.Count(), d.Mean(), d.Max(), l.Count(), l.Mean(), l.Max())
			}
			for _, b := range probes(l.Samples()) {
				if d.FractionUnder(b) != l.FractionUnder(b) {
					t.Fatalf("FractionUnder(%v) = %v, Latency %v", b, d.FractionUnder(b), l.FractionUnder(b))
				}
			}
		} else {
			checkFolded(t, "fuzz", &d, &l)
		}
		half.Merge(&rest)
		sameAnswers(t, "merged halves", &half, &d, probes(l.Samples()))
	})
}
