package metrics

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

func TestLatencyPercentiles(t *testing.T) {
	var l Latency
	for i := 1; i <= 100; i++ {
		l.Add(time.Duration(i) * time.Millisecond)
	}
	if got := l.P(0.5); got != 50*time.Millisecond {
		t.Errorf("P50 = %v, want 50ms", got)
	}
	if got := l.P(0.99); got != 99*time.Millisecond {
		t.Errorf("P99 = %v, want 99ms", got)
	}
	if got := l.Max(); got != 100*time.Millisecond {
		t.Errorf("Max = %v, want 100ms", got)
	}
	if got := l.Mean(); got != 50500*time.Microsecond {
		t.Errorf("Mean = %v, want 50.5ms", got)
	}
}

func TestLatencyEmpty(t *testing.T) {
	var l Latency
	if l.P(0.99) != 0 || l.Mean() != 0 || l.Count() != 0 {
		t.Error("empty recorder should return zeros")
	}
}

func TestLatencyAddAfterQuery(t *testing.T) {
	var l Latency
	l.Add(10 * time.Millisecond)
	_ = l.P(0.5)
	l.Add(time.Millisecond) // must re-sort
	if got := l.P(0); got != time.Millisecond {
		t.Errorf("min after late add = %v, want 1ms", got)
	}
}

func TestFractionUnder(t *testing.T) {
	var l Latency
	for i := 1; i <= 10; i++ {
		l.Add(time.Duration(i) * time.Second)
	}
	if got := l.FractionUnder(5 * time.Second); got != 0.5 {
		t.Errorf("FractionUnder(5s) = %f, want 0.5", got)
	}
	if got := l.FractionUnder(0); got != 0 {
		t.Errorf("FractionUnder(0) = %f, want 0", got)
	}
}

func TestPercentileWithinSamplesProperty(t *testing.T) {
	f := func(raw []uint16, qRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		var l Latency
		min, max := time.Duration(1<<62), time.Duration(0)
		for _, r := range raw {
			d := time.Duration(r) * time.Microsecond
			l.Add(d)
			if d < min {
				min = d
			}
			if d > max {
				max = d
			}
		}
		q := float64(qRaw) / 255
		got := l.P(q)
		return got >= min && got <= max
	}
	const seed = 1
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(seed))}); err != nil {
		t.Errorf("quick.Check seed %d: %v", seed, err)
	}
}

func TestTimelinePeakAndMean(t *testing.T) {
	var tl Timeline
	tl.Add(0, 10)
	tl.Add(time.Second, 30)
	tl.Add(3*time.Second, 0)
	if tl.Peak() != 30 {
		t.Errorf("Peak = %f, want 30", tl.Peak())
	}
	// Time-weighted: 10 for 1s, 30 for 2s → (10+60)/3.
	want := 70.0 / 3
	if got := tl.Mean(); got < want-1e-9 || got > want+1e-9 {
		t.Errorf("Mean = %f, want %f", got, want)
	}
	if tl.Len() != 3 {
		t.Errorf("Len = %d", tl.Len())
	}
}

// TestFractionUnderEmptyVacuous is the regression test for empty-recorder
// SLO compliance: no recorded requests means no violations, so compliance is
// vacuously 1.0, not 0.0.
func TestFractionUnderEmptyVacuous(t *testing.T) {
	var l Latency
	if got := l.FractionUnder(time.Second); got != 1.0 {
		t.Errorf("empty FractionUnder = %f, want 1.0 (vacuous compliance)", got)
	}
}

// TestTimelinePeakAllNegative is the regression test for the zero-seeded max:
// an all-negative signal must report its true (negative) peak, not 0.
func TestTimelinePeakAllNegative(t *testing.T) {
	var tl Timeline
	tl.Add(0, -7)
	tl.Add(time.Second, -3)
	tl.Add(2*time.Second, -12)
	if got := tl.Peak(); got != -3 {
		t.Errorf("Peak = %f, want -3", got)
	}
}

// TestTimelineMeanUntil covers the horizon-weighted mean on 1-, 2-, and
// n-sample timelines, including the regression case where the final sample
// previously got zero weight.
func TestTimelineMeanUntil(t *testing.T) {
	approx := func(t *testing.T, got, want float64) {
		t.Helper()
		if got < want-1e-9 || got > want+1e-9 {
			t.Errorf("got %f, want %f", got, want)
		}
	}
	t.Run("one-sample", func(t *testing.T) {
		var tl Timeline
		tl.Add(time.Second, 4)
		// Single sample holds from 1s to the horizon.
		approx(t, tl.MeanUntil(5*time.Second), 4)
		// Horizon at the sample itself: zero span, value returned.
		approx(t, tl.MeanUntil(time.Second), 4)
	})
	t.Run("two-samples", func(t *testing.T) {
		var tl Timeline
		tl.Add(0, 10)
		tl.Add(time.Second, 30)
		// 10 for 1s, then 30 for 3s → (10 + 90) / 4.
		approx(t, tl.MeanUntil(4*time.Second), 25)
		// Mean() stops at the last sample: tail gets zero weight.
		approx(t, tl.Mean(), 10)
	})
	t.Run("n-samples", func(t *testing.T) {
		var tl Timeline
		tl.Add(0, 10)
		tl.Add(time.Second, 30)
		tl.Add(3*time.Second, 0)
		// Same series as TestTimelinePeakAndMean but the final 0 now holds
		// for 2s: (10 + 60 + 0) / 5.
		approx(t, tl.MeanUntil(5*time.Second), 14)
		// A horizon before the last sample clamps to it (never truncates).
		approx(t, tl.MeanUntil(time.Second), 70.0/3)
	})
	t.Run("empty", func(t *testing.T) {
		var tl Timeline
		approx(t, tl.MeanUntil(time.Second), 0)
	})
}

func TestTimelineRejectsTimeTravel(t *testing.T) {
	var tl Timeline
	tl.Add(time.Second, 1)
	defer func() {
		if recover() == nil {
			t.Error("out-of-order timeline add should panic")
		}
	}()
	tl.Add(0, 2)
}

func TestTimelineDegenerate(t *testing.T) {
	var tl Timeline
	if tl.Mean() != 0 || tl.Peak() != 0 {
		t.Error("empty timeline should return zeros")
	}
	tl.Add(0, 5)
	if tl.Mean() != 5 {
		t.Errorf("single-sample mean = %f, want 5", tl.Mean())
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Inc()
	if c.N != 2 {
		t.Errorf("N = %d, want 2", c.N)
	}
}

// refTimeline is the slice-based Timeline that kept every sample, with the
// same-instant replacement its one caller, the store's pool sampler, applied
// by hand. It is the bit-exact oracle for the streaming Timeline.
type refTimeline struct {
	times  []time.Duration
	values []float64
}

func (t *refTimeline) add(at time.Duration, v float64) {
	if n := len(t.times); n > 0 && t.times[n-1] == at {
		t.values[n-1] = v
		return
	}
	t.times = append(t.times, at)
	t.values = append(t.values, v)
}

func (t *refTimeline) peak() float64 {
	if len(t.values) == 0 {
		return 0
	}
	max := t.values[0]
	for _, v := range t.values[1:] {
		if v > max {
			max = v
		}
	}
	return max
}

func (t *refTimeline) mean() float64 {
	if len(t.times) == 0 {
		return 0
	}
	return t.meanUntil(t.times[len(t.times)-1])
}

func (t *refTimeline) meanUntil(horizon time.Duration) float64 {
	n := len(t.times)
	if n == 0 {
		return 0
	}
	if horizon < t.times[n-1] {
		horizon = t.times[n-1]
	}
	var area, span float64
	for i := 0; i < n; i++ {
		end := horizon
		if i+1 < n {
			end = t.times[i+1]
		}
		dt := (end - t.times[i]).Seconds()
		area += t.values[i] * dt
		span += dt
	}
	if span == 0 {
		return t.values[n-1]
	}
	return area / span
}

// randomValue draws a sample value that is zero, negative, fractional or
// large, with repeats, so peaks tie and areas cancel.
func randomValue(rng *rand.Rand) float64 {
	switch rng.Intn(6) {
	case 0:
		return 0
	case 1:
		return -float64(rng.Int63n(1 << 40))
	case 2:
		return rng.NormFloat64() * 1e3
	case 3:
		return float64(rng.Int63n(1<<62)) * (1 + rng.Float64())
	case 4:
		return float64(rng.Intn(4))
	default:
		return float64(rng.Int63n(80 << 30))
	}
}

// randomStep draws the gap to the next sample instant: often zero (a
// same-instant replacement), else nanoseconds to hours.
func randomStep(rng *rand.Rand) time.Duration {
	switch rng.Intn(4) {
	case 0:
		return 0
	case 1:
		return time.Duration(rng.Int63n(1000))
	case 2:
		return time.Duration(rng.Int63n(int64(time.Second)))
	default:
		return time.Duration(rng.Int63n(int64(time.Hour)))
	}
}

// TestTimelineMatchesSliceOracle drives the streaming Timeline and the
// slice-based oracle with the same seeded series and requires every answer
// to be bit-identical after every sample, at horizons before, at and after
// the last one.
func TestTimelineMatchesSliceOracle(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var tl Timeline
		var ref refTimeline
		at := time.Duration(rng.Int63n(int64(time.Minute))) - 30*time.Second
		for i, n := 0, rng.Intn(80); i < n; i++ {
			at += randomStep(rng)
			v := randomValue(rng)
			tl.Add(at, v)
			ref.add(at, v)
			if tl.Len() != len(ref.times) {
				t.Fatalf("seed %d sample %d: Len = %d, oracle %d", seed, i, tl.Len(), len(ref.times))
			}
			if got, want := tl.Peak(), ref.peak(); got != want {
				t.Fatalf("seed %d sample %d: Peak = %v, oracle %v", seed, i, got, want)
			}
			if got, want := tl.Mean(), ref.mean(); got != want {
				t.Fatalf("seed %d sample %d: Mean = %v, oracle %v", seed, i, got, want)
			}
			first := ref.times[0]
			for _, h := range []time.Duration{first - time.Second, first, (first + at) / 2, at, at + 1, at + randomStep(rng), at + time.Hour} {
				if got, want := tl.MeanUntil(h), ref.meanUntil(h); got != want {
					t.Fatalf("seed %d sample %d: MeanUntil(%v) = %v, oracle %v", seed, i, h, got, want)
				}
			}
		}
		if tl.Len() == 0 && (tl.Peak() != 0 || tl.Mean() != 0 || tl.MeanUntil(time.Hour) != 0) {
			t.Fatalf("seed %d: empty timeline answered non-zero", seed)
		}
	}
}

// TestMeanMatchesLatency requires the running Mean to answer exactly what a
// Latency holding every sample answers, after every sample.
func TestMeanMatchesLatency(t *testing.T) {
	for seed := int64(1); seed <= 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var m Mean
		var l Latency
		var sum time.Duration
		if m.Mean() != 0 || m.Count() != 0 || m.Sum() != 0 {
			t.Fatal("empty Mean should return zeros")
		}
		for i, n := 0, rng.Intn(200); i < n; i++ {
			// Sums past 2^53 ns catch a mean taken through float64.
			d := time.Duration(rng.Int63n([]int64{1000, int64(time.Minute), 1 << 55}[rng.Intn(3)]))
			if rng.Intn(5) == 0 {
				d = -d
			}
			m.Add(d)
			l.Add(d)
			sum += d
			if m.Mean() != l.Mean() || m.Count() != l.Count() || m.Sum() != sum {
				t.Fatalf("seed %d sample %d: Mean, Count, Sum = %v, %d, %v; Latency %v, %d, sum %v",
					seed, i, m.Mean(), m.Count(), m.Sum(), l.Mean(), l.Count(), sum)
			}
		}
	}
}

// TestRecorderAddDoesNotAllocate guards the constant-size recorders: adding
// a sample must never grow the heap.
func TestRecorderAddDoesNotAllocate(t *testing.T) {
	var tl Timeline
	var at time.Duration
	if n := testing.AllocsPerRun(1000, func() {
		at += time.Millisecond
		tl.Add(at, float64(at))
	}); n != 0 {
		t.Errorf("Timeline.Add allocates %v times per call", n)
	}
	var m Mean
	if n := testing.AllocsPerRun(1000, func() { m.Add(time.Millisecond) }); n != 0 {
		t.Errorf("Mean.Add allocates %v times per call", n)
	}
}

// sliceLatency is the contiguous recorder the chunked Latency replaced: one
// slice grown by append and sorted whole on demand. It is the independent
// oracle for Latency and for the exact phase of Dist.
type sliceLatency struct {
	samples []time.Duration
	sorted  bool
}

func (l *sliceLatency) Add(d time.Duration) {
	l.samples = append(l.samples, d)
	l.sorted = false
}

func (l *sliceLatency) Count() int { return len(l.samples) }

func (l *sliceLatency) Mean() time.Duration {
	if len(l.samples) == 0 {
		return 0
	}
	var sum time.Duration
	for _, s := range l.samples {
		sum += s
	}
	return sum / time.Duration(len(l.samples))
}

func (l *sliceLatency) P(q float64) time.Duration {
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

func (l *sliceLatency) Max() time.Duration { return l.P(1) }

func (l *sliceLatency) Samples() []time.Duration {
	l.P(0) // force sort
	out := make([]time.Duration, len(l.samples))
	copy(out, l.samples)
	return out
}

func (l *sliceLatency) FractionUnder(bound time.Duration) float64 {
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

// latencyQuantiles are the quantiles the Latency checks query: both ends,
// a rank-1 fraction, the median and the tails.
var latencyQuantiles = []float64{0, 1e-9, 0.5, 0.99, 0.999, 1}

// checkLatency requires l to answer every query as the reference does:
// Count, Mean, Max, P at latencyQuantiles, FractionUnder at each bound and,
// when samples is set, Samples.
func checkLatency(t *testing.T, name string, l *Latency, ref *sliceLatency, bounds []time.Duration, samples bool) {
	t.Helper()
	if l.Count() != ref.Count() || l.Mean() != ref.Mean() || l.Max() != ref.Max() {
		t.Fatalf("%s: Count, Mean, Max = %d, %v, %v; reference %d, %v, %v",
			name, l.Count(), l.Mean(), l.Max(), ref.Count(), ref.Mean(), ref.Max())
	}
	for _, q := range latencyQuantiles {
		if got, want := l.P(q), ref.P(q); got != want {
			t.Fatalf("%s: P(%v) = %v, reference %v", name, q, got, want)
		}
	}
	for _, b := range bounds {
		if got, want := l.FractionUnder(b), ref.FractionUnder(b); got != want {
			t.Fatalf("%s: FractionUnder(%v) = %v, reference %v", name, b, got, want)
		}
	}
	if samples && !slices.Equal(l.Samples(), ref.Samples()) {
		t.Fatalf("%s: Samples differ from the reference's", name)
	}
}

// latencyStreams draw signed samples with duplicates and the int64
// extremes, which the binary search over the value range must reach. Each
// draws sample i from rng.
var latencyStreams = []struct {
	name string
	gen  func(rng *rand.Rand, i int) time.Duration
}{
	{"few-values", func(rng *rand.Rand, _ int) time.Duration { return time.Duration(rng.Intn(9) - 4) }},
	// Every sealed chunk is one value: every delta is 0.
	{"all-equal", func(*rand.Rand, int) time.Duration { return 7_777_777 }},
	{"signed-wide", func(rng *rand.Rand, _ int) time.Duration { return time.Duration(rng.Int63() - rng.Int63()) }},
	// Both int64 extremes in every sealed chunk: its keys span the whole
	// order.
	{"extremes", func(rng *rand.Rand, _ int) time.Duration {
		if rng.Intn(2) == 0 {
			return time.Duration(rng.Int63() - rng.Int63())
		}
		return []time.Duration{math.MinInt64, math.MinInt64 + 1, -1, 0, math.MaxInt64 - 1, math.MaxInt64}[rng.Intn(6)]
	}},
	{"heavy-tailed", func(rng *rand.Rand, _ int) time.Duration { return time.Duration(math.Exp(16 + 3*rng.NormFloat64())) }},
	// Both sides of 0, where the order key's top bit flips, and of 2^32.
	{"width-boundary", func(rng *rand.Rand, _ int) time.Duration {
		switch rng.Intn(3) {
		case 0:
			return []time.Duration{-1, 0, 1, 1<<32 - 2, 1<<32 - 1, 1 << 32, 1<<32 + 1}[rng.Intn(7)]
		case 1:
			return time.Duration(rng.Int63n(1 << 32))
		default:
			return 1<<32 + time.Duration(rng.Int63n(1<<20))
		}
	}},
	// Sorted input in runs of three equal samples, and reverse-sorted input.
	{"ascending", func(_ *rand.Rand, i int) time.Duration { return time.Duration(i/3) * 1_000_003 }},
	{"descending", func(_ *rand.Rand, i int) time.Duration { return -time.Duration(i) << 33 }},
	// Sorted input whose every run of indexStride samples climbs in 1 ns
	// steps but for one jump, of 100 ns or 2^40 ns, at a place that moves
	// from run to run; runs lie 2^44 ns apart. Every jump, and every gap
	// between runs that a block spans, needs the escape.
	{"escapes", func(_ *rand.Rand, i int) time.Duration {
		run, r := i/indexStride, i%indexStride
		v := time.Duration(run)<<44 + time.Duration(r)
		if r > run%(indexStride-1) {
			v += []time.Duration{100, 1 << 40}[run%2]
		}
		return v
	}},
	// Samples on a grid of chunkLen points over all of int64, as drawn:
	// deltas of 2^53 ns and more, so a seal fills its block with a few
	// hundred samples and leaves the rest open.
	{"int64-grid", func(rng *rand.Rand, _ int) time.Duration {
		return time.Duration(uint64(rng.Intn(chunkLen))*(math.MaxUint64/(chunkLen-1)) ^ 1<<63)
	}},
}

// blockProbes returns FractionUnder bounds at the block boundaries of l's
// sealed chunks: the samples on both sides of every indexStride-th rank of
// each chunk, and its last sample, each also 1 ns either side.
func blockProbes(l *Latency) []time.Duration {
	var bs []time.Duration
	for _, c := range l.sealed {
		var ch []time.Duration
		c.each(func(v time.Duration) { ch = append(ch, v) })
		for r := indexStride; r < len(ch); r += indexStride {
			for _, v := range ch[r-1 : r+1] {
				bs = append(bs, v-1, v, v+1)
			}
		}
		v := ch[len(ch)-1]
		bs = append(bs, v-1, v, v+1)
	}
	return bs
}

// TestLatencyMatchesReference drives a Latency and the contiguous reference
// with the same streams, at sizes on both sides of the open chunk's growth,
// of the index stride and of the first seal, and requires equal answers at
// two random points mid-stream, after which both keep adding, and at the
// end. Up to four chunks' worth it also checks after every seal, full or
// partial, and probes every sealed chunk's block boundaries.
func TestLatencyMatchesReference(t *testing.T) {
	for _, s := range latencyStreams {
		for _, n := range []int{0, 1, 63, 64, 65, chunkLen - 1, chunkLen, chunkLen + 1,
			chunkLen + indexStride - 1, chunkLen + indexStride, chunkLen + indexStride + 1, 3*chunkLen + 1, 123_457} {
			rng := rand.New(rand.NewSource(int64(n) + 1))
			var l Latency
			var ref sliceLatency
			check := func(name string) {
				bounds := probes(ref.Samples())
				if n <= 4*chunkLen {
					bounds = append(bounds, blockProbes(&l)...)
				}
				checkLatency(t, fmt.Sprintf("%s n=%d %s", s.name, n, name), &l, &ref, bounds, true)
			}
			stops := []int{rng.Intn(n + 1), rng.Intn(n + 1), n}
			slices.Sort(stops)
			for i := 0; i <= n; i++ {
				for len(stops) > 0 && stops[0] == i {
					stops = stops[1:]
					check(fmt.Sprintf("after %d", i))
				}
				if i < n {
					v := s.gen(rng, i)
					sealed := len(l.sealed)
					l.Add(v)
					ref.Add(v)
					if len(l.sealed) > sealed && n <= 4*chunkLen {
						check(fmt.Sprintf("after %d, seal %d with %d open", i+1, len(l.sealed), len(l.open)))
					}
				}
			}
		}
	}
}

// escaped counts the deltas of l's sealed chunks that their blocks' Rice
// parameter codes with the escape.
func escaped(l *Latency) int {
	n := 0
	for _, c := range l.sealed {
		for b := 0; b < c.blocks(); b++ {
			_, off, k := c.entry(b)
			for i := b*indexStride + 1; i < min(c.n, (b+1)*indexStride); i++ {
				var d uint64
				if d, off = c.next(off, k); d>>k >= escape {
					n++
				}
			}
		}
	}
	return n
}

// TestLatencyStreamsReachTheirCases: the escapes stream codes deltas with
// the escape, and every seal of the int64-grid stream fills its block with
// a few hundred samples and leaves the rest open.
func TestLatencyStreamsReachTheirCases(t *testing.T) {
	feed := func(name string) *Latency {
		l := new(Latency)
		for _, s := range latencyStreams {
			if s.name == name {
				rng := rand.New(rand.NewSource(1))
				for i := 0; i < 3*chunkLen+1; i++ {
					l.Add(s.gen(rng, i))
				}
			}
		}
		return l
	}
	l := feed("escapes")
	if n := escaped(l); n == 0 {
		t.Errorf("escapes: %d sealed chunks hold no escaped delta", len(l.sealed))
	}
	l = feed("int64-grid")
	for _, c := range l.sealed {
		if c.n < 256 || c.n >= chunkLen/2 {
			t.Errorf("int64-grid: a sealed chunk holds %d samples, want a few hundred", c.n)
		}
	}
	if len(l.sealed) < 4 || len(l.open) == 0 {
		t.Errorf("int64-grid: %d seals leave %d samples open, want partial seals", len(l.sealed), len(l.open))
	}
}

// sealedBytes returns the bytes of l's sealed chunks.
func sealedBytes(l *Latency) int {
	n := 0
	for _, c := range l.sealed {
		n += len(c.b)
	}
	return n
}

// TestLatencyBytesPerSample bounds what a recorder keeps per sample once it
// has recorded 512 chunks' worth: the bytes its sealed chunks encode, and
// the heap it holds. A sealed chunk fills one 4 KiB block, a size class of
// its own, unless all of a full open chunk fits in less, so the heap adds
// little past the encoding: the allocator's rounding of those smaller
// chunks, at most 1/8, and the open chunk (16 KiB) and the list of chunks,
// which stay the same size however many samples come. Log-normal samples
// around 20 ms keep under 2.2 B, where the LEB128 chunks kept 2.517 B and
// held 2.620 B; the widest equal deltas that fit a chunk inside [0, 2^32)
// ns keep about 3 B each (4.09 B with LEB128), and the widest over all of
// int64 about 7 B (8.02 B). Each index adds 11 B per 64 samples.
func TestLatencyBytesPerSample(t *testing.T) {
	const n = 512 * chunkLen
	// steps returns chunks whose keys run from key(from) in equal steps.
	steps := func(from time.Duration, step uint64) []time.Duration {
		xs := make([]time.Duration, n)
		for i := range xs {
			xs[i] = time.Duration((key(from) + uint64(i%chunkLen)*step) ^ 1<<63)
		}
		return xs
	}
	for _, c := range []struct {
		name         string
		xs           []time.Duration
		sealed, heap float64 // at most, per sample
	}{
		{"log-normal around 20 ms", benchSamples(n), 2.2, 2.2},
		{"widest equal deltas in [0, 2^32)", steps(0, (1<<32-1)/(chunkLen-1)), 3.05, 3.05},
		{"widest equal deltas over int64", steps(math.MinInt64, math.MaxUint64/(chunkLen-1)), 7, 7},
	} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		l := new(Latency)
		for _, x := range c.xs {
			l.Add(x)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		held := int64(after.HeapAlloc) - int64(before.HeapAlloc)
		fixed := 8*cap(l.open) + int(unsafe.Sizeof(chunk{}))*cap(l.sealed)
		t.Logf("%s: sealed %.3f B, heap %.3f B per sample beside %d B of open chunk and list",
			c.name, float64(sealedBytes(l))/n, float64(held-int64(fixed))/n, fixed)
		if got := float64(sealedBytes(l)) / n; got > c.sealed {
			t.Errorf("%s: sealed chunks keep %.3f B per sample, want at most %v", c.name, got, c.sealed)
		}
		if limit := int64(c.heap*n) + int64(fixed); held > limit {
			t.Errorf("%s: recorder holds %d B, want at most %d", c.name, held, limit)
		}
		runtime.KeepAlive(l)
	}
}

// TestLatencyRecordAllocation: recording 10^5 log-normal samples around
// 20 ms (benchSamples) allocates under 2.2 B per sample, plus the open
// chunk's two sizes (64 and 2,048 samples, 16.5 KiB), the chunk list's
// doubling (at most two 32 B headers per 1,024 samples) and 4 KiB for what
// the runtime allocates meanwhile: at most 247.2 KB. It measured 230,240 B;
// LEB128 chunks allocated 293,736 B, uint32 chunks 427,368 B and the
// contiguous recorder 4.1 MB.
func TestLatencyRecordAllocation(t *testing.T) {
	const n = 100_000
	xs := benchSamples(n)
	limit := uint64(11*n/5 + 8*(firstLen+chunkLen) + int(unsafe.Sizeof(chunk{}))*2*n/1024 + 4<<10)
	var l Latency
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, x := range xs {
		l.Add(x)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > limit {
		t.Errorf("recording %d samples allocated %d B, want at most %d", n, got, limit)
	}
	runtime.KeepAlive(&l)
}

// TestLatencyQueriesDoNotAllocate: on a recorder of about 10^5 samples,
// half of them below 2^32 ns, an Add followed by a query re-sorts the open
// chunk in place, and neither that nor Mean allocates. A seal seals only
// the prefix that fits its block, so the setup adds samples up to the
// first seal past 10^5 and requires the free slots it leaves to hold the
// 202 samples the runs below add, so no Add seals.
func TestLatencyQueriesDoNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sample := func() time.Duration { return time.Duration(rng.Int63() >> (31 * rng.Intn(2))) }
	var l Latency
	for i := 0; i < 100_000; i++ {
		l.Add(sample())
	}
	for sealed := len(l.sealed); len(l.sealed) == sealed; {
		l.Add(sample())
	}
	if free := chunkLen - len(l.open); free < 2*101 {
		t.Fatalf("the last seal left %d free slots, want at least %d", free, 2*101)
	}
	for name, f := range map[string]func(){
		"Add, P(0.99)":       func() { l.Add(sample()); l.P(0.99) },
		"Add, FractionUnder": func() { l.Add(sample()); l.FractionUnder(1 << 31) },
		"Mean":               func() { l.Mean() },
	} {
		if n := testing.AllocsPerRun(100, f); n != 0 {
			t.Errorf("%s allocates %v times per call", name, n)
		}
	}
}

// fuzzWord reads the i-th sample of a fuzzer-shaped stream: raw's 8-byte
// little-endian words, cycled, with the cycle count mixed in so long
// streams are not one repeated word. raw holds at least one word.
func fuzzWord(raw []byte, i int) uint64 {
	words := len(raw) / 8
	return binary.LittleEndian.Uint64(raw[8*(i%words):]) + uint64(i/words)*0x9e3779b97f4a7c15
}

// latencyWord reads the i-th sample of FuzzLatency's stream from
// fuzzWord's w. Bit 0 picks the sample's range: clear, the sample is w
// itself, any signed value; set, it is w's top 33 bits less 2^31, a value
// in [-2^31, 3·2^31) that straddles both 0, where the order key's top bit
// flips, and 2^32.
func latencyWord(raw []byte, i int) time.Duration {
	w := fuzzWord(raw, i)
	if w&1 == 0 {
		return time.Duration(w)
	}
	return time.Duration(w>>31) - 1<<31
}

// latencyStream returns FuzzLatency's n samples: latencyWord's, arranged
// by shape's low two bits as drawn, sorted ascending, sorted descending,
// or in runs of 2^(shape>>2) equal samples, one value from 2^14 on.
func latencyStream(raw []byte, n int, shape uint8) []time.Duration {
	run := 1
	if shape&3 == 3 {
		run <<= min(shape>>2, 14)
	}
	xs := make([]time.Duration, n)
	for i := range xs {
		xs[i] = latencyWord(raw, i/run)
	}
	switch shape & 3 {
	case 1:
		slices.Sort(xs)
	case 2:
		slices.Sort(xs)
		slices.Reverse(xs)
	}
	return xs
}

// fuzzSeed encodes words as a fuzzer byte stream, one little-endian 8-byte
// word each.
func fuzzSeed(words ...uint64) []byte {
	var raw []byte
	for _, w := range words {
		raw = binary.LittleEndian.AppendUint64(raw, w)
	}
	return raw
}

// FuzzLatency drives a Latency and the contiguous reference with the same
// fuzzer-shaped stream of signed samples (latencyStream), n of them, and
// queries both after every gap+1 samples (at least every n/16), so queries
// interleave with Adds, the open chunk's growth and seals, full or partial.
// Every answer must be equal.
func FuzzLatency(f *testing.F) {
	f.Add(uint16(100), uint16(6), uint8(0), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint16(chunkLen+1), uint16(63), uint8(0), []byte{0, 0, 0, 0, 0, 0, 0, 0x80, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})
	f.Add(uint16(3*chunkLen+1), uint16(999), uint8(0), []byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 0, 0, 0, 0, 0, 0xff})
	// -2, 0, 2^32-2, 2^32 and 2^32+2 as they are, and -1, 2^32-1 and
	// 2^32+1 through the odd words' range.
	near := func(v int64) uint64 { return uint64(v+1<<31)<<31 | 1 }
	f.Add(uint16(2*chunkLen+7), uint16(40), uint8(0), fuzzSeed(math.MaxUint64-1, 0, 1<<32-2, 1<<32, 1<<32+2, near(-1), near(1<<32-1), near(1<<32+1)))
	// One past an index stride beyond the seal; sorted input from MinInt64
	// to MaxInt64-1; reverse-sorted input; every sample equal; runs of 64.
	f.Add(uint16(chunkLen+indexStride+1), uint16(64), uint8(0), []byte{3, 1, 4, 1, 5, 9, 2, 6})
	f.Add(uint16(2*chunkLen+1), uint16(511), uint8(1), fuzzSeed(1<<63, 1<<63-2, 12345678))
	f.Add(uint16(3*chunkLen+1), uint16(700), uint8(2), fuzzSeed(1<<63, 1<<63-2, 1<<40))
	f.Add(uint16(2*chunkLen+1), uint16(300), uint8(3|14<<2), []byte{2, 7, 1, 8, 2, 8, 1, 8})
	f.Add(uint16(2*chunkLen+1), uint16(300), uint8(3|6<<2), []byte{2, 7, 1, 8, 2, 8, 1, 8})
	// Runs of 63 equal samples and one 2^40 above them (2^9 through the odd
	// words' range): every jump needs the escape.
	f.Add(uint16(2*chunkLen+1), uint16(100), uint8(0), fuzzSeed(append(make([]uint64, indexStride-1), 1<<40)...))
	// Sorted input over all of int64: each seal fills its block with a few
	// hundred samples and leaves the rest open.
	f.Add(uint16(4*chunkLen), uint16(0), uint8(1), fuzzSeed(1<<63))
	// Wide samples as drawn, queried every 385 samples: between partial
	// seals.
	f.Add(uint16(3*chunkLen+1), uint16(0), uint8(0), fuzzSeed(0x0123456789abcdee, 0xfedcba9876543210, 1<<62, 3<<62))
	f.Fuzz(func(t *testing.T, n, gap uint16, shape uint8, raw []byte) {
		if len(raw) < 8 {
			return
		}
		n %= 4*chunkLen + 1
		gap = max(gap, n/16)
		var l Latency
		var ref sliceLatency
		for i, v := range latencyStream(raw, int(n), shape) {
			l.Add(v)
			ref.Add(v)
			if i%(int(gap)+1) == 0 {
				checkLatency(t, fmt.Sprintf("after %d", i+1), &l, &ref, []time.Duration{v - 1, v, v + 1}, false)
			}
		}
		checkLatency(t, "end", &l, &ref, probes(ref.Samples()), true)
	})
}

// benchSamples draws n log-normal samples around 20 ms, the scale of the
// benchmark workloads' request latencies.
func benchSamples(n int) []time.Duration {
	rng := rand.New(rand.NewSource(1))
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(20e6 * math.Exp(0.5*rng.NormFloat64()))
	}
	return out
}

var sinkLatency *Latency

// BenchmarkLatencyRecord records 600k samples into a new recorder per op,
// sealing (sorting and encoding) each full chunk.
func BenchmarkLatencyRecord(b *testing.B) {
	xs := benchSamples(600_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := new(Latency)
		for _, x := range xs {
			l.Add(x)
		}
		sinkLatency = l
	}
}

// BenchmarkLatencyQuery reads P(0.5), P(0.99) and P(0.999) from a recorder
// freshly filled with 600k samples, so the first query sorts the open
// chunk; Add sorted every sealed one.
// It reports no allocations: the runtime counts a small object's bytes
// when its span is refilled, so the untimed fill would leak into them.
// TestLatencyQueriesDoNotAllocate pins the queries at 0.
func BenchmarkLatencyQuery(b *testing.B) {
	xs := benchSamples(600_000)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		l := new(Latency)
		for _, x := range xs {
			l.Add(x)
		}
		b.StartTimer()
		l.P(0.5)
		l.P(0.99)
		l.P(0.999)
	}
}
