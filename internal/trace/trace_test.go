package trace

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"
)

func TestDeterministicPerSeed(t *testing.T) {
	s := Spec{Pattern: Bursty, Duration: time.Minute, MeanRPS: 10, Seed: 7}
	a := Generate(s)
	b := Generate(s)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces differ at %d: %v vs %v", i, a[i], b[i])
		}
	}
	s.Seed = 8
	c := Generate(s)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical traces")
	}
}

func TestArrivalsSortedAndInRange(t *testing.T) {
	for _, p := range []Pattern{Sporadic, Periodic, Bursty} {
		s := Spec{Pattern: p, Duration: 30 * time.Second, MeanRPS: 20, Seed: 1}
		arr := Generate(s)
		if len(arr) == 0 {
			t.Fatalf("%v: empty trace", p)
		}
		for i, a := range arr {
			if a < 0 || a >= s.Duration {
				t.Fatalf("%v: arrival %v out of range", p, a)
			}
			if i > 0 && a < arr[i-1] {
				t.Fatalf("%v: arrivals not sorted at %d", p, i)
			}
		}
	}
}

func TestMeanRateApproximatelyHonored(t *testing.T) {
	for _, p := range []Pattern{Sporadic, Periodic, Bursty} {
		s := Spec{Pattern: p, Duration: 10 * time.Minute, MeanRPS: 50, Seed: 3}
		st := Summarize(Generate(s), s.Duration)
		if st.Mean < 30 || st.Mean > 75 {
			t.Errorf("%v: mean rate %.1f, want ≈50", p, st.Mean)
		}
	}
}

func TestBurstyIsBurstier(t *testing.T) {
	dur := 10 * time.Minute
	spor := Summarize(Generate(Spec{Pattern: Sporadic, Duration: dur, MeanRPS: 20, Seed: 5}), dur)
	burst := Summarize(Generate(Spec{Pattern: Bursty, Duration: dur, MeanRPS: 20, Seed: 5}), dur)
	if !(burst.CV > spor.CV) {
		t.Errorf("bursty CV %.2f should exceed sporadic CV %.2f", burst.CV, spor.CV)
	}
	if !(burst.PeakRPS > spor.PeakRPS) {
		t.Errorf("bursty peak %.0f should exceed sporadic peak %.0f", burst.PeakRPS, spor.PeakRPS)
	}
}

// TestPatternStatisticsBands sweeps each arrival pattern across three seeds
// and checks the summary statistics against tolerance bands derived from the
// generating processes:
//
//   - sporadic is homogeneous Poisson: at 30k expected arrivals the empirical
//     mean concentrates within ±10% of MeanRPS and the inter-arrival CV near
//     the exponential's 1;
//   - periodic thins a Poisson process by a sinusoid: the long-run mean stays
//     near MeanRPS (±20%) while rate modulation holds the CV at or above 1;
//   - bursty alternates a 0.2× baseline with 4× bursts: segment randomness
//     widens the mean band to ±40% and the CV clears the Poisson value by a
//     wide margin.
//
// Every generated trace must also be sorted, in [0, Duration), and
// regenerate byte-identically from its seed.
func TestPatternStatisticsBands(t *testing.T) {
	const dur = 10 * time.Minute
	const mean = 50.0
	cases := []struct {
		pattern          Pattern
		minMean, maxMean float64
		minCV, maxCV     float64
	}{
		{Sporadic, 45, 55, 0.90, 1.10},
		{Periodic, 40, 60, 1.00, 1.60},
		{Bursty, 30, 75, 1.30, 6.00},
	}
	for _, tc := range cases {
		for _, seed := range []int64{1, 7, 42} {
			spec := Spec{Pattern: tc.pattern, Duration: dur, MeanRPS: mean, Seed: seed}
			arr := Generate(spec)
			for i, a := range arr {
				if a < 0 || a >= dur {
					t.Fatalf("%v seed %d: arrival %v out of [0,%v)", tc.pattern, seed, a, dur)
				}
				if i > 0 && a < arr[i-1] {
					t.Fatalf("%v seed %d: arrivals not sorted at %d", tc.pattern, seed, i)
				}
			}
			again := Generate(spec)
			if len(again) != len(arr) {
				t.Fatalf("%v seed %d: regeneration length %d != %d", tc.pattern, seed, len(again), len(arr))
			}
			for i := range arr {
				if again[i] != arr[i] {
					t.Fatalf("%v seed %d: regeneration diverges at %d", tc.pattern, seed, i)
				}
			}
			st := Summarize(arr, dur)
			if st.Mean < tc.minMean || st.Mean > tc.maxMean {
				t.Errorf("%v seed %d: mean rate %.2f outside [%.0f, %.0f]",
					tc.pattern, seed, st.Mean, tc.minMean, tc.maxMean)
			}
			if st.CV < tc.minCV || st.CV > tc.maxCV {
				t.Errorf("%v seed %d: CV %.2f outside [%.2f, %.2f]",
					tc.pattern, seed, st.CV, tc.minCV, tc.maxCV)
			}
		}
	}
}

func TestEmptySpecs(t *testing.T) {
	if got := Generate(Spec{Pattern: Sporadic, Duration: 0, MeanRPS: 10}); got != nil {
		t.Errorf("zero duration trace = %v", got)
	}
	if got := Generate(Spec{Pattern: Sporadic, Duration: time.Second, MeanRPS: 0}); got != nil {
		t.Errorf("zero rate trace = %v", got)
	}
	st := Summarize(nil, time.Minute)
	if st.Count != 0 || st.Mean != 0 {
		t.Errorf("empty summarize = %+v", st)
	}
}

func TestParsePattern(t *testing.T) {
	for _, name := range []string{"sporadic", "periodic", "bursty"} {
		p, err := ParsePattern(name)
		if err != nil {
			t.Fatal(err)
		}
		if p.String() != name {
			t.Errorf("round trip %q → %q", name, p.String())
		}
	}
	if _, err := ParsePattern("wavy"); err == nil {
		t.Error("unknown pattern should error")
	}
}

// referenceGenerate is the generator as it was before arrivals were drawn
// into pre-sized buffers: per-window slices appended one by one, then a
// final sort. It is the oracle Generate must match arrival for arrival.
func referenceGenerate(s Spec) []time.Duration {
	if s.Duration <= 0 || s.MeanRPS <= 0 {
		return nil
	}
	window := func(rng *rand.Rand, rate, from, to float64) []time.Duration {
		var out []time.Duration
		if rate <= 0 {
			return out
		}
		t := from
		for {
			t += expo(rng, 1/rate)
			if t >= to {
				return out
			}
			out = append(out, time.Duration(t*float64(time.Second)))
		}
	}
	rng := rand.New(rand.NewSource(s.Seed))
	var out []time.Duration
	switch s.Pattern {
	case Sporadic:
		out = window(rng, s.MeanRPS, 0, s.Duration.Seconds())
	case Periodic:
		peak := s.MeanRPS * 1.8
		for _, t := range window(rng, peak, 0, s.Duration.Seconds()) {
			if rng.Float64() < referenceThreshold(s.MeanRPS, referencePhase(t)) {
				out = append(out, t)
			}
		}
	case Bursty:
		baseline := s.MeanRPS * 0.2
		on := burstLen.Seconds()
		off := on * (burstFactor*s.MeanRPS - s.MeanRPS) / (s.MeanRPS - baseline)
		if off <= 0 {
			off = on
		}
		t := 0.0
		end := s.Duration.Seconds()
		inBurst := false
		for t < end {
			var segLen, rate float64
			if inBurst {
				segLen = expo(rng, on)
				rate = burstFactor * s.MeanRPS
			} else {
				segLen = expo(rng, off)
				rate = baseline
			}
			segEnd := math.Min(t+segLen, end)
			out = append(out, window(rng, rate, t, segEnd)...)
			t = segEnd
			inBurst = !inBurst
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// referencePhase is the phase referenceGenerate gives a periodic candidate
// at t.
func referencePhase(t time.Duration) float64 {
	return 2 * math.Pi * t.Seconds() / periodicPeriod.Seconds()
}

// referenceThreshold is the acceptance threshold rate/peak that
// referenceGenerate compares a periodic candidate's uniform draw with.
func referenceThreshold(mean, phase float64) float64 {
	peak := mean * 1.8
	rate := mean * (1 + 0.8*math.Sin(phase))
	return rate / peak
}

// TestGenerateMatchesReference: the sort-free, pre-sized generator returns
// exactly the reference generator's arrivals (nil where it returned nil) for
// every pattern across seeds, durations and rates, with at most 4√len+64
// spare capacity, since replays keep the backing array for a whole run. The
// periodic specs include routed-slo's trace and two whose candidates run
// past periodicExactFrom, about 10^5 arrivals each.
func TestGenerateMatchesReference(t *testing.T) {
	specs := []Spec{
		{Pattern: Periodic, Duration: 750 * time.Second, MeanRPS: 500, Seed: 42},
		{Pattern: Periodic, Duration: 750 * time.Second, MeanRPS: 500, Seed: 7},
		{Pattern: Periodic, Duration: 1e9 * time.Second, MeanRPS: 1e-4, Seed: 42},
		{Pattern: Periodic, Duration: math.MaxInt64, MeanRPS: 1e-5, Seed: 7},
	}
	for _, p := range []Pattern{Sporadic, Periodic, Bursty} {
		for _, seed := range []int64{1, 7, 42, 815405033} {
			for _, dur := range []time.Duration{time.Millisecond, 3 * time.Second, time.Minute, 10 * time.Minute} {
				for _, rps := range []float64{0.5, 7, 80, 500} {
					specs = append(specs, Spec{Pattern: p, Duration: dur, MeanRPS: rps, Seed: seed})
				}
			}
		}
	}
	for _, s := range specs {
		got, want := Generate(s), referenceGenerate(s)
		if !slices.Equal(got, want) || (got == nil) != (want == nil) {
			t.Fatalf("%+v: %d arrivals, reference has %d", s, len(got), len(want))
		}
		if slack := 4*math.Sqrt(float64(len(got))) + 64; float64(cap(got)-len(got)) > slack {
			t.Fatalf("%+v: cap %d for %d arrivals exceeds len+%.0f", s, cap(got), len(got), slack)
		}
	}
}

// TestPeriodicBoundsHold: below periodicExactFrom, the reference's
// acceptance threshold lies within its cell's bounds, at mean rates from
// 4e-309 (whose products are subnormal, though 1/peak is finite) to 1e300,
// through the bench workloads' 400 and 500. Every cell is sampled densely in
// the first periods, in the last ones below the limit and in periods
// between: at each edge and the nanoseconds beside it, at the cell's last
// nanosecond and at evenly spaced points inside. At each edge the
// threshold at the float phases next to the edge's phase must also lie
// within both cells' bounds.
func TestPeriodicBoundsHold(t *testing.T) {
	const inside = 64
	last := int64(periodicExactFrom / periodicPeriod)
	within := func(mean float64, c int, phase float64, at time.Duration) {
		t.Helper()
		b := periodicBounds[c]
		if thr := referenceThreshold(mean, phase); !(b.lo <= thr && thr <= b.hi) {
			t.Fatalf("mean %g, t %v (cell %d, phase %v): threshold %.17g outside [%.17g, %.17g]",
				mean, at, c, phase, thr, b.lo, b.hi)
		}
	}
	sample := func(mean float64, at time.Duration) {
		t.Helper()
		if at >= 0 && at < periodicExactFrom {
			within(mean, int(at/periodicCell%periodicCells), referencePhase(at), at)
		}
	}
	for _, mean := range []float64{4e-309, 1e-300, 1e-5, 0.5, 400, 500, 3e7, 1e300} {
		for _, period := range []int64{0, 1, 7, 100, 1_000, 12_345, last - 1, last} {
			for c := range periodicCells {
				edge := time.Duration(period)*periodicPeriod + time.Duration(c)*periodicCell
				for _, at := range []time.Duration{edge - 1, edge, edge + 1, edge + periodicCell - 1} {
					sample(mean, at)
				}
				for i := 1; i < inside; i++ {
					sample(mean, edge+periodicCell*time.Duration(i)/inside)
				}
				if edge >= periodicExactFrom {
					continue
				}
				p := referencePhase(edge)
				for _, q := range []float64{math.Nextafter(p, math.Inf(-1)), p, math.Nextafter(p, math.Inf(1))} {
					within(mean, c, q, edge)
					within(mean, (c+periodicCells-1)%periodicCells, q, edge)
				}
			}
		}
	}
}

// FuzzGenerate: for any pattern (3 is unknown), seed, duration and rate,
// Generate returns exactly referenceGenerate's arrivals, or nil for a rate
// that is not finite and positive. The rate word holds a float64's bits; a
// rate whose expected arrivals pass 10^5 keeps its mantissa and drops its
// exponent below that, and a bursty duration is cut below 10^6 s, since
// bursty draws two segments per 24 s on average.
func FuzzGenerate(f *testing.F) {
	const maxArrivals = 1e5
	f.Add(uint8(Periodic), int64(42), int64(750*time.Second), math.Float64bits(500))
	f.Add(uint8(Periodic), int64(7), int64(math.MaxInt64), math.Float64bits(1e-5))
	f.Add(uint8(Sporadic), int64(1), int64(time.Minute), math.Float64bits(80))
	f.Add(uint8(Bursty), int64(815405033), int64(10*time.Minute), math.Float64bits(7))
	f.Add(uint8(3), int64(5), int64(time.Minute), math.Float64bits(10))
	f.Add(uint8(Periodic), int64(3), int64(time.Second), math.Float64bits(math.NaN()))
	f.Fuzz(func(t *testing.T, pattern uint8, seed, dur int64, rate uint64) {
		s := Spec{Pattern: Pattern(pattern % 4), Duration: time.Duration(dur), MeanRPS: math.Float64frombits(rate), Seed: seed}
		if !(s.MeanRPS > 0) || math.IsInf(s.MeanRPS, 1) {
			if got := Generate(s); got != nil {
				t.Fatalf("%+v: %d arrivals, want nil", s, len(got))
			}
			return
		}
		if s.Pattern == Bursty {
			s.Duration %= 1e6 * time.Second
		}
		if secs := s.Duration.Seconds(); s.MeanRPS*secs > maxArrivals {
			frac, exp := math.Frexp(s.MeanRPS)
			_, capExp := math.Frexp(maxArrivals / secs)
			s.MeanRPS = math.Ldexp(frac, min(exp, capExp-1))
		}
		got, want := Generate(s), referenceGenerate(s)
		if !slices.Equal(got, want) || (got == nil) != (want == nil) {
			t.Fatalf("%+v: %d arrivals, reference has %d", s, len(got), len(want))
		}
	})
}

var generateSink []time.Duration

// BenchmarkGenerate generates one trace per call for each pattern at the
// replay workloads' sizes: sporadic 400 req/s × 1,875 s (replay-sporadic),
// periodic 500 req/s × 750 s (routed-slo) and bursty 400 req/s × 1,875 s.
func BenchmarkGenerate(b *testing.B) {
	for _, s := range []Spec{
		{Pattern: Sporadic, Duration: 1875 * time.Second, MeanRPS: 400, Seed: 42},
		{Pattern: Periodic, Duration: 750 * time.Second, MeanRPS: 500, Seed: 42},
		{Pattern: Bursty, Duration: 1875 * time.Second, MeanRPS: 400, Seed: 42},
	} {
		b.Run(s.Pattern.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				generateSink = Generate(s)
			}
		})
	}
}

// TestGenerateRejectsNonFiniteRates: a NaN or infinite rate passes a plain
// "<= 0" check, and drawing arrivals at it never reaches the end of the
// window; Generate must treat it as invalid.
func TestGenerateRejectsNonFiniteRates(t *testing.T) {
	for _, p := range []Pattern{Sporadic, Periodic, Bursty} {
		for _, rps := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -3} {
			if got := Generate(Spec{Pattern: p, Duration: time.Second, MeanRPS: rps, Seed: 1}); got != nil {
				t.Errorf("%v at %v rps: %d arrivals, want nil", p, rps, len(got))
			}
		}
	}
}

// TestGenerateRejectsTooManyDraws: a finite rate whose expected draws pass
// MaxDraws (1e300 req/s for 1 ms once made Generate pre-size 2^24 offsets
// and then append about 10^297 more) gets nil before Generate allocates or
// draws. A periodic spec counts its candidates at the peak rate, so a mean
// rate just inside the bound is refused there too.
func TestGenerateRejectsTooManyDraws(t *testing.T) {
	for _, p := range []Pattern{Sporadic, Periodic, Bursty} {
		for _, s := range []Spec{
			{Pattern: p, Duration: time.Millisecond, MeanRPS: 1e300},
			{Pattern: p, Duration: time.Second, MeanRPS: MaxDraws * 1.0000001},
			{Pattern: p, Duration: time.Duration(math.MaxInt64), MeanRPS: 1},
		} {
			if s.Draws() <= MaxDraws {
				t.Fatalf("%+v draws %g, not past MaxDraws", s, s.Draws())
			}
			var got []time.Duration
			if n := testing.AllocsPerRun(10, func() { got = Generate(s) }); got != nil || n != 0 {
				t.Errorf("%+v: %d arrivals, %v allocations; want nil and none", s, len(got), n)
			}
		}
	}
	s := Spec{Pattern: Periodic, Duration: time.Second, MeanRPS: MaxDraws / 1.5}
	if s.Draws() <= MaxDraws || Generate(s) != nil {
		t.Errorf("periodic at %g req/s for 1 s draws %g candidates; want nil past MaxDraws", s.MeanRPS, s.Draws())
	}
	if s.Pattern = Sporadic; s.Draws() > MaxDraws {
		t.Errorf("sporadic at %g req/s for 1 s draws %g, want at most MaxDraws", s.MeanRPS, s.Draws())
	}
}

// TestPresizeClamped: the pre-size of a huge finite rate (or one whose
// expected count overflows to +Inf) is clamped, so make never panics and the
// output grows by append past the clamp.
func TestPresizeClamped(t *testing.T) {
	for _, mu := range []float64{1e9, math.MaxFloat64, math.Inf(1)} {
		if got := presize(mu); got != maxPresize {
			t.Errorf("presize(%g) = %d, want the clamp %d", mu, got, maxPresize)
		}
	}
	if got := presize(0); got != 32 {
		t.Errorf("presize(0) = %d, want 32", got)
	}
}
