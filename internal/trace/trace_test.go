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
			phase := 2 * math.Pi * t.Seconds() / periodicPeriod.Seconds()
			rate := s.MeanRPS * (1 + 0.8*math.Sin(phase))
			if rng.Float64() < rate/peak {
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

// TestGenerateMatchesReference: the sort-free, pre-sized generator returns
// exactly the reference generator's arrivals (nil where it returned nil) for
// every pattern across seeds, durations and rates, with at most 4√len+64
// spare capacity, since replays keep the backing array for a whole run.
func TestGenerateMatchesReference(t *testing.T) {
	for _, p := range []Pattern{Sporadic, Periodic, Bursty} {
		for _, seed := range []int64{1, 7, 42, 815405033} {
			for _, dur := range []time.Duration{time.Millisecond, 3 * time.Second, time.Minute, 10 * time.Minute} {
				for _, rps := range []float64{0.5, 7, 80, 500} {
					s := Spec{Pattern: p, Duration: dur, MeanRPS: rps, Seed: seed}
					got, want := Generate(s), referenceGenerate(s)
					if !slices.Equal(got, want) || (got == nil) != (want == nil) {
						t.Fatalf("%+v: %d arrivals, reference has %d", s, len(got), len(want))
					}
					if slack := 4*math.Sqrt(float64(len(got))) + 64; float64(cap(got)-len(got)) > slack {
						t.Fatalf("%+v: cap %d for %d arrivals exceeds len+%.0f", s, cap(got), len(got), slack)
					}
				}
			}
		}
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
