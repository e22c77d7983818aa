// Package trace generates invocation traces with the three arrival patterns
// the paper samples from the Azure Functions production trace: sporadic,
// periodic, and bursty. Generation is deterministic per seed, so experiments
// are reproducible.
package trace

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// Pattern is an arrival-process shape.
type Pattern int

const (
	// Sporadic is a homogeneous Poisson process.
	Sporadic Pattern = iota
	// Periodic is a Poisson process with a sinusoidally modulated rate
	// (diurnal-style load).
	Periodic
	// Bursty alternates a low baseline with short high-rate bursts.
	Bursty
)

func (p Pattern) String() string {
	switch p {
	case Sporadic:
		return "sporadic"
	case Periodic:
		return "periodic"
	case Bursty:
		return "bursty"
	}
	return "unknown"
}

// ParsePattern parses a pattern name.
func ParsePattern(s string) (Pattern, error) {
	switch s {
	case "sporadic":
		return Sporadic, nil
	case "periodic":
		return Periodic, nil
	case "bursty":
		return Bursty, nil
	}
	return 0, fmt.Errorf("trace: unknown pattern %q", s)
}

// Spec parameterizes a trace.
type Spec struct {
	Pattern  Pattern
	Duration time.Duration
	// MeanRPS is the long-run average request rate.
	MeanRPS float64
	Seed    int64
}

// Pattern shapes: Periodic modulates its rate over periodicPeriod up to
// periodicPeak times the mean; Bursty bursts at burstFactor times the mean
// rate for burstLen on average.
const (
	periodicPeriod = time.Minute
	periodicPeak   = 1.8
	burstFactor    = 4
	burstLen       = 5 * time.Second
)

// Periodic thinning splits the period into periodicCells cells of
// periodicCell each, a whole number of nanoseconds, whose edges include the
// quarter points, so sin is monotone in every cell. Candidates from
// periodicExactFrom on take the exact path (see periodicBounds).
const (
	periodicCells     = 256
	periodicCell      = periodicPeriod / periodicCells // 234.375 ms
	periodicExactFrom = 1 << 50                        // ns, about 13 days
	periodicMargin    = 1e-9
)

// periodicBounds[c] holds a low and a high bound on the acceptance threshold
// rate(t)/peak that Generate computes for a candidate t < periodicExactFrom
// in cell c: a uniform below lo is accepted and one at or above hi rejected,
// exactly as the threshold itself would decide.
//
// The threshold is (1 + 0.8·sin φ)/1.8 at φ = 2π·t/period, which lies
// between its values at the cell's edges, and each bound pads those by
// periodicMargin. With ε = 2⁻⁵³, the margin covers every rounding:
//   - the float phase: t.Seconds() is within 2ε of t in relative terms, and
//     the product with 2π and the division by 60 s add 3ε, so below 2⁵⁰ ns
//     (φ < 1.2e5) the phase is off by at most 5ε·φ < 6.6e-11, and so is
//     sin, whose slope is at most 1;
//   - math.Sin, Cody–Waite-reduced below 2²⁹, is off by under 1e-15;
//   - 0.8·sin, 1 + …, mean·…, peak = 1.8·mean and rate/peak round five
//     times and the constants 0.8 and 1.8 once each: under 8ε ≈ 1e-15 on a
//     threshold of at most 1. Both products are at least 0.2·mean, above
//     6e-310 whenever 1/peak is finite (otherwise no gap between candidates
//     is), so even a subnormal one is within 1e-14 relative;
//   - the table's own edge values are off by under 1e-15 each.
//
// In all, the threshold is within (0.8/1.8)·6.6e-11 + 2e-14 < 3e-11 of the
// exact value, over 30 times inside the margin. The phase error grows with
// t and would pass the margin near 2⁵⁵ ns, so later candidates compute the
// threshold.
var periodicBounds = func() (b [periodicCells]struct{ lo, hi float64 }) {
	edge := func(k int) float64 {
		return (1 + 0.8*math.Sin(2*math.Pi*float64(k)/periodicCells)) / periodicPeak
	}
	for k := range b {
		x, y := edge(k), edge(k+1)
		b[k].lo, b[k].hi = min(x, y)-periodicMargin, max(x, y)+periodicMargin
	}
	return b
}()

// MaxDraws bounds the expected count of arrivals Generate draws for a spec
// (Spec.Draws): 2^30, about a hundred times the 10^7-request replays the
// simulator aims at, whose offsets alone would fill 8 GiB. A spec past it
// would exhaust memory, or draw for practically ever, so Generate refuses it.
const MaxDraws = 1 << 30

// Draws returns the expected count of arrivals Generate draws for s: the
// mean rate times the duration, and for Periodic the candidates it thins,
// drawn at the peak rate.
func (s Spec) Draws() float64 {
	n := s.MeanRPS * s.Duration.Seconds()
	if s.Pattern == Periodic {
		n *= periodicPeak
	}
	return n
}

// maxPresize caps an output's pre-size, so a huge rate allocates no more up
// front and grows by append past it.
const maxPresize = 1 << 24

// presize returns the capacity to pre-size for a Poisson count of mean mu:
// two standard deviations (and a little) above it, clamped.
func presize(mu float64) int {
	return int(min(mu+2*math.Sqrt(mu)+32, maxPresize))
}

// Generate returns sorted arrival offsets in [0, Duration), or nil for a
// non-positive duration, a rate that is not finite and positive, or a spec
// that draws more than MaxDraws arrivals on average (Spec.Draws). Every
// pattern draws its arrivals in order, so no sort is needed, and the
// result's spare capacity is at most 4√len+64, since callers keep it for a
// whole replay.
func Generate(s Spec) []time.Duration {
	if s.Duration <= 0 || s.MeanRPS <= 0 || math.IsNaN(s.MeanRPS) || math.IsInf(s.MeanRPS, 1) || s.Draws() > MaxDraws {
		return nil
	}
	rng := rand.New(rand.NewSource(s.Seed))
	secs := s.Duration.Seconds()
	var out []time.Duration
	switch s.Pattern {
	case Sporadic:
		out = poissonWindow(rng, s.MeanRPS, 0, secs, make([]time.Duration, 0, presize(s.MeanRPS*secs)))
	case Periodic:
		// Thinning: candidate Poisson at peak rate, accept with rate(t)/peak,
		// compacting the candidates in place. Each candidate draws one
		// uniform, in order, and its cell's bounds decide it; only a uniform
		// between the bounds, or a candidate from periodicExactFrom on,
		// computes the sine.
		peak := s.MeanRPS * periodicPeak
		cand := poissonWindow(rng, peak, 0, secs, make([]time.Duration, 0, presize(peak*secs)))
		out = cand[:0]
		for _, t := range cand {
			u := rng.Float64()
			if t < periodicExactFrom {
				b := &periodicBounds[t/periodicCell%periodicCells]
				if u < b.lo {
					out = append(out, t)
					continue
				}
				if u >= b.hi {
					continue
				}
			}
			phase := 2 * math.Pi * t.Seconds() / periodicPeriod.Seconds()
			rate := s.MeanRPS * (1 + 0.8*math.Sin(phase))
			if u < rate/peak {
				out = append(out, t)
			}
		}
	case Bursty:
		baseline := s.MeanRPS * 0.2
		// Choose the off-period so the long-run mean matches MeanRPS:
		// mean = (base·off + factor·mean·on) / (off + on).
		on := burstLen.Seconds()
		off := on * (burstFactor*s.MeanRPS - s.MeanRPS) / (s.MeanRPS - baseline)
		if off <= 0 {
			off = on
		}
		out = make([]time.Duration, 0, presize(s.MeanRPS*secs))
		t := 0.0
		inBurst := false
		for t < secs {
			var segLen, rate float64
			if inBurst {
				segLen = expo(rng, on)
				rate = burstFactor * s.MeanRPS
			} else {
				segLen = expo(rng, off)
				rate = baseline
			}
			segEnd := math.Min(t+segLen, secs)
			out = poissonWindow(rng, rate, t, segEnd, out)
			t = segEnd
			inBurst = !inBurst
		}
	}
	switch {
	case len(out) == 0:
		return nil
	case float64(cap(out)-len(out)) <= 4*math.Sqrt(float64(len(out)))+64:
		return out
	}
	return append(make([]time.Duration, 0, len(out)), out...)
}

// poissonWindow appends a homogeneous Poisson process over [from, to) to out.
// A zero rate (a baseline that underflowed) draws an infinite gap: nothing.
func poissonWindow(rng *rand.Rand, rate, from, to float64, out []time.Duration) []time.Duration {
	t := from
	for {
		t += expo(rng, 1/rate)
		if t >= to {
			return out
		}
		out = append(out, time.Duration(t*float64(time.Second)))
	}
}

// expo draws an exponential variate with the given mean.
func expo(rng *rand.Rand, mean float64) float64 {
	return rng.ExpFloat64() * mean
}

// Stats summarizes a trace for sanity checks and CLI inspection.
type Stats struct {
	Count   int
	Mean    float64 // requests/s
	PeakRPS float64 // max over 1s windows
	CV      float64 // coefficient of variation of inter-arrival times
}

// Summarize computes Stats over a trace of the given duration.
func Summarize(arrivals []time.Duration, dur time.Duration) Stats {
	st := Stats{Count: len(arrivals)}
	if dur <= 0 || len(arrivals) == 0 {
		return st
	}
	st.Mean = float64(len(arrivals)) / dur.Seconds()
	// Peak over 1-second windows.
	buckets := make(map[int64]int)
	for _, a := range arrivals {
		buckets[int64(a/time.Second)]++
	}
	for _, c := range buckets {
		if f := float64(c); f > st.PeakRPS {
			st.PeakRPS = f
		}
	}
	if len(arrivals) > 2 {
		var gaps []float64
		for i := 1; i < len(arrivals); i++ {
			gaps = append(gaps, (arrivals[i] - arrivals[i-1]).Seconds())
		}
		mean, sd := meanStd(gaps)
		if mean > 0 {
			st.CV = sd / mean
		}
	}
	return st
}

func meanStd(xs []float64) (mean, sd float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		sd += (x - mean) * (x - mean)
	}
	sd = math.Sqrt(sd / float64(len(xs)))
	return mean, sd
}
