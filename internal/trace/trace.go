// Package trace generates invocation traces with the three arrival patterns
// the paper samples from the Azure Functions production trace: sporadic,
// periodic, and bursty. Generation is deterministic per seed, so experiments
// are reproducible.
package trace

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
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

// Pattern shapes: Periodic modulates its rate over periodicPeriod; Bursty
// bursts at burstFactor times the mean rate for burstLen on average.
const (
	periodicPeriod = time.Minute
	burstFactor    = 4
	burstLen       = 5 * time.Second
)

// Generate returns sorted arrival offsets in [0, Duration).
func Generate(s Spec) []time.Duration {
	if s.Duration <= 0 || s.MeanRPS <= 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(s.Seed))
	var out []time.Duration
	switch s.Pattern {
	case Sporadic:
		out = poisson(rng, s.MeanRPS, s.Duration)
	case Periodic:
		// Thinning: candidate Poisson at peak rate, accept with rate(t)/peak.
		peak := s.MeanRPS * 1.8
		for _, t := range poisson(rng, peak, s.Duration) {
			phase := 2 * math.Pi * t.Seconds() / periodicPeriod.Seconds()
			rate := s.MeanRPS * (1 + 0.8*math.Sin(phase))
			if rng.Float64() < rate/peak {
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
			for _, a := range poissonWindow(rng, rate, t, segEnd) {
				out = append(out, a)
			}
			t = segEnd
			inBurst = !inBurst
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// poisson draws a homogeneous Poisson process over [0, dur).
func poisson(rng *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	return poissonWindow(rng, rate, 0, dur.Seconds())
}

func poissonWindow(rng *rand.Rand, rate, from, to float64) []time.Duration {
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
