package metrics

import (
	"testing"
	"testing/quick"
	"time"
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
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
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
