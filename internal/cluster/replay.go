package cluster

import (
	"time"

	"grouter/internal/metrics"
	"grouter/internal/sim"
)

// ReplaySpec configures App.Replay, the typed-request trace replay.
type ReplaySpec struct {
	// Quantum groups arrivals into fixed admission windows: every request
	// whose offset falls inside a window is admitted together at the
	// window's closing edge by a single feeder process. Batched admission
	// amortizes per-request control work — the engine pays one timer per
	// window instead of one per arrival, and the autoscaler and placer see
	// whole batches instead of reacting to each request. Zero replays every
	// arrival at its exact offset; negative is rejected with
	// ErrNegativeQuantum.
	Quantum time.Duration
	// RequestAt returns the typed descriptor of the i-th admitted request
	// (0-indexed, trace order). Nil admits the zero-value Request for every
	// arrival. Descriptors are trusted — replays skip per-request Validate
	// on the admission fast path.
	RequestAt func(i int) Request
}

// ReplayStats summarizes one replayed trace in virtual time.
type ReplayStats struct {
	Requests  int
	Completed int
	// Shed counts requests dropped by SLO admission control during the
	// replay; Requests == Completed + Shed when admission control is the
	// only drop source (and Shed is zero without it).
	Shed int
	// Duration spans replay start to engine drain.
	Duration time.Duration
	// Throughput is completed requests per second of virtual time.
	Throughput float64
	// P50 and P99 are nearest-rank percentiles of this replay's own
	// completions: exact up to metrics.DistCap of them, never below the
	// exact value and at most 2^-10 above it past that.
	P50, P99 time.Duration
}

// replayDist chains a distribution of one replay's completion latencies
// onto the completion hook at *hook. restore puts the previous hook back.
func replayDist(hook *func(seq int64, at, e2e time.Duration)) (d *metrics.Dist, restore func()) {
	d = new(metrics.Dist)
	next := *hook
	*hook = func(seq int64, at, e2e time.Duration) {
		d.Add(e2e)
		if next != nil {
			next(seq, at, e2e)
		}
	}
	return d, func() { *hook = next }
}

// admitTrace schedules one admission callback per arrival (offsets relative
// to base, sorted ascending). With quantum <= 0 every arrival is scheduled at
// its exact offset; otherwise a single feeder process admits each fixed
// window's arrivals together at the window's closing edge, in trace order.
// Both shapes are shared verbatim by every replay entry point so they stay
// byte-identical.
func admitTrace(e *sim.Engine, base time.Duration, arrivals []time.Duration, quantum time.Duration, admit func(i int)) {
	if quantum <= 0 {
		e.Reserve(len(arrivals) + 64)
		for i := range arrivals {
			i := i
			e.Schedule(arrivals[i], func() { admit(i) })
		}
	} else if len(arrivals) > 0 {
		q := quantum
		e.Go("replay-feeder", func(p *sim.Proc) {
			i := 0
			for i < len(arrivals) {
				// Close of the window holding the next pending arrival.
				win := (arrivals[i]/q + 1) * q
				if wait := base + win - p.Now(); wait > 0 {
					p.Sleep(wait)
				}
				for i < len(arrivals) && arrivals[i] < win {
					admit(i)
					i++
				}
			}
		})
	}
}

// Replay submits every arrival (offsets relative to now, sorted ascending)
// as the typed request spec.RequestAt describes and runs the engine until it
// drains, returning summary stats. A nil trace and a negative quantum are
// rejected with ErrNilTrace / ErrNegativeQuantum (an empty non-nil trace is
// a valid no-op replay). Admission order within a quantum window follows
// trace order, so the replay stays deterministic. The percentiles cover this
// replay's completions only; OnComplete gains a link for the replay's
// duration and is restored when it returns.
func (a *App) Replay(arrivals []time.Duration, spec ReplaySpec) (ReplayStats, error) {
	if arrivals == nil {
		return ReplayStats{}, ErrNilTrace
	}
	if spec.Quantum < 0 {
		return ReplayStats{}, ErrNegativeQuantum
	}
	e := a.C.Engine
	base := e.Now()
	before := a.Completed
	shedBefore := a.Shed
	lat, restore := replayDist(&a.OnComplete)
	defer restore()
	reqAt := spec.RequestAt
	admitTrace(e, base, arrivals, spec.Quantum, func(i int) {
		var req Request
		if reqAt != nil {
			req = reqAt(i)
		}
		a.startReq(req, nil)
	})
	e.Run(0)
	st := ReplayStats{
		Requests:  len(arrivals),
		Completed: a.Completed - before,
		Shed:      a.Shed - shedBefore,
		Duration:  e.Now() - base,
		P50:       lat.P(0.5),
		P99:       lat.P(0.99),
	}
	if st.Duration > 0 {
		st.Throughput = float64(st.Completed) / st.Duration.Seconds()
	}
	return st, nil
}
