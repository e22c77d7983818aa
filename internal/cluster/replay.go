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

// replayTarget is what a trace replays into: an App or an LLMService.
type replayTarget interface {
	// startReq admits one typed request in event context and reports
	// whether admission shed it at once.
	startReq(req Request, done *sim.Signal) (shed bool)
	// served reports how many requests completed and were shed so far.
	served() (completed, shed int)
	// isolate swaps in empty latency recorders for one replay; the function
	// it returns reads the replay's own P50 and P99, then merges the earlier
	// samples back in.
	isolate() func() (p50, p99 time.Duration)
}

// replay is the trace replay App.Replay and LLMService.Replay share. It
// rejects a nil trace and a negative quantum, admits one typed request per
// arrival (offsets relative to now, sorted ascending) and runs the engine
// until it drains. With a zero quantum every arrival is scheduled at its
// exact offset; otherwise a single feeder process admits each fixed
// window's arrivals together at the window's closing edge, in trace order.
func replay(e *sim.Engine, t replayTarget, arrivals []time.Duration, spec ReplaySpec) (ReplayStats, error) {
	if arrivals == nil {
		return ReplayStats{}, ErrNilTrace
	}
	if spec.Quantum < 0 {
		return ReplayStats{}, ErrNegativeQuantum
	}
	base := e.Now()
	completed, shed := t.served()
	own := t.isolate()
	reqAt := spec.RequestAt
	admit := func(i int) {
		var req Request
		if reqAt != nil {
			req = reqAt(i)
		}
		t.startReq(req, nil)
	}
	if q := spec.Quantum; q == 0 {
		e.Reserve(len(arrivals) + 64)
		for i := range arrivals {
			i := i
			e.Schedule(arrivals[i], func() { admit(i) })
		}
	} else if len(arrivals) > 0 {
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
	e.Run(0)
	st := ReplayStats{Requests: len(arrivals), Duration: e.Now() - base}
	nowCompleted, nowShed := t.served()
	st.Completed, st.Shed = nowCompleted-completed, nowShed-shed
	st.P50, st.P99 = own()
	if st.Duration > 0 {
		st.Throughput = float64(st.Completed) / st.Duration.Seconds()
	}
	return st, nil
}

// Replay submits every arrival (offsets relative to now, sorted ascending)
// as the typed request spec.RequestAt describes and runs the engine until it
// drains, returning summary stats. A nil trace and a negative quantum are
// rejected with ErrNilTrace / ErrNegativeQuantum (an empty non-nil trace is
// a valid no-op replay). Admission order within a quantum window follows
// trace order, so the replay stays deterministic. The percentiles cover this
// replay's completions only: it records them into empty E2EClass
// distributions and merges the earlier samples back in when it is done.
func (a *App) Replay(arrivals []time.Duration, spec ReplaySpec) (ReplayStats, error) {
	return replay(a.C.Engine, a, arrivals, spec)
}

// served reports the app's completed and shed requests.
func (a *App) served() (completed, shed int) { return a.Completed, a.Shed }

// isolate swaps empty E2EClass distributions in for one replay; the
// function it returns reads the replay's P50 and P99 over both classes,
// then merges the earlier samples back in.
func (a *App) isolate() func() (p50, p99 time.Duration) {
	earlier := a.E2EClass
	a.E2EClass = [2]metrics.Dist{}
	return func() (p50, p99 time.Duration) {
		own := a.E2E()
		p50, p99 = own.P(0.5), own.P(0.99)
		for i := range earlier {
			a.E2EClass[i].Merge(&earlier[i])
		}
		return p50, p99
	}
}
