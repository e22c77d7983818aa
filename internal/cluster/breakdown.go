package cluster

import (
	"time"

	"grouter/internal/obs"
)

// RequestBreakdown attributes one request's end-to-end latency to the
// obs bucket categories along its critical path.
type RequestBreakdown struct {
	Seq        int64
	Start, End time.Duration
	Buckets    [obs.NumBuckets]time.Duration
}

// E2E returns the request's end-to-end latency.
func (rb *RequestBreakdown) E2E() time.Duration { return rb.End - rb.Start }

// Sum returns the total attributed time; by construction it equals E2E.
func (rb *RequestBreakdown) Sum() time.Duration {
	var s time.Duration
	for _, d := range rb.Buckets {
		s += d
	}
	return s
}

// Breakdown collects per-request critical-path attributions for an app.
// Enable it with App.EnableBreakdown before invoking requests.
type Breakdown struct {
	Requests []RequestBreakdown
}

// EnableBreakdown switches on critical-path accounting for subsequent
// requests and returns the recorder.
func (a *App) EnableBreakdown() *Breakdown {
	a.Breakdown = &Breakdown{}
	return a.Breakdown
}

// instTrace is the per-stage-instance working state of one traced request.
// Instances are identified by their index in the app's execution plan, so a
// traced request allocates no per-request maps.
type instTrace struct {
	buckets  *obs.Buckets
	readyAt  time.Duration // all input futures resolved
	queuedAt time.Duration // queued for the compute slot
	doneAt   time.Duration // output resolved
	// crit is the plan index of the input producer whose completion gated
	// readyAt (the instance's critical predecessor); hasCrit is false for
	// source stages.
	crit    int
	hasCrit bool
}

// record finalizes one request: it walks the critical chain backwards from
// the last-finishing instance, summing each chain member's buckets and
// charging the unattributed remainder of its [readyAt, doneAt] window to
// CatOther.
//
// The chain tiles [start, end] exactly: an instance becomes ready at the
// same virtual instant its critical predecessor resolves, source instances
// become ready at the request start, and the last instance finishes at the
// request end — so the recorded bucket sum equals the end-to-end latency.
func (b *Breakdown) record(st *reqState, last int, end time.Duration) {
	rb := RequestBreakdown{Seq: st.seq, Start: st.start, End: end}
	// Admission deferral precedes the launch: the chain below tiles
	// [launch, end], and the delay-queue wait tiles [start, launch].
	rb.Buckets[obs.CatDeferWait] = st.deferWait
	cur := last
	for {
		it := &st.insts[cur]
		window := it.doneAt - it.readyAt
		var acct time.Duration
		for c, d := range it.buckets.D {
			rb.Buckets[c] += d
			acct += d
		}
		if other := window - acct; other > 0 {
			rb.Buckets[obs.CatOther] += other
		}
		if !it.hasCrit {
			// Source instance: any gap back to the request's launch (none in
			// the current runtime, which starts sources immediately) is
			// unattributed. The launch instant is the submission plus any
			// admission deferral, already charged to CatDeferWait above.
			if gap := it.readyAt - st.start - st.deferWait; gap > 0 {
				rb.Buckets[obs.CatOther] += gap
			}
			break
		}
		cur = it.crit
	}
	b.Requests = append(b.Requests, rb)
}
