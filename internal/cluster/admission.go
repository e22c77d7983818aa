package cluster

import (
	"errors"
	"time"

	"grouter/internal/obs"
	"grouter/internal/sim"
)

// SLO-aware admission control. The front-door router installs an AdmitFn on
// the app; every submission (Submit and trace replays) consults it before
// launching the request. The hook decides per attempt:
// launch now, park the request in a virtual-time delay queue and re-ask
// after a bounded wait, or shed it outright. With no hook installed the
// launch path is untouched — byte-identical to the pre-admission runtime,
// the differential oracle's configuration.

// ErrSLOShed reports a request dropped by SLO admission control: the
// predictor saw no worker able to finish it inside its class budget, and the
// deferral bound was exhausted (or deferral was disabled). Submit returns it
// when the drop is immediate; deferred drops fire the request's completion
// signal and count in App.Shed either way.
var ErrSLOShed = errors.New("cluster: request shed by SLO admission control")

// AdmitAction is one admission decision for one attempt.
type AdmitAction int8

const (
	// AdmitRun launches the request now.
	AdmitRun AdmitAction = iota
	// AdmitDefer parks the request and re-asks after the returned delay.
	AdmitDefer
	// AdmitShed drops the request.
	AdmitShed
)

// AdmitFn decides one admission attempt. waited is the request's cumulative
// delay-queue time (zero on first attempt); the delay return is consulted
// only for AdmitDefer and must be positive (a non-positive defer delay is
// treated as AdmitRun — the delay queue must make progress). The hook runs
// in event context and must be deterministic in virtual time.
type AdmitFn func(req Request, waited time.Duration) (action AdmitAction, delay time.Duration)

// admitReq runs one admission attempt for a request submitted at t0 that has
// already waited `waited` in the delay queue. It reports whether the request
// was shed synchronously on this attempt (Submit surfaces that as
// ErrSLOShed); deferred attempts re-enter here from a scheduled callback, so
// the delay queue is the engine's deterministic (time, seq) event order —
// re-admissions of one instant replay in defer order.
func (a *App) admitReq(req Request, done *sim.Signal, t0, waited time.Duration) bool {
	action, delay := a.Admit(req, waited)
	switch {
	case action == AdmitDefer && delay > 0:
		d := a.takeDeferred()
		d.req, d.done, d.t0, d.waited = req, done, t0, waited+delay
		a.C.Engine.Schedule(delay, d.retry)
		return false
	case action == AdmitShed:
		a.shedReq(req, done, t0)
		return true
	}
	a.launchReq(req, done, t0, waited)
	return false
}

// deferred is one parked admission attempt, pooled on the app. Its retry
// callback is bound once per entry, so parking a request allocates nothing.
type deferred struct {
	a      *App
	req    Request
	done   *sim.Signal
	t0     time.Duration
	waited time.Duration
	retry  func()
}

// takeDeferred pops a parked-attempt entry off the app's free list.
func (a *App) takeDeferred() *deferred {
	if n := len(a.freeDefers); n > 0 {
		d := a.freeDefers[n-1]
		a.freeDefers[n-1] = nil
		a.freeDefers = a.freeDefers[:n-1]
		return d
	}
	d := &deferred{a: a}
	d.retry = d.readmit
	return d
}

// readmit re-asks admission for the parked request. The entry goes back to
// the free list first, so a request parked again reuses it.
func (d *deferred) readmit() {
	a, req, done, t0, waited := d.a, d.req, d.done, d.t0, d.waited
	d.req, d.done = Request{}, nil
	a.freeDefers = append(a.freeDefers, d)
	a.admitReq(req, done, t0, waited)
}

// shedReq accounts one dropped request: the shed counters, a breakdown entry
// whose single CatShed bucket tiles the request's submission-to-drop
// lifetime, and the submitter's completion signal (a closed loop must not
// hang on a dropped request).
func (a *App) shedReq(req Request, done *sim.Signal, t0 time.Duration) {
	c := a.C
	c.seq++
	a.Shed++
	a.ShedByClass[qosIndex(req.QoS)]++
	if a.Breakdown != nil {
		rb := RequestBreakdown{Seq: c.seq, Start: t0, End: c.Engine.Now()}
		rb.Buckets[obs.CatShed] = rb.End - rb.Start
		a.Breakdown.Requests = append(a.Breakdown.Requests, rb)
	}
	if done != nil {
		done.Fire()
	}
}

// qosIndex clamps a QoS class onto the per-class counter index range, so
// adversarial descriptors on the unvalidated internal path cannot index out
// of bounds.
func qosIndex(q QoS) QoS {
	if q < QoSLow || q > QoSHigh {
		return QoSLow
	}
	return q
}
