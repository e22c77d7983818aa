package cluster

import (
	"errors"
	"testing"
	"time"

	"grouter/internal/obs"
	"grouter/internal/scheduler"
	"grouter/internal/sim"
	"grouter/internal/topology"
	"grouter/internal/workflow"
)

// scriptedAdmission deploys the traffic workflow with breakdown accounting
// and an Admit hook scripted per request Session:
//
//	session 1 — run immediately
//	session 2 — defer 5ms twice, then run (10ms of delay-queue time)
//	session 3 — defer 5ms once, then shed
//	session 4 — shed on first attempt (Submit must return ErrSLOShed)
func scriptedAdmission(e *sim.Engine) (*App, *Breakdown) {
	c := New(e, topology.DGXV100(), 1, grouterPlane)
	app := c.Deploy(workflow.Traffic(), 0, scheduler.Options{Node: -1})
	bd := app.EnableBreakdown()
	app.Admit = func(req Request, waited time.Duration) (AdmitAction, time.Duration) {
		switch req.Session {
		case 2:
			if waited < 10*time.Millisecond {
				return AdmitDefer, 5 * time.Millisecond
			}
		case 3:
			if waited == 0 {
				return AdmitDefer, 5 * time.Millisecond
			}
			return AdmitShed, 0
		case 4:
			return AdmitShed, 0
		}
		return AdmitRun, 0
	}
	return app, bd
}

// TestAdmissionBreakdownTiles: deferred and shed requests must still tile in
// the critical-path breakdown — a deferred request's delay-queue time lands
// in the defer-wait bucket and its bucket sum still equals E2E exactly; a
// shed request gets a single shed bucket spanning submission to drop.
func TestAdmissionBreakdownTiles(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	app, bd := scriptedAdmission(e)
	if _, err := app.Submit(Request{Session: 1}); err != nil {
		t.Fatalf("Submit(run): %v", err)
	}
	if _, err := app.Submit(Request{Session: 2}); err != nil {
		t.Fatalf("Submit(defer): %v", err)
	}
	if _, err := app.Submit(Request{Session: 3}); err != nil {
		t.Fatalf("Submit(defer-shed): %v", err)
	}
	if _, err := app.Submit(Request{Session: 4}); !errors.Is(err, ErrSLOShed) {
		t.Fatalf("Submit(immediate shed) error = %v, want ErrSLOShed", err)
	}
	e.Run(0)
	if app.Completed != 2 {
		t.Fatalf("completed %d requests, want 2 (sessions 1 and 2)", app.Completed)
	}
	if app.Shed != 2 {
		t.Fatalf("App.Shed = %d, want 2 (sessions 3 and 4)", app.Shed)
	}
	if len(bd.Requests) != 4 {
		t.Fatalf("breakdown recorded %d entries, want 4 (completions and sheds)", len(bd.Requests))
	}
	var deferred, shedWait, shedNow *RequestBreakdown
	for i := range bd.Requests {
		rb := &bd.Requests[i]
		if diff := rb.E2E() - rb.Sum(); diff < -time.Microsecond || diff > time.Microsecond {
			t.Errorf("seq %d: bucket sum %v != E2E %v", rb.Seq, rb.Sum(), rb.E2E())
		}
		switch {
		case rb.Buckets[obs.CatDeferWait] > 0:
			deferred = rb
		case rb.Buckets[obs.CatShed] > 0:
			shedWait = rb
		case rb.E2E() == 0 && rb.Buckets[obs.CatShed] == 0 && rb.Sum() == 0:
			shedNow = rb
		}
	}
	if deferred == nil {
		t.Fatal("no breakdown entry carries defer-wait time")
	}
	if got, want := deferred.Buckets[obs.CatDeferWait], 10*time.Millisecond; got != want {
		t.Errorf("defer-wait bucket = %v, want %v (two 5ms deferrals)", got, want)
	}
	if shedWait == nil {
		t.Fatal("no breakdown entry for the deferred-then-shed request")
	}
	if got, want := shedWait.Buckets[obs.CatShed], 5*time.Millisecond; got != want {
		t.Errorf("shed bucket = %v, want %v (submission to drop)", got, want)
	}
	if shedWait.Sum() != shedWait.Buckets[obs.CatShed] {
		t.Errorf("shed entry has extra buckets: sum %v, shed %v", shedWait.Sum(), shedWait.Buckets[obs.CatShed])
	}
	if shedNow == nil {
		t.Error("immediate shed left no zero-length breakdown entry")
	}
}

// TestDeferredShedFiresCompletion: a closed-loop submitter waiting on a
// request that is deferred and then shed must wake up — the drop fires the
// completion signal instead of leaving the waiter hung forever.
func TestDeferredShedFiresCompletion(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	app, _ := scriptedAdmission(e)
	woke := false
	e.Go("closed-loop", func(p *sim.Proc) {
		mustSubmit(app, Request{Session: 3}).Wait(p)
		woke = true
	})
	e.Run(0)
	if !woke {
		t.Fatal("waiter never woke after its request was shed")
	}
	if app.Shed != 1 || app.ShedByClass[QoSLow] != 1 {
		t.Fatalf("Shed/ShedByClass[low] = %d/%d, want 1/1", app.Shed, app.ShedByClass[QoSLow])
	}
}

// TestPerClassLatencyAccounting: completions land in the per-class E2E
// histograms by QoS, alongside the aggregate one.
func TestPerClassLatencyAccounting(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	c := New(e, topology.DGXV100(), 1, grouterPlane)
	app := c.Deploy(workflow.Traffic(), 0, scheduler.Options{Node: -1})
	e.Go("driver", func(p *sim.Proc) {
		mustSubmit(app, Request{}).Wait(p)
		mustSubmit(app, Request{QoS: QoSHigh}).Wait(p)
		mustSubmit(app, Request{QoS: QoSHigh}).Wait(p)
	})
	e.Run(0)
	if lo, hi := app.E2EClass[QoSLow].Count(), app.E2EClass[QoSHigh].Count(); lo != 1 || hi != 2 {
		t.Fatalf("per-class counts low=%d high=%d, want 1/2", lo, hi)
	}
	if app.E2E().Count() != 3 {
		t.Fatalf("aggregate count %d, want 3", app.E2E().Count())
	}
}

// TestDeferredAdmissionAllocFree: parking a request in the delay queue and
// re-asking admission later reuses a pooled entry whose callback is bound
// once, so a deferred attempt allocates nothing once warm. The request is
// deferred twice (the second park reuses the entry the first retry just
// returned) and then shed, so no launch runs inside the count.
func TestDeferredAdmissionAllocFree(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	c := New(e, topology.DGXV100(), 1, grouterPlane)
	app := c.Deploy(workflow.Traffic(), 0, scheduler.Options{Node: -1})
	app.Admit = func(req Request, waited time.Duration) (AdmitAction, time.Duration) {
		if waited < 10*time.Millisecond {
			return AdmitDefer, 5 * time.Millisecond
		}
		return AdmitShed, 0
	}
	req := Request{Session: 7, Model: "m"}
	attempt := func() {
		app.admitReq(req, nil, e.Now(), 0)
		e.Run(0)
	}
	attempt()
	if app.Shed != 1 {
		t.Fatalf("Shed = %d after one deferred-then-shed request, want 1", app.Shed)
	}
	if n := testing.AllocsPerRun(100, attempt); n != 0 {
		t.Errorf("a deferred admission allocates %.1f times, want 0", n)
	}
	if app.Shed != 102 {
		t.Errorf("Shed = %d, want 102 (every attempt deferred twice, then shed)", app.Shed)
	}
}
