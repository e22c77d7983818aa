package cluster

import (
	"testing"
	"time"

	"grouter/internal/scheduler"
	"grouter/internal/sim"
	"grouter/internal/topology"
	"grouter/internal/workflow"
)

// qosApp deploys the driving workflow on one node with optional GPU-queue
// priority aging.
func qosApp(t *testing.T, aging time.Duration) (*sim.Engine, *App) {
	t.Helper()
	e := sim.NewEngine()
	c := New(e, topology.DGXV100(), 1, grouterPlane)
	if aging > 0 {
		c.SetQueueAging(aging)
	}
	return e, c.Deploy(workflow.Driving(), 1, scheduler.Options{Node: 0})
}

// timeDone waits for the signal and records completion time.
func timeDone(e *sim.Engine, name string, s *sim.Signal, out *time.Duration) {
	e.Go(name, func(p *sim.Proc) {
		s.Wait(p)
		*out = p.Now()
	})
}

// TestQoSHighSkipsLowQueue: with a backlog of QoSLow requests queued at the
// GPUs, a late-arriving QoSHigh request must overtake them.
func TestQoSHighSkipsLowQueue(t *testing.T) {
	e, app := qosApp(t, 0)
	defer e.Close()
	var high, low time.Duration
	e.Schedule(0, func() {
		for i := 0; i < 24; i++ {
			mustSubmit(app, Request{QoS: QoSLow})
		}
	})
	e.Schedule(5*time.Millisecond, func() {
		timeDone(e, "low", mustSubmit(app, Request{QoS: QoSLow}), &low)
		timeDone(e, "high", mustSubmit(app, Request{QoS: QoSHigh}), &high)
	})
	e.Run(0)
	if high == 0 || low == 0 {
		t.Fatalf("requests did not complete (high=%v low=%v)", high, low)
	}
	if !(high < low) {
		t.Errorf("QoSHigh finished at %v, not before the same-instant QoSLow at %v", high, low)
	}
}

// TestQoSAgingPreventsStarvation is the starvation regression: under a
// sustained QoSHigh flood, a lone QoSLow request starves behind the
// ever-refilling high-priority queue — unless aging bumps its effective
// class. With aging the low request must complete while the flood is still
// running, and far earlier than without.
func TestQoSAgingPreventsStarvation(t *testing.T) {
	const (
		floodEvery = 2 * time.Millisecond
		floodN     = 150
	)
	run := func(aging time.Duration) (low, lastHigh time.Duration) {
		e, app := qosApp(t, aging)
		defer e.Close()
		for i := 0; i < floodN; i++ {
			at := time.Duration(i) * floodEvery
			last := i == floodN-1
			e.Schedule(at, func() {
				s := mustSubmit(app, Request{QoS: QoSHigh})
				if last {
					timeDone(e, "last-high", s, &lastHigh)
				}
			})
		}
		e.Schedule(10*time.Millisecond, func() {
			timeDone(e, "low", mustSubmit(app, Request{QoS: QoSLow}), &low)
		})
		e.Run(0)
		if low == 0 || lastHigh == 0 {
			t.Fatalf("flood did not drain (low=%v lastHigh=%v)", low, lastHigh)
		}
		return low, lastHigh
	}
	starved, starvedEnd := run(0)
	aged, agedEnd := run(25 * time.Millisecond)
	// Without aging the low request drains only at the tail of the flood.
	if !(starved > starvedEnd*8/10) {
		t.Errorf("no-aging low completed at %v, expected to starve until near flood end %v",
			starved, starvedEnd)
	}
	// With aging it must complete mid-flood (its deadline), well before the
	// starved baseline.
	if !(aged < agedEnd/2) {
		t.Errorf("aged low completed at %v, want before half the flood (%v)", aged, agedEnd/2)
	}
	if !(aged < starved/2) {
		t.Errorf("aging did not help: aged %v vs starved %v", aged, starved)
	}
}

// TestQoSDefaultIsLow: the zero value admits as QoSLow, so all-default
// replays are byte-identical to the pre-QoS scheduler (every waiter equal
// priority, FIFO order).
func TestQoSDefaultIsLow(t *testing.T) {
	if QoSLow != 0 {
		t.Fatalf("QoSLow = %d, must be the zero value", QoSLow)
	}
	if !(QoSHigh > QoSLow) {
		t.Fatalf("QoSHigh (%d) must outrank QoSLow (%d)", QoSHigh, QoSLow)
	}
}
