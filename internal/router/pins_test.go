package router

import (
	"testing"
	"time"

	"grouter/internal/cluster"
	"grouter/internal/core"
	"grouter/internal/dataplane"
	"grouter/internal/fabric"
	"grouter/internal/scheduler"
	"grouter/internal/sim"
	"grouter/internal/topology"
	"grouter/internal/trace"
	"grouter/internal/workflow"
)

// TestExpiredPinsDroppedWithoutLookup replays 20k sporadic requests with a
// session ID each, never reused, through a DefaultConfig router weighing
// session affinity. No pin is ever looked up again, so only the expiry sweep
// at snapshot refresh can drop them: the map must hold only pins that
// survived the last sweep (younger than affinityTTL at the last refresh),
// stay within a few hundred entries instead of growing with the replay,
// and count every dropped pin as an affinity invalidation. The log of pin
// writes the sweep walks must hold no more than twice the most writes it
// ever held at once.
func TestExpiredPinsDroppedWithoutLookup(t *testing.T) {
	const requests = 20000
	arrivals := trace.Generate(trace.Spec{
		Pattern:  trace.Sporadic,
		Duration: time.Duration(float64(requests) / 250 * float64(time.Second)),
		MeanRPS:  250,
		Seed:     42,
	})
	e := sim.NewEngine()
	defer e.Close()
	c := cluster.New(e, topology.DGXV100(), 2, func(f *fabric.Fabric) dataplane.Plane { return core.New(f, core.FullConfig()) })
	app := c.Deploy(workflow.Driving(), 1, scheduler.Options{Node: 0, SplitAcrossNodes: true})
	cfg := DefaultConfig()
	cfg.Weights.Session = 2
	r := New(app, cfg)
	// Every pick that writes a pin goes through the route hook, so the log
	// is at its fullest right after one.
	peakLog := 0
	route := app.Route
	app.Route = func(si scheduler.StageInst, ri cluster.RouteInfo, pool []fabric.Location) (int, bool) {
		idx, ok := route(si, ri, pool)
		peakLog = max(peakLog, r.pinLog.n)
		return idx, ok
	}

	peak, samples := 0, 0
	var sample func()
	sample = func() {
		samples++
		if n := len(r.sessions); n > peak {
			peak = n
		}
		for k, pin := range r.sessions {
			if r.snapAt-pin.at >= affinityTTL {
				t.Fatalf("at %v: pin %+v written at %v outlived the sweep at %v", e.Now(), k, pin.at, r.snapAt)
			}
		}
		e.ScheduleDaemon(50*time.Millisecond, sample)
	}
	e.ScheduleDaemon(0, sample)
	if _, err := app.Replay(arrivals, cluster.ReplaySpec{
		Quantum:   10 * time.Millisecond,
		RequestAt: func(i int) cluster.Request { return cluster.Request{Session: int64(i) + 1} },
	}); err != nil {
		t.Fatal(err)
	}
	if app.Completed != len(arrivals) {
		t.Fatalf("completed %d of %d", app.Completed, len(arrivals))
	}
	if samples < 100 {
		t.Fatalf("only %d samples of the pin map", samples)
	}
	t.Logf("pin map: peak %d entries, %d at drain", peak, len(r.sessions))
	// 250 req/s × 3 stages × 0.5 s TTL ≈ 375 live pins.
	if peak == 0 || peak > 1000 {
		t.Errorf("pin map peaked at %d entries over %d unique-session requests, want (0, 1000]", peak, len(arrivals))
	}
	pinned := r.Stats.Decisions - r.Stats.Fallbacks
	if dropped := pinned - int64(len(r.sessions)); r.Stats.AffinityInvalidations != dropped {
		t.Errorf("AffinityInvalidations = %d, want %d (every pin written and no longer held)", r.Stats.AffinityInvalidations, dropped)
	}
	if r.Stats.AffinityHits != 0 {
		t.Errorf("AffinityHits = %d with no session ever repeated", r.Stats.AffinityHits)
	}
	t.Logf("pin log: peak %d writes, room for %d", peakLog, cap(r.pinLog.buf))
	if c := cap(r.pinLog.buf); c > 2*peakLog {
		t.Errorf("the pin log holds room for %d writes, more than twice its peak of %d", c, peakLog)
	}
}
