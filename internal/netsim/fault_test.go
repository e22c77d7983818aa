package netsim

import (
	"math"
	"testing"
	"time"

	"grouter/internal/sim"
	"grouter/internal/topology"
)

func TestFailLinkKillsMidFlightFlow(t *testing.T) {
	e := sim.NewEngine()
	n := testNet(e, 100)
	var f *Flow
	var at time.Duration
	e.Go("xfer", func(p *sim.Proc) {
		f = n.Start("doomed", []topology.LinkID{0}, 1000, Options{})
		f.Done().Wait(p)
		at = p.Now()
	})
	e.Go("fault", func(p *sim.Proc) {
		p.Sleep(4 * time.Second)
		n.FailLink(0)
	})
	run(t, e)
	if !f.Failed() {
		t.Fatal("flow on failed link not marked failed")
	}
	approx(t, at, 4*time.Second, 1e-6, "done fires at the failure instant")
	// Progress up to the failure is frozen, not lost: 4s at 100 B/s.
	if got := f.Transferred(); math.Abs(got-400) > 1 {
		t.Errorf("Transferred = %f, want 400", got)
	}
	if got := f.Remaining(); math.Abs(got-600) > 1 {
		t.Errorf("Remaining = %f, want 600", got)
	}
	if got := f.Transferred() + f.Remaining(); math.Abs(got-1000) > 1e-6 {
		t.Errorf("bytes not conserved: transferred+remaining = %f", got)
	}
	if n.ActiveFlows() != 0 {
		t.Errorf("failed flow still active: %d", n.ActiveFlows())
	}
}

func TestFailLinkReratesSurvivors(t *testing.T) {
	e := sim.NewEngine()
	n := testNet(e, 1000, 100)
	var victim, survivor *Flow
	var dSurvivor time.Duration
	e.Go("victim", func(p *sim.Proc) {
		victim = n.Start("victim", []topology.LinkID{0, 1}, 1000, Options{})
		victim.Done().Wait(p)
	})
	e.Go("survivor", func(p *sim.Proc) {
		survivor = n.Start("survivor", []topology.LinkID{1}, 1000, Options{})
		survivor.Done().Wait(p)
		dSurvivor = p.Now()
	})
	e.Go("fault", func(p *sim.Proc) {
		p.Sleep(4 * time.Second)
		n.FailLink(0)
	})
	run(t, e)
	if !victim.Failed() {
		t.Error("flow crossing the failed link not killed")
	}
	if survivor.Failed() {
		t.Error("flow on surviving link was killed")
	}
	// Both share b 50/50 for 4s (200 B each); the survivor then takes the
	// whole 100 B/s for its remaining 800 B → 4 + 8 = 12s.
	approx(t, dSurvivor, 12*time.Second, 1e-6, "survivor inherits freed bandwidth")
}

func TestStartOnDownPathFailsImmediately(t *testing.T) {
	e := sim.NewEngine()
	n := testNet(e, 100, 100)
	var f *Flow
	e.Go("xfer", func(p *sim.Proc) {
		n.FailLink(1)
		f = n.Start("dead-on-arrival", []topology.LinkID{0, 1}, 500, Options{})
		f.Done().Wait(p)
		if p.Now() != 0 {
			t.Errorf("down-path start failed at %v, want the same instant", p.Now())
		}
	})
	run(t, e)
	if !f.Failed() {
		t.Fatal("start on a down path did not fail the flow")
	}
	if got := f.Remaining(); got != 500 {
		t.Errorf("Remaining = %f, want all 500 bytes undelivered", got)
	}
	if got := f.Transferred(); got != 0 {
		t.Errorf("Transferred = %f, want 0", got)
	}
}

func TestRestoreLinkAllowsNewFlows(t *testing.T) {
	e := sim.NewEngine()
	n := testNet(e, 100)
	var d time.Duration
	e.Go("xfer", func(p *sim.Proc) {
		n.FailLink(0)
		if n.LinkUp(0) {
			t.Error("LinkUp true for a failed link")
		}
		if n.PathUp([]topology.LinkID{0}) {
			t.Error("PathUp true for a path crossing a failed link")
		}
		p.Sleep(time.Second)
		n.RestoreLink(0)
		if !n.LinkUp(0) {
			t.Error("LinkUp false after restore")
		}
		f := n.Start("retry", []topology.LinkID{0}, 1000, Options{})
		f.Done().Wait(p)
		d = p.Now()
	})
	run(t, e)
	// Started at t=1s, full 100 B/s after restore → finishes at 11s.
	approx(t, d, 11*time.Second, 1e-6, "flow after restore runs at full rate")
}

func TestSetLinkBpsReratesMidFlight(t *testing.T) {
	e := sim.NewEngine()
	n := testNet(e, 100)
	var d time.Duration
	e.Go("xfer", func(p *sim.Proc) {
		f := n.Start("degraded", []topology.LinkID{0}, 1000, Options{})
		f.Done().Wait(p)
		d = p.Now()
	})
	e.Go("fault", func(p *sim.Proc) {
		p.Sleep(5 * time.Second)
		n.SetLinkBps(0, 50)
		if got := n.Capacity(0); got != 50 {
			t.Errorf("Capacity after degrade = %f, want 50", got)
		}
	})
	run(t, e)
	// 500 B at 100 B/s, then 500 B at 50 B/s → 5 + 10 = 15s.
	approx(t, d, 15*time.Second, 1e-6, "degraded link slows the flow")
}

func TestSetLinkBpsRestoreSpeedsUp(t *testing.T) {
	e := sim.NewEngine()
	n := testNet(e, 50)
	var d time.Duration
	e.Go("xfer", func(p *sim.Proc) {
		f := n.Start("boosted", []topology.LinkID{0}, 1000, Options{})
		f.Done().Wait(p)
		d = p.Now()
	})
	e.Go("fault", func(p *sim.Proc) {
		p.Sleep(10 * time.Second)
		n.SetLinkBps(0, 100)
	})
	run(t, e)
	// 500 B at 50 B/s, then 500 B at 100 B/s → 10 + 5 = 15s.
	approx(t, d, 15*time.Second, 1e-6, "restored capacity speeds the flow up")
}

func TestPathUpEdgeCases(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	n := testNet(e, 100, 100)
	if n.PathUp(nil) {
		t.Error("PathUp(nil) = true, want false")
	}
	if !n.PathUp([]topology.LinkID{0, 1}) {
		t.Error("PathUp for healthy path = false")
	}
	n.FailLink(1)
	if n.PathUp([]topology.LinkID{0, 1}) {
		t.Error("PathUp true with one hop down")
	}
	if !n.PathUp([]topology.LinkID{0}) {
		t.Error("PathUp false for a path avoiding the down link")
	}
}

func TestFailLinkIdempotentRestorePairs(t *testing.T) {
	e := sim.NewEngine()
	n := testNet(e, 100)
	var d time.Duration
	e.Go("xfer", func(p *sim.Proc) {
		n.FailLink(0)
		n.FailLink(0) // double fail is a no-op
		n.RestoreLink(0)
		n.RestoreLink(0) // double restore is a no-op
		f := n.Start("after", []topology.LinkID{0}, 100, Options{})
		f.Done().Wait(p)
		d = p.Now()
	})
	run(t, e)
	approx(t, d, time.Second, 1e-6, "link healthy after fail/restore churn")
}

func TestSetLinkBpsValidation(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	n := testNet(e, 100)
	for name, fn := range map[string]func(){
		"unknown link": func() { n.SetLinkBps(1, 10) },
		"zero bps":     func() { n.SetLinkBps(0, 0) },
		"negative bps": func() { n.SetLinkBps(0, -5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestFailureByteConservationUnderChurn kills links under a randomized-looking
// but fixed schedule and checks every flow ends with transferred + remaining
// equal to its payload, failed or not.
func TestFailureByteConservationUnderChurn(t *testing.T) {
	e := sim.NewEngine()
	n := testNet(e, 100, 50, 200)
	paths := [][]topology.LinkID{
		{0}, {1}, {2}, {0, 1}, {1, 2}, {0, 1, 2},
	}
	var flows []*Flow
	var totals []float64
	for i := 0; i < 24; i++ {
		i := i
		e.GoAfter(time.Duration(i*137)*time.Millisecond, "churn", func(p *sim.Proc) {
			total := float64(50 + i*13)
			f := n.Start("f", paths[i%len(paths)], total, Options{})
			flows = append(flows, f)
			totals = append(totals, total)
			f.Done().Wait(p)
		})
	}
	faults := []struct {
		at   time.Duration
		down bool
		id   topology.LinkID
	}{
		{500 * time.Millisecond, true, 1},
		{900 * time.Millisecond, false, 1},
		{1300 * time.Millisecond, true, 0},
		{2100 * time.Millisecond, false, 0},
		{2500 * time.Millisecond, true, 2},
		{3300 * time.Millisecond, false, 2},
	}
	for _, fa := range faults {
		fa := fa
		e.GoAfter(fa.at, "fault", func(p *sim.Proc) {
			if fa.down {
				n.FailLink(fa.id)
			} else {
				n.RestoreLink(fa.id)
			}
		})
	}
	run(t, e)
	if len(flows) != 24 {
		t.Fatalf("only %d flows started", len(flows))
	}
	anyFailed := false
	for i, f := range flows {
		if f.Failed() {
			anyFailed = true
		}
		got := f.Transferred() + f.Remaining()
		if math.Abs(got-totals[i]) > 1e-6 {
			t.Errorf("flow %d: transferred+remaining = %f, want %f (failed=%v)",
				i, got, totals[i], f.Failed())
		}
		if f.Transferred() < 0 || f.Remaining() < 0 {
			t.Errorf("flow %d: negative byte count (t=%f r=%f)", i, f.Transferred(), f.Remaining())
		}
	}
	if !anyFailed {
		t.Error("fault schedule killed no flows; schedule no longer exercises failures")
	}
	if n.ActiveFlows() != 0 {
		t.Errorf("flows left active: %d", n.ActiveFlows())
	}
}
