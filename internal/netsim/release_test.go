package netsim

import (
	"testing"
	"time"

	"grouter/internal/sim"
	"grouter/internal/topology"
)

// TestReleasedFlowReusedFresh: a released flow comes back from the next Start
// as a new flow — its label, byte counts, rate and failure flag all belong
// to the new transfer, not to the one it finished.
func TestReleasedFlowReusedFresh(t *testing.T) {
	e := sim.NewEngine()
	n := testNet(e, 100, 100, 100)
	e.Go("xfer", func(p *sim.Proc) {
		// The first incarnation fails mid-flight, leaving Failed set and a
		// frozen residue behind.
		old := n.Start("old", []topology.LinkID{0, 1}, 1000, Options{})
		p.Sleep(2 * time.Second)
		n.FailLink(1)
		old.Done().Wait(p)
		if !old.Failed() || old.Remaining() < 700 {
			t.Fatalf("setup: failed=%v remaining=%v", old.Failed(), old.Remaining())
		}
		if !n.Release(old) {
			t.Fatal("Release refused a failed, finished flow")
		}
		n.RestoreLink(1)

		f := n.Start("new", []topology.LinkID{2, 0, 1}, 500, Options{})
		if f != old {
			t.Fatal("Start did not reuse the released flow")
		}
		if f.Label() != "new" || f.Failed() || f.Rate() != 0 || f.Done().Fired() {
			t.Errorf("reused flow: label %q failed %v rate %v fired %v", f.Label(), f.Failed(), f.Rate(), f.Done().Fired())
		}
		if f.Remaining() != 500 || f.Transferred() != 0 {
			t.Errorf("reused flow: remaining %v transferred %v, want 500 and 0", f.Remaining(), f.Transferred())
		}
		p.Sleep(time.Second)
		if f.Rate() != 100 || f.Transferred() != 100 {
			t.Errorf("after 1s: rate %v transferred %v, want 100 and 100", f.Rate(), f.Transferred())
		}
		f.Done().Wait(p)
		if f.Failed() || f.Transferred() != 500 || f.Remaining() != 0 {
			t.Errorf("finished: failed %v transferred %v remaining %v", f.Failed(), f.Transferred(), f.Remaining())
		}
		if err := n.checkIntegrity(); err != nil {
			t.Error(err)
		}
	})
	run(t, e)
}

// TestReleaseRefusesAttachedFlows: Release recycles only a flow that nothing
// in the simulation still refers to.
func TestReleaseRefusesAttachedFlows(t *testing.T) {
	e := sim.NewEngine()
	n := testNet(e, 100, 100)
	n.FailLink(1)
	var active, doa, empty, dirty *Flow
	e.Schedule(0, func() {
		active = n.Start("active", []topology.LinkID{0}, 1000, Options{})
		doa = n.Start("doa", []topology.LinkID{0, 1}, 1000, Options{})
		empty = n.Start("empty", []topology.LinkID{0}, 0, Options{})
		// Killed by a failure at the instant it started: its done signal
		// fires while it is still queued as a recompute seed.
		n.RestoreLink(1)
		dirty = n.Start("dirty", []topology.LinkID{1}, 1000, Options{})
		n.FailLink(1)
		for name, f := range map[string]*Flow{"active": active, "dead on arrival": doa, "zero-byte": empty, "seed": dirty} {
			if n.Release(f) {
				t.Errorf("Release recycled the %s flow before its done signal settled", name)
			}
		}
		if !dirty.Done().Fired() {
			t.Error("setup: the failed seed flow's done signal has not fired")
		}
	})
	e.Schedule(time.Millisecond, func() {
		if n.Release(active) {
			t.Error("Release recycled an active flow")
		}
		for name, f := range map[string]*Flow{"dead on arrival": doa, "zero-byte": empty, "seed": dirty} {
			if !n.Release(f) {
				t.Errorf("Release refused the finished %s flow", name)
			}
			if n.Release(f) {
				t.Errorf("Release recycled the %s flow twice", name)
			}
		}
	})
	run(t, e)
}
