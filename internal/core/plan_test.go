package core

import (
	"slices"
	"testing"
	"time"

	"grouter/internal/dataplane"
	"grouter/internal/fabric"
	"grouter/internal/faults"
	"grouter/internal/harvest"
	"grouter/internal/netsim"
	"grouter/internal/sim"
	"grouter/internal/topology"
	"grouter/internal/xfer"
)

// TestPlansTrackDegradedCapacity: routes are shared, but each plan reads
// capacities and load when it is made. DegradeLinkFor halves two donor NICs
// of a cross-node route for [1 ms, 3 ms). A plan made inside the window
// carries the halved Bps on the idle donor's path and drops the donor whose
// NIC a hog now saturates; plans before and after carry the full capacity
// and both donors. Gets over the route run at each instant and slow down
// only inside the window.
func TestPlansTrackDegradedCapacity(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	f := fabric.New(e, topology.DGXV100(), 2)
	pl := New(f, FullConfig())
	in := faults.NewInjector(f)
	src, dst := fabric.Location{Node: 0, GPU: 0}, fabric.Location{Node: 1, GPU: 0}

	// Candidates from GPU 0: its own NIC 0, then donors 2 (NIC 1) and 4
	// (NIC 2). Every route's bottleneck is a 12 GB/s PCIe x16 link until a
	// 12.5 GB/s NIC is halved.
	routes := f.Routes.CrossNodePaths(nil, 0, 0, 1, 0, harvest.ModeTopoAware, nil)
	if len(routes) != 3 {
		t.Fatalf("%d candidate routes, want 3", len(routes))
	}
	nicA, nicB := f.Topo(0).NICTx(1), f.Topo(0).NICTx(2)
	full, nic := topology.GBps(12), f.Net.Capacity(nicA)
	// The hog runs NIC B at 60% of capacity: idle at full capacity, busy
	// (over 80%) once the NIC is halved.
	f.Net.Start("hog", []topology.LinkID{nicB}, 1e15, netsim.Options{MaxRate: 0.6 * nic})
	for _, nic := range []topology.LinkID{nicA, nicB} {
		if err := in.DegradeLinkFor(time.Millisecond, 2*time.Millisecond, f.Cluster.LinkName(nic), 0.5); err != nil {
			t.Fatal(err)
		}
	}

	plan := func() []xfer.Path {
		mp := pl.takePlan()
		defer pl.putPlan(mp)
		mp.kind, mp.src, mp.dst = routeCross, src, dst
		return append([]xfer.Path(nil), mp.plan()...)
	}
	cases := []struct {
		name  string
		at    time.Duration
		paths int
		bpsA  float64 // Bps of donor 2's path
	}{
		{"before", 500 * time.Microsecond, 3, full},
		{"during", 2 * time.Millisecond, 2, 0.5 * nic},
		{"after", 4 * time.Millisecond, 3, full},
	}
	var took [3]time.Duration
	e.Go("consumer", func(p *sim.Proc) {
		ref, err := pl.Put(p, &dataplane.FnCtx{Fn: "up", Workflow: "wf", Loc: src}, 8*MB)
		if err != nil {
			t.Errorf("Put: %v", err)
			return
		}
		cons := &dataplane.FnCtx{Fn: "down", Workflow: "wf", Loc: dst}
		for i, c := range cases {
			p.Sleep(c.at - p.Now())
			paths := plan()
			if len(paths) != c.paths {
				t.Errorf("%s: %d paths, want %d", c.name, len(paths), c.paths)
			} else if !slices.Equal(paths[1].Links, routes[1]) || paths[1].Bps != c.bpsA {
				t.Errorf("%s: donor path %v at %.3g B/s, want %v at %.3g B/s", c.name, paths[1].Links, paths[1].Bps, routes[1], c.bpsA)
			}
			hogged := slices.ContainsFunc(paths, func(pa xfer.Path) bool { return slices.Equal(pa.Links, routes[2]) })
			if hogged != (c.paths == 3) {
				t.Errorf("%s: hogged donor's route included = %v, want %v", c.name, hogged, c.paths == 3)
			}
			start := p.Now()
			if err := pl.Get(p, cons, ref); err != nil {
				t.Errorf("%s: Get: %v", c.name, err)
			}
			took[i] = p.Now() - start
		}
	})
	e.Run(10 * time.Millisecond)
	if !(took[1] > took[0] && took[1] > took[2]) {
		t.Errorf("Get took %v before, %v during, %v after the window; want the window slowest", took[0], took[1], took[2])
	}
}
