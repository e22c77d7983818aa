package core

import (
	"testing"

	"grouter/internal/dataplane"
	"grouter/internal/fabric"
	"grouter/internal/sim"
	"grouter/internal/topology"
)

// getRunner performs one Get each time it is spawned. As a sim.Runner it
// spawns on a recycled process shell without allocating, so an allocation
// count around a spawn measures the Get alone.
type getRunner struct {
	pl  *Plane
	ctx *dataplane.FnCtx
	ref dataplane.DataRef
	err error
}

func (g *getRunner) Run(p *sim.Proc) { g.err = g.pl.Get(p, g.ctx, g.ref) }

// TestSteadyStateGetAllocFree pins the allocation-free transfer path: on a
// warmed FullConfig plane over two DGX-V100 nodes, a repeated Get that
// moves bytes allocates nothing — harvested routes come from the fabric's
// route table, the planning state from the plane's pool, and the flows from
// the network's free list.
func TestSteadyStateGetAllocFree(t *testing.T) {
	host := fabric.HostGPU
	cases := []struct {
		name     string
		src, dst fabric.Location
	}{
		{"cross-node", fabric.Location{Node: 0, GPU: 0}, fabric.Location{Node: 1, GPU: 0}},
		{"host-to-gpu", fabric.Location{Node: 0, GPU: host}, fabric.Location{Node: 0, GPU: 2}},
		{"gpu-to-host", fabric.Location{Node: 0, GPU: 1}, fabric.Location{Node: 0, GPU: host}},
		{"gpu-to-remote-host", fabric.Location{Node: 0, GPU: 1}, fabric.Location{Node: 1, GPU: host}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := sim.NewEngine()
			defer e.Close()
			f := fabric.New(e, topology.DGXV100(), 2)
			pl := New(f, FullConfig())
			g := &getRunner{pl: pl, ctx: &dataplane.FnCtx{Fn: "down", Workflow: "wf", Loc: c.dst}}
			e.Go("put", func(p *sim.Proc) {
				g.ref, g.err = pl.Put(p, &dataplane.FnCtx{Fn: "up", Workflow: "wf", Loc: c.src}, 64*MB)
			})
			e.Run(0)
			if g.err != nil {
				t.Fatalf("Put: %v", g.err)
			}
			copies := pl.Stats().Copies
			get := func() {
				e.GoRun("get", g)
				e.Run(0)
			}
			for i := 0; i < 3; i++ { // warm the memo, the pools and the lookup tables
				get()
			}
			allocs := testing.AllocsPerRun(50, get)
			if g.err != nil {
				t.Fatalf("Get: %v", g.err)
			}
			if moved := pl.Stats().Copies - copies; moved != 54 {
				t.Fatalf("%d Gets made %d copies, want one each", 54, moved)
			}
			if allocs != 0 {
				t.Errorf("steady-state %s Get allocates %.1f times, want 0", c.name, allocs)
			}
		})
	}
}
