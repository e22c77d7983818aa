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

// TestSteadyStateGetAllocFree pins the allocation-free data plane: on a
// warmed plane over two DGX-V100 nodes, a repeated Get of a standing object
// that moves bytes allocates nothing — harvested routes come from the
// fabric's route table, the planning state (with its NVLink assignment and
// link lists) from the plane's pool, and the flows from the network's free
// list — and neither does a repeated exchange: a Put and Free recycle the
// plane's table entry and the store's item (or the entry's own host
// reservation), and a 4-way coalesced fan-out
// takes its flights, source candidates, replica lists and cache items from
// pools too.
func TestSteadyStateGetAllocFree(t *testing.T) {
	n0 := func(g int) fabric.Location { return fabric.Location{Node: 0, GPU: g} }
	n1 := func(g int) fabric.Location { return fabric.Location{Node: 1, GPU: g} }
	host := fabric.HostGPU
	cases := []struct {
		name string
		src  fabric.Location
		cons []fabric.Location
		// exchange runs Put, a Get by every consumer at once, and Free each
		// time; otherwise one standing object is fetched again each time.
		exchange, coalesce bool
	}{
		{name: "cross-node", src: n0(0), cons: []fabric.Location{n1(0)}},
		{name: "host-to-gpu", src: n0(host), cons: []fabric.Location{n0(2)}},
		{name: "gpu-to-host", src: n0(1), cons: []fabric.Location{n0(host)}},
		{name: "gpu-to-remote-host", src: n0(1), cons: []fabric.Location{n1(host)}},
		// Parallel direct and multi-hop NVLink paths (Algorithm 1).
		{name: "intra-node-nvlink", src: n0(0), cons: []fabric.Location{n0(3)}},
		{name: "put-free", src: n0(1), exchange: true},
		// A host-resident object, such as a request's ingress payload.
		{name: "host-put-free", src: n0(host), exchange: true},
		{name: "coalesced-fanout-cross-node", src: n0(0), cons: []fabric.Location{n1(0), n1(1), n1(2), n1(3)}, exchange: true, coalesce: true},
		// GPU 5 has no direct NVLink to GPU 0, so its Get chains off a copy.
		{name: "coalesced-fanout-nvlink", src: n0(0), cons: []fabric.Location{n0(1), n0(2), n0(3), n0(5)}, exchange: true, coalesce: true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := sim.NewEngine()
			defer e.Close()
			cfg := FullConfig()
			cfg.Coalesce = c.coalesce
			pl := New(fabric.New(e, topology.DGXV100(), 2), cfg)
			var op sim.Runner
			var opErr func() error
			if c.exchange {
				x := newExchange(pl, e, c.src, c.cons, 64*MB)
				op, opErr = x, func() error { return x.err }
			} else {
				g := &getRunner{pl: pl, ctx: &dataplane.FnCtx{Fn: "down", Workflow: "wf", Loc: c.cons[0]}}
				e.Go("put", func(p *sim.Proc) {
					g.ref, g.err = pl.Put(p, &dataplane.FnCtx{Fn: "up", Workflow: "wf", Loc: c.src}, 64*MB)
				})
				e.Run(0)
				if g.err != nil {
					t.Fatalf("Put: %v", g.err)
				}
				op, opErr = g, func() error { return g.err }
			}
			copies := pl.Stats().Copies
			run := func() {
				e.GoRun(c.name, op)
				e.Run(0)
			}
			for i := 0; i < 3; i++ { // warm the memo, the pools and the lookup tables
				run()
			}
			allocs := testing.AllocsPerRun(50, run)
			if err := opErr(); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			switch {
			case !c.exchange:
				if moved := pl.Stats().Copies - copies; moved != 54 {
					t.Fatalf("%d Gets made %d copies, want one each", 54, moved)
				}
			case c.coalesce:
				if co := pl.Stats().Coalesce; co.Chained+co.ReplicaHits == 0 {
					t.Fatalf("fan-out never pulled from a copy: %+v", co)
				}
			}
			if c.exchange {
				if bad := drainLeaks(pl); len(bad) > 0 {
					t.Errorf("after the exchanges: %v", bad)
				}
			}
			if allocs != 0 {
				t.Errorf("steady-state %s allocates %.1f times, want 0", c.name, allocs)
			}
		})
	}
}

// exchangeRunner runs one Put, a Get by each consumer at once, and a Free —
// a fan-out exchange (with no consumers, a Put and Free). Its Get runners
// and completion signal are built once, so with the plane warmed an
// allocation count around a spawn measures the data plane alone.
type exchangeRunner struct {
	pl    *Plane
	prod  dataplane.FnCtx
	gets  []*fanoutGet
	done  sim.Signal
	left  int
	bytes int64
	err   error
}

type fanoutGet struct {
	x   *exchangeRunner
	ctx dataplane.FnCtx
	ref dataplane.DataRef
}

func newExchange(pl *Plane, e *sim.Engine, prod fabric.Location, cons []fabric.Location, bytes int64) *exchangeRunner {
	x := &exchangeRunner{
		pl:    pl,
		prod:  dataplane.FnCtx{Fn: "up", Workflow: "wf", Loc: prod},
		done:  sim.MakeSignal(e),
		bytes: bytes,
	}
	for _, loc := range cons {
		x.gets = append(x.gets, &fanoutGet{x: x, ctx: dataplane.FnCtx{Fn: "down", Workflow: "wf", Loc: loc}})
	}
	return x
}

func (x *exchangeRunner) Run(p *sim.Proc) {
	ref, err := x.pl.Put(p, &x.prod, x.bytes)
	if err != nil {
		x.err = err
		return
	}
	x.done.Reset()
	x.left = len(x.gets)
	for _, g := range x.gets {
		g.ref = ref
		p.Engine().GoRun("get", g)
	}
	if x.left > 0 {
		x.done.Wait(p)
	}
	x.pl.Free(ref)
}

func (g *fanoutGet) Run(p *sim.Proc) {
	if err := g.x.pl.Get(p, &g.ctx, g.ref); err != nil {
		g.x.err = err
	}
	if g.x.left--; g.x.left == 0 {
		g.x.done.Fire()
	}
}
