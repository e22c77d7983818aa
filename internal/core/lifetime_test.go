package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"grouter/internal/dataplane"
	"grouter/internal/fabric"
	"grouter/internal/memsim"
	"grouter/internal/sim"
	"grouter/internal/topology"
	"grouter/internal/xfer"
)

// drainLeaks lists what a plane still holds once every object it stored has
// been freed: store bytes on any GPU, host memory, table entries, replicas,
// cache items and flights.
func drainLeaks(pl *Plane) []string {
	var bad []string
	for n := range pl.stores {
		if u := pl.Store(n).TotalUsed(); u != 0 {
			bad = append(bad, fmt.Sprintf("node %d store holds %d bytes", n, u))
		}
		if u := pl.f.NodeF(n).Host.Used(); u != 0 {
			bad = append(bad, fmt.Sprintf("node %d host memory holds %d bytes", n, u))
		}
	}
	if len(pl.recs) != 0 {
		bad = append(bad, fmt.Sprintf("%d table entries", len(pl.recs)))
	}
	if pl.replicas != nil && pl.replicas.Len() != 0 {
		bad = append(bad, fmt.Sprintf("%d objects with registered replicas", pl.replicas.Len()))
	}
	if len(pl.caches) != 0 || len(pl.flights) != 0 {
		bad = append(bad, fmt.Sprintf("%d cache items, %d objects in flight", len(pl.caches), len(pl.flights)))
	}
	return bad
}

// TestGetRacingFreeFails: a Free that lands while a Get is suspended — in
// its lookup, in its transfer, or waiting on a transfer it joined — makes
// the Get fail with ErrNotFound, and leaves nothing behind: no replica
// registered and no bytes in any store. Both Coalesce settings.
func TestGetRacingFreeFails(t *testing.T) {
	cases := []struct {
		name      string
		freeAfter time.Duration // after the Gets start
		gets      int
	}{
		// The remote consumer's first lookup pays GlobalLookupLatency (20µs).
		{"during-lookup", 5 * time.Microsecond, 1},
		// 64 MiB cross-node takes milliseconds.
		{"during-transfer", 500 * time.Microsecond, 1},
		{"during-joined-transfer", 500 * time.Microsecond, 2},
	}
	for _, coalesce := range []bool{false, true} {
		for _, c := range cases {
			t.Run(fmt.Sprintf("%s/coalesce=%v", c.name, coalesce), func(t *testing.T) {
				cfg := FullConfig()
				cfg.Coalesce = coalesce
				e := sim.NewEngine()
				defer e.Close()
				pl := New(fabric.New(e, topology.DGXV100(), 2), cfg)
				errs := make([]error, c.gets)
				returned := 0
				e.Go("producer", func(p *sim.Proc) {
					prod := &dataplane.FnCtx{Fn: "up", Workflow: "wf", Loc: fabric.Location{Node: 0, GPU: 0}}
					ref, err := pl.Put(p, prod, 64*MB)
					if err != nil {
						t.Errorf("Put: %v", err)
						return
					}
					for i := range errs {
						e.Go("consumer", func(cp *sim.Proc) {
							cons := &dataplane.FnCtx{Fn: "down", Workflow: "wf", Loc: fabric.Location{Node: 1, GPU: 3}}
							errs[i] = pl.Get(cp, cons, ref)
							returned++
						})
					}
					p.Sleep(c.freeAfter)
					pl.Free(ref)
				})
				e.Run(0)
				if returned != c.gets {
					t.Fatalf("%d of %d Gets returned", returned, c.gets)
				}
				for i, err := range errs {
					if !errors.Is(err, dataplane.ErrNotFound) {
						t.Errorf("Get %d racing Free returned %v, want ErrNotFound", i, err)
					}
				}
				if bad := drainLeaks(pl); len(bad) > 0 {
					t.Errorf("after drain: %s", strings.Join(bad, "; "))
				}
			})
		}
	}
}

// lifetimeOp is one decoded step of a FuzzPlaneLifetimes schedule.
type lifetimeOp struct {
	kind, a, b, c byte
}

// decodeLifetimes turns fuzz bytes into at most 64 four-byte operations.
func decodeLifetimes(data []byte) []lifetimeOp {
	var ops []lifetimeOp
	for i := 0; i+4 <= len(data) && len(ops) < 64; i += 4 {
		ops = append(ops, lifetimeOp{data[i], data[i+1], data[i+2], data[i+3]})
	}
	return ops
}

// lifetimeSizes are the object sizes a Put draws from.
var lifetimeSizes = []int64{1 * MB, 4 * MB, 16 * MB, 64 * MB, 256 * MB}

// lifetimeLoc decodes a location on the two-node DGX-V100: bit 0 picks the
// node, bits 1-3 the GPU, and one value in eight is the node's host.
func lifetimeLoc(v byte) fabric.Location {
	loc := fabric.Location{Node: int(v & 1), GPU: int(v>>1) % 8}
	if v>>4&7 == 7 {
		loc.GPU = fabric.HostGPU
	}
	return loc
}

// runLifetimes plays one schedule on a fresh FullConfig plane over two
// DGX-V100 nodes and returns a transcript of every operation's outcome and
// time, followed by the plane's counters. Failed invariants are reported
// through t. The schedule's operations, each issued c×10µs after the one
// before it:
//
//	kind%6 == 0  Put of lifetimeSizes[b%5] produced at lifetimeLoc(a)
//	kind%6 == 1  Get of live object a by a consumer at lifetimeLoc(b)
//	kind%6 == 2  Free of live object a
//	kind%6 == 3  Get of live object a at lifetimeLoc(b), and a Free of it
//	             (b>>5)×5µs later: a Free racing the Get
//	kind%6 == 4  GPU crash of GPU b%8 on node a&1
//	kind%6 == 5  memory pressure: hold (b%4+1)×4 GiB of GPU b>>2%8 on node
//	             a&1 until the drain (when free memory allows)
//
// Once every issued operation has returned, the objects still live are
// freed and the plane must hold nothing.
func runLifetimes(t *testing.T, cfg Config, ops []lifetimeOp) string {
	e := sim.NewEngine()
	defer e.Close()
	f := fabric.New(e, topology.DGXV100(), 2)
	pl := New(f, cfg)
	var log strings.Builder
	var live []dataplane.DataRef
	var held []*memsim.Block
	outstanding := 0
	idle := sim.NewSignal(e)
	begin := func() { outstanding++ }
	end := func() {
		if outstanding--; outstanding == 0 {
			idle.Fire()
		}
	}
	record := func(p *sim.Proc, i int, what string, err error) {
		fmt.Fprintf(&log, "%d %s @%v: %v\n", i, what, p.Now(), err)
	}
	typed := func(err error) bool {
		for _, want := range []error{dataplane.ErrNotFound, dataplane.ErrGPUDown, dataplane.ErrEvicted, xfer.ErrPathsDown, memsim.ErrOutOfMemory} {
			if errors.Is(err, want) {
				return true
			}
		}
		return false
	}
	free := func(ref dataplane.DataRef) {
		for j, l := range live {
			if l == ref {
				live = append(live[:j], live[j+1:]...)
				pl.Free(ref)
				return
			}
		}
	}
	get := func(i int, ref dataplane.DataRef, loc fabric.Location) {
		begin()
		e.Go("get", func(p *sim.Proc) {
			defer end()
			ctx := &dataplane.FnCtx{Fn: "down", Workflow: "wf", Loc: loc, ConsumerSeq: int64(i)}
			err := pl.Get(p, ctx, ref)
			if err != nil && !typed(err) {
				t.Errorf("op %d: Get returned an untyped error: %v", i, err)
			}
			record(p, i, "get", err)
		})
	}
	begin()
	e.Go("schedule", func(p *sim.Proc) {
		defer end()
		for i, op := range ops {
			p.Sleep(time.Duration(op.c) * 10 * time.Microsecond)
			switch op.kind % 6 {
			case 0:
				begin()
				e.Go("put", func(p *sim.Proc) {
					defer end()
					ctx := &dataplane.FnCtx{Fn: "up", Workflow: "wf", Loc: lifetimeLoc(op.a), ConsumerSeq: int64(i)}
					ref, err := pl.Put(p, ctx, lifetimeSizes[op.b%5])
					if err != nil && !typed(err) {
						t.Errorf("op %d: Put returned an untyped error: %v", i, err)
					}
					if err == nil {
						live = append(live, ref)
					}
					record(p, i, "put", err)
				})
			case 1, 3:
				if len(live) == 0 {
					continue
				}
				ref := live[int(op.a)%len(live)]
				get(i, ref, lifetimeLoc(op.b))
				if op.kind%6 == 3 {
					begin()
					e.GoAfter(time.Duration(op.b>>5)*5*time.Microsecond, "free", func(*sim.Proc) {
						defer end()
						free(ref)
					})
				}
			case 2:
				if len(live) > 0 {
					free(live[int(op.a)%len(live)])
				}
			case 4:
				fmt.Fprintf(&log, "%d crash @%v: %d lost\n", i, p.Now(), pl.CrashGPU(int(op.a&1), int(op.b%8)))
			case 5:
				dev := f.NodeF(int(op.a & 1)).GPUs[int(op.b>>2)%8]
				if blk, err := dev.Alloc(int64(op.b%4+1) * 4 * topology.GB); err == nil {
					held = append(held, blk)
				}
			}
		}
	})
	e.Go("drain", func(p *sim.Proc) {
		idle.Wait(p)
		for len(live) > 0 {
			free(live[0])
		}
		for _, blk := range held {
			blk.Free()
		}
	})
	e.Run(0)
	if outstanding != 0 {
		t.Errorf("%d operations never returned", outstanding)
	}
	if bad := drainLeaks(pl); len(bad) > 0 {
		t.Errorf("after drain: %s", strings.Join(bad, "; "))
	}
	fmt.Fprintf(&log, "%+v\n", *pl.Stats())
	for n := range pl.stores {
		s := pl.Store(n)
		fmt.Fprintf(&log, "node %d: evictions %d restores %d spills %d cache drops %d\n",
			n, s.Evictions.N, s.Restores.N, s.Spills.N, s.CacheDrops.N)
	}
	return log.String()
}

// FuzzPlaneLifetimes plays decoded schedules of Puts, Gets, Frees (also
// racing a Get), GPU crashes and memory pressure on a FullConfig plane over
// two DGX-V100 nodes, with and without Coalesce. Every operation returns,
// every Get and Put returns nil or a typed error, the plane holds nothing
// once every object is freed (no store or host bytes, table entries,
// replicas, cache items or flights), and a second run of the schedule is
// byte-identical.
func FuzzPlaneLifetimes(f *testing.F) {
	f.Add([]byte{
		0, 0, 3, 0, // Put 64 MiB at node 0 GPU 0
		1, 0, 7, 100, // Get to node 1 GPU 3, 1ms later
		3, 0, 5, 1, // Get to node 1 GPU 2 with a Free 0µs later
	})
	f.Add([]byte{
		0, 2, 2, 0, 0, 5, 3, 0, // two Puts
		1, 0, 6, 5, 1, 0, 8, 0, 1, 0, 10, 0, 1, 1, 3, 0, // four Gets, three at once
		4, 0, 1, 2, // crash node 0 GPU 1
		1, 1, 9, 30, 1, 0, 12, 0, // more Gets, some of crashed objects
		2, 0, 0, 200, // a Free
	})
	f.Add([]byte{
		5, 0, 0, 0, 5, 0, 7, 0, 5, 0, 11, 0, // squeeze GPUs 0-2 of node 0
		0, 0, 4, 0, 0, 2, 4, 0, 0, 4, 4, 0, 0, 0, 3, 1, // Puts under pressure
		3, 1, 0xe3, 20, 3, 0, 0x45, 0, // Gets racing Frees
		0, 0x70, 3, 0, 1, 0, 2, 50, // host Put, Get
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		ops := decodeLifetimes(data)
		for _, coalesce := range []bool{false, true} {
			cfg := FullConfig()
			cfg.Coalesce = coalesce
			first := runLifetimes(t, cfg, ops)
			if second := runLifetimes(t, cfg, ops); second != first {
				t.Fatalf("coalesce=%v: a second run differs:\n%s\nvs\n%s", coalesce, first, second)
			}
		}
	})
}
