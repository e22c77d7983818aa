package baselines

import (
	"errors"
	"strings"
	"testing"
	"time"

	"grouter/internal/dataplane"
	"grouter/internal/fabric"
	"grouter/internal/sim"
	"grouter/internal/topology"
	"grouter/internal/xfer"
)

const MB = int64(1) << 20

// exchange runs one warm-up plus one measured Put/Get/Free exchange.
func exchange(t *testing.T, pl dataplane.Plane, e *sim.Engine, src, dst fabric.Location, bytes int64) time.Duration {
	t.Helper()
	var elapsed time.Duration
	e.Go("exchange", func(p *sim.Proc) {
		up := &dataplane.FnCtx{Fn: "up", Workflow: "t", Loc: src}
		down := &dataplane.FnCtx{Fn: "down", Workflow: "t", Loc: dst}
		once := func() {
			ref, err := pl.Put(p, up, bytes)
			if err != nil {
				t.Errorf("Put: %v", err)
				return
			}
			if err := pl.Get(p, down, ref); err != nil {
				t.Errorf("Get: %v", err)
				return
			}
			pl.Free(ref)
		}
		once()
		start := p.Now()
		once()
		elapsed = p.Now() - start
	})
	e.Run(0)
	return elapsed
}

func TestINFlessAlwaysCrossesHost(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	f := fabric.New(e, topology.DGXV100(), 1)
	pl := NewINFless(f)
	loc := fabric.Location{Node: 0, GPU: 2}
	exchange(t, pl, e, loc, loc, 64*MB)
	// Even a same-GPU exchange makes two host copies per round (×2 rounds).
	if got := pl.Stats().Copies; got != 4 {
		t.Errorf("copies = %d, want 4 (D2H+H2D per exchange)", got)
	}
}

func TestINFlessSerializationCost(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	f := fabric.New(e, topology.DGXV100(), 1)
	pl := NewINFless(f)
	src := fabric.Location{Node: 0, GPU: 0}
	dst := fabric.Location{Node: 0, GPU: 1}
	lat := exchange(t, pl, e, src, dst, 120*MB)
	// Two pageable PCIe crossings at 3 GB/s plus two serialization passes
	// at 5 GB/s: at least ~130 ms.
	if lat < 100*time.Millisecond {
		t.Errorf("host-centric exchange of 120 MiB took %v, implausibly fast", lat)
	}
}

func TestINFlessCrossNodeRelaysThroughHosts(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	f := fabric.New(e, topology.DGXV100(), 2)
	pl := NewINFless(f)
	src := fabric.Location{Node: 0, GPU: 0}
	dst := fabric.Location{Node: 1, GPU: 0}
	exchange(t, pl, e, src, dst, 16*MB)
	// Per exchange: D2H, host→host, H2D = 3 copies (×2 rounds).
	if got := pl.Stats().Copies; got != 6 {
		t.Errorf("cross-node copies = %d, want 6", got)
	}
}

func TestNVShmemPlacementAgnostic(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	f := fabric.New(e, topology.DGXV100(), 1)
	pl := NewNVShmem(f, 11)
	src := fabric.Location{Node: 0, GPU: 0}
	dst := fabric.Location{Node: 0, GPU: 3}
	exchange(t, pl, e, src, dst, 64*MB)
	// Put copies to a random store GPU and Get copies out: 2 per exchange.
	if got := pl.Stats().Copies; got != 4 {
		t.Errorf("copies = %d, want 4", got)
	}
	if pl.Name() != "nvshmem+" {
		t.Errorf("name = %s", pl.Name())
	}
}

func TestNVShmemDeterministicPerSeed(t *testing.T) {
	run := func(seed int64) time.Duration {
		e := sim.NewEngine()
		defer e.Close()
		f := fabric.New(e, topology.DGXV100(), 1)
		pl := NewNVShmem(f, seed)
		return exchange(t, pl, e,
			fabric.Location{Node: 0, GPU: 0}, fabric.Location{Node: 0, GPU: 5}, 32*MB)
	}
	if run(5) != run(5) {
		t.Error("same seed gave different latencies")
	}
}

func TestDeepPlanFasterHostTransfers(t *testing.T) {
	lat := func(mk func(f *fabric.Fabric) dataplane.Plane) time.Duration {
		e := sim.NewEngine()
		defer e.Close()
		f := fabric.New(e, topology.DGXV100(), 1)
		return exchange(t, mk(f), e,
			fabric.Location{Node: 0, GPU: fabric.HostGPU}, fabric.Location{Node: 0, GPU: 0}, 256*MB)
	}
	nv := lat(func(f *fabric.Fabric) dataplane.Plane { return NewNVShmem(f, 3) })
	dp := lat(func(f *fabric.Fabric) dataplane.Plane { return NewDeepPlan(f, 3) })
	if !(dp < nv) {
		t.Errorf("deepplan+ host transfer %v not faster than nvshmem+ %v", dp, nv)
	}
}

func TestNVShmemSymmetricPoolsMirrored(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	f := fabric.New(e, topology.DGXV100(), 1)
	pl := NewNVShmem(f, 7)
	// Static symmetric reserve exists on every GPU from the start.
	first := pl.Store(0).Pool(0).Reserved()
	if first == 0 {
		t.Fatal("no static reserve")
	}
	for g := 1; g < 8; g++ {
		if pl.Store(0).Pool(g).Reserved() != first {
			t.Errorf("pool %d not symmetric", g)
		}
	}
}

func TestCrossNodeGetRelays(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	f := fabric.New(e, topology.DGXV100(), 2)
	pl := NewNVShmem(f, 13)
	src := fabric.Location{Node: 0, GPU: 1}
	dst := fabric.Location{Node: 1, GPU: 6}
	exchange(t, pl, e, src, dst, 32*MB)
	// Put copy + cross-node relay + local delivery = 3 copies per exchange.
	if got := pl.Stats().Copies; got < 6 {
		t.Errorf("cross-node copies = %d, want >= 6 over two exchanges", got)
	}
}

func TestGetUnknownRefErrors(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	f := fabric.New(e, topology.DGXV100(), 1)
	for _, pl := range []dataplane.Plane{NewINFless(f), NewNVShmem(f, 1)} {
		pl := pl
		e.Go("bad-get", func(p *sim.Proc) {
			ctx := &dataplane.FnCtx{Fn: "f", Loc: fabric.Location{Node: 0, GPU: 0}}
			if err := pl.Get(p, ctx, dataplane.DataRef{ID: 4242, Bytes: 1}); !errors.Is(err, dataplane.ErrNotFound) {
				t.Errorf("%s: Get of unknown ref = %v, want ErrNotFound", pl.Name(), err)
			}
		})
	}
	e.Run(0)
}

// TestFailedCopyFailsGet takes GPU 1's host→GPU links down for 50 ms, far
// longer than a transfer's retries last: an INFless+ Get to GPU 1 must
// return the transfer's error instead of reporting undelivered bytes as
// delivered.
func TestFailedCopyFailsGet(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	f := fabric.New(e, topology.DGXV100(), 1)
	pl := NewINFless(f)
	var err error
	e.Go("t", func(p *sim.Proc) {
		ref, perr := pl.Put(p, &dataplane.FnCtx{Fn: "up", Loc: fabric.Location{Node: 0, GPU: 0}}, 64*MB)
		if perr != nil {
			t.Errorf("Put: %v", perr)
			return
		}
		links := f.Topo(0).AppendHostToGPULinks(nil, 1)
		for _, l := range links {
			f.Net.FailLink(l)
		}
		e.Schedule(50*time.Millisecond, func() {
			for _, l := range links {
				f.Net.RestoreLink(l)
			}
		})
		err = pl.Get(p, &dataplane.FnCtx{Fn: "down", Loc: fabric.Location{Node: 0, GPU: 1}}, ref)
	})
	e.Run(0)
	if !errors.Is(err, xfer.ErrPathsDown) {
		t.Errorf("Get over downed links = %v, want ErrPathsDown", err)
	}
	if fs := f.Net.Faults(); fs.Retries != xfer.DefaultMaxAttempts-1 || fs.TransfersFailed != 1 {
		t.Errorf("retries = %d, transfers failed = %d, want %d and 1",
			fs.Retries, fs.TransfersFailed, xfer.DefaultMaxAttempts-1)
	}
}

// TestFailedDeliveryFailsGet downs every GPU→host link of the node after a
// Put: a GPU-store plane's Get to a host consumer must return the
// transfer's error, wrapped with the plane's name.
func TestFailedDeliveryFailsGet(t *testing.T) {
	for _, mk := range []func(*fabric.Fabric) *NVShmem{
		func(f *fabric.Fabric) *NVShmem { return NewNVShmem(f, 1) },
		func(f *fabric.Fabric) *NVShmem { return NewDeepPlan(f, 1) },
	} {
		e := sim.NewEngine()
		f := fabric.New(e, topology.DGXV100(), 1)
		pl := mk(f)
		var err error
		e.Go("t", func(p *sim.Proc) {
			ref, perr := pl.Put(p, &dataplane.FnCtx{Fn: "up", Loc: fabric.Location{Node: 0, GPU: 0}}, 64*MB)
			if perr != nil {
				t.Errorf("%s: Put: %v", pl.Name(), perr)
				return
			}
			for g := 0; g < f.Spec().NumGPUs; g++ {
				for _, l := range f.Topo(0).AppendGPUToHostLinks(nil, g) {
					f.Net.FailLink(l)
				}
			}
			err = pl.Get(p, &dataplane.FnCtx{Fn: "down", Loc: fabric.Location{Node: 0, GPU: fabric.HostGPU}}, ref)
		})
		e.Run(0)
		if !errors.Is(err, xfer.ErrPathsDown) || !strings.HasPrefix(err.Error(), pl.Name()+": ") {
			t.Errorf("%s: Get over downed links = %v, want ErrPathsDown wrapped with the plane's name", pl.Name(), err)
		}
		e.Close()
	}
}

// TestFailedCopyFreesStore fails each plane's copy into its store: Put must
// return the error and leave nothing allocated — the host block for
// INFless+, the store item for NVSHMEM+.
func TestFailedCopyFreesStore(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	f := fabric.New(e, topology.DGXV100(), 1)
	infless, nvshmem := NewINFless(f), NewNVShmem(f, 1)
	topo := f.Topo(0)
	var ierr, nerr error
	e.Go("t", func(p *sim.Proc) {
		// A GPU producer's copy into INFless+'s host store crosses GPU 0's
		// GPU→host links; a host producer's copy into NVSHMEM+'s store
		// crosses the host→GPU links of whichever GPU the store picks.
		for _, l := range topo.AppendGPUToHostLinks(nil, 0) {
			f.Net.FailLink(l)
		}
		for g := 0; g < f.Spec().NumGPUs; g++ {
			for _, l := range topo.AppendHostToGPULinks(nil, g) {
				f.Net.FailLink(l)
			}
		}
		_, ierr = infless.Put(p, &dataplane.FnCtx{Fn: "up", Loc: fabric.Location{Node: 0, GPU: 0}}, 64*MB)
		_, nerr = nvshmem.Put(p, &dataplane.FnCtx{Fn: "up", Loc: fabric.Location{Node: 0, GPU: fabric.HostGPU}}, 64*MB)
	})
	e.Run(0)
	if !errors.Is(ierr, xfer.ErrPathsDown) {
		t.Errorf("INFless+ Put over downed links = %v, want ErrPathsDown", ierr)
	}
	if got := f.NodeF(0).Host.Used(); got != 0 {
		t.Errorf("failed INFless+ Put left %d host bytes allocated", got)
	}
	if !errors.Is(nerr, xfer.ErrPathsDown) {
		t.Errorf("NVSHMEM+ Put over downed links = %v, want ErrPathsDown", nerr)
	}
	if got := nvshmem.Store(0).TotalUsed(); got != 0 {
		t.Errorf("failed NVSHMEM+ Put left %d store bytes in use", got)
	}
}

func TestPlaneNames(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	f := fabric.New(e, topology.DGXV100(), 1)
	if got := NewINFless(f).Name(); got != "infless+" {
		t.Errorf("Name = %q", got)
	}
	if got := NewDeepPlan(f, 1).Name(); got != "deepplan+" {
		t.Errorf("Name = %q", got)
	}
}

func TestEvictionMigratorPaths(t *testing.T) {
	// Force the NVSHMEM+ store under pressure so its single-link migrator's
	// ToHost path runs.
	e := sim.NewEngine()
	defer e.Close()
	f := fabric.New(e, topology.DGXV100(), 1)
	pl := NewNVShmem(f, 21)
	// Leave just enough room that the static pools bind.
	for _, dev := range f.NodeF(0).GPUs {
		if dev.Free() > 256<<20 {
			if _, err := dev.Alloc(dev.Free() - 256<<20); err != nil {
				t.Fatal(err)
			}
		}
	}
	e.Go("pressure", func(p *sim.Proc) {
		ctx := &dataplane.FnCtx{Fn: "f", Workflow: "wf", Loc: fabric.Location{Node: 0, GPU: 0}}
		var refs []dataplane.DataRef
		for i := 0; i < 72; i++ {
			ref, err := pl.Put(p, ctx, 150<<20)
			if err != nil {
				t.Fatalf("Put %d: %v", i, err)
			}
			refs = append(refs, ref)
		}
		for _, r := range refs {
			pl.Free(r)
		}
	})
	e.Run(0)
	evictions := int64(0)
	st := pl.Store(0)
	evictions = st.Evictions.N + st.Spills.N
	if evictions == 0 {
		t.Error("expected evictions or spills under pressure")
	}
}
