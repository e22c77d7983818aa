package core

import (
	"errors"
	"testing"
	"time"

	"grouter/internal/dataplane"
	"grouter/internal/fabric"
	"grouter/internal/sim"
	"grouter/internal/topology"
)

func coalesceConfig() Config {
	cfg := FullConfig()
	cfg.Coalesce = true
	return cfg
}

// coalesceRig builds a 2-node DGX-V100 fabric with a coalescing plane and a
// producer on node 0, GPU 0.
type coalesceRig struct {
	e    *sim.Engine
	f    *fabric.Fabric
	pl   *Plane
	prod *dataplane.FnCtx
}

func newCoalesceRig(t *testing.T, cfg Config) *coalesceRig {
	t.Helper()
	e := sim.NewEngine()
	t.Cleanup(e.Close)
	f := fabric.New(e, topology.DGXV100(), 2)
	return &coalesceRig{
		e:  e,
		f:  f,
		pl: New(f, cfg),
		prod: &dataplane.FnCtx{
			Fn: "producer", Workflow: "wf",
			Loc: fabric.Location{Node: 0, GPU: 0},
		},
	}
}

func consumerAt(n, g int) *dataplane.FnCtx {
	return &dataplane.FnCtx{
		Fn: "consumer", Workflow: "wf",
		Loc: fabric.Location{Node: n, GPU: g},
	}
}

// TestCoalesceJoinDedup: two consumers on the same GPU racing for the same
// object share one transfer — one copy moves, the second Get joins it.
func TestCoalesceJoinDedup(t *testing.T) {
	rig := newCoalesceRig(t, coalesceConfig())
	var ref dataplane.DataRef
	rig.e.Go("produce", func(p *sim.Proc) {
		var err error
		if ref, err = rig.pl.Put(p, rig.prod, 64*MB); err != nil {
			t.Errorf("Put: %v", err)
		}
	})
	for i := 0; i < 2; i++ {
		delay := time.Millisecond + time.Duration(i)*50*time.Microsecond
		rig.e.Go("consume", func(p *sim.Proc) {
			p.Sleep(delay)
			if err := rig.pl.Get(p, consumerAt(0, 4), ref); err != nil {
				t.Errorf("Get: %v", err)
			}
		})
	}
	rig.e.Run(0)
	st := rig.pl.Stats()
	if st.Coalesce.Joined != 1 {
		t.Errorf("Joined = %d, want 1", st.Coalesce.Joined)
	}
	if st.Copies != 1 {
		t.Errorf("Copies = %d, want 1 (second Get must not move bytes)", st.Copies)
	}
	if st.BytesMoved != 64*MB {
		t.Errorf("BytesMoved = %d, want %d", st.BytesMoved, 64*MB)
	}
}

// TestCoalesceChain: while the first cross-node consumer's transfer is in
// flight, a second consumer on the same remote node chains off it: the
// producer's NIC carries the payload once, and the second hop rides NVLink.
func TestCoalesceChain(t *testing.T) {
	rig := newCoalesceRig(t, coalesceConfig())
	var ref dataplane.DataRef
	rig.e.Go("produce", func(p *sim.Proc) {
		var err error
		if ref, err = rig.pl.Put(p, rig.prod, 256*MB); err != nil {
			t.Errorf("Put: %v", err)
		}
	})
	for i := 0; i < 2; i++ {
		gpu := i
		delay := time.Millisecond + time.Duration(i)*100*time.Microsecond
		rig.e.Go("consume", func(p *sim.Proc) {
			p.Sleep(delay)
			if err := rig.pl.Get(p, consumerAt(1, gpu), ref); err != nil {
				t.Errorf("Get(gpu %d): %v", gpu, err)
			}
		})
	}
	rig.e.Run(0)
	st := rig.pl.Stats()
	if st.Coalesce.Chained != 1 {
		t.Errorf("Chained = %d, want 1", st.Coalesce.Chained)
	}
	if st.Coalesce.OriginBytes != 256*MB {
		t.Errorf("OriginBytes = %d, want %d (producer link pays once)", st.Coalesce.OriginBytes, 256*MB)
	}
	if st.Coalesce.ReplicaBytes != 256*MB {
		t.Errorf("ReplicaBytes = %d, want %d (second hop off the replica)", st.Coalesce.ReplicaBytes, 256*MB)
	}
}

// TestCoalesceReplicaHit: a consumer arriving after a remote replica is
// resident pulls from the replica over NVLink, not from the cross-node
// primary.
func TestCoalesceReplicaHit(t *testing.T) {
	rig := newCoalesceRig(t, coalesceConfig())
	var ref dataplane.DataRef
	rig.e.Go("flow", func(p *sim.Proc) {
		var err error
		if ref, err = rig.pl.Put(p, rig.prod, 64*MB); err != nil {
			t.Fatalf("Put: %v", err)
		}
		if err := rig.pl.Get(p, consumerAt(1, 0), ref); err != nil {
			t.Fatalf("Get #1: %v", err)
		}
		if rig.pl.replicas.Count(ref.ID) != 1 {
			t.Fatalf("replica not registered after first Get")
		}
		if err := rig.pl.Get(p, consumerAt(1, 3), ref); err != nil {
			t.Fatalf("Get #2: %v", err)
		}
	})
	rig.e.Run(0)
	st := rig.pl.Stats()
	if st.Coalesce.ReplicaHits != 1 {
		t.Errorf("ReplicaHits = %d, want 1", st.Coalesce.ReplicaHits)
	}
	if st.Coalesce.OriginGets != 1 {
		t.Errorf("OriginGets = %d, want 1", st.Coalesce.OriginGets)
	}
	if st.Coalesce.OriginBytes != 64*MB || st.Coalesce.ReplicaBytes != 64*MB {
		t.Errorf("byte split = origin %d / replica %d, want %d / %d",
			st.Coalesce.OriginBytes, st.Coalesce.ReplicaBytes, 64*MB, 64*MB)
	}
}

// TestCoalesceLocalReplica: a second Get on a GPU that already holds a
// replica is a zero-copy map.
func TestCoalesceLocalReplica(t *testing.T) {
	rig := newCoalesceRig(t, coalesceConfig())
	rig.e.Go("flow", func(p *sim.Proc) {
		ref, err := rig.pl.Put(p, rig.prod, 64*MB)
		if err != nil {
			t.Fatalf("Put: %v", err)
		}
		if err := rig.pl.Get(p, consumerAt(1, 0), ref); err != nil {
			t.Fatalf("Get #1: %v", err)
		}
		copies := rig.pl.Stats().Copies
		if err := rig.pl.Get(p, consumerAt(1, 0), ref); err != nil {
			t.Fatalf("Get #2: %v", err)
		}
		if rig.pl.Stats().Copies != copies {
			t.Errorf("local replica hit moved bytes: %d copies", rig.pl.Stats().Copies-copies)
		}
		if rig.pl.Stats().Coalesce.LocalHits != 1 {
			t.Errorf("LocalHits = %d, want 1", rig.pl.Stats().Coalesce.LocalHits)
		}
	})
	rig.e.Run(0)
}

// TestCoalesceFreeDropsReplicas: freeing the object destroys every replica
// and its backing cache item; the store ends the run empty.
func TestCoalesceFreeDropsReplicas(t *testing.T) {
	rig := newCoalesceRig(t, coalesceConfig())
	rig.e.Go("flow", func(p *sim.Proc) {
		ref, err := rig.pl.Put(p, rig.prod, 64*MB)
		if err != nil {
			t.Fatalf("Put: %v", err)
		}
		for _, c := range []*dataplane.FnCtx{consumerAt(0, 2), consumerAt(1, 1)} {
			if err := rig.pl.Get(p, c, ref); err != nil {
				t.Fatalf("Get: %v", err)
			}
		}
		if rig.pl.replicas.Count(ref.ID) != 2 {
			t.Fatalf("replicas = %d, want 2", rig.pl.replicas.Count(ref.ID))
		}
		rig.pl.Free(ref)
		if rig.pl.replicas.Len() != 0 || len(rig.pl.caches) != 0 {
			t.Errorf("Free left replicas behind: registry %d, caches %d",
				rig.pl.replicas.Len(), len(rig.pl.caches))
		}
		if used := rig.pl.Store(0).TotalUsed() + rig.pl.Store(1).TotalUsed(); used != 0 {
			t.Errorf("stores hold %d bytes after Free", used)
		}
		if err := rig.pl.Get(p, consumerAt(0, 2), ref); !errors.Is(err, dataplane.ErrNotFound) {
			t.Errorf("Get after Free = %v, want ErrNotFound", err)
		}
	})
	rig.e.Run(0)
}

// TestCoalesceCrashDropsReplicas: a crash on a GPU holding a replica
// invalidates it, and the next consumer on that node falls back to the
// origin.
func TestCoalesceCrashDropsReplicas(t *testing.T) {
	rig := newCoalesceRig(t, coalesceConfig())
	rig.e.Go("flow", func(p *sim.Proc) {
		ref, err := rig.pl.Put(p, rig.prod, 64*MB)
		if err != nil {
			t.Fatalf("Put: %v", err)
		}
		if err := rig.pl.Get(p, consumerAt(1, 0), ref); err != nil {
			t.Fatalf("Get: %v", err)
		}
		rig.pl.CrashGPU(1, 0)
		if rig.pl.replicas.Count(ref.ID) != 0 {
			t.Fatalf("crashed replica still registered")
		}
		before := rig.pl.Stats().Coalesce.OriginGets
		if err := rig.pl.Get(p, consumerAt(1, 1), ref); err != nil {
			t.Fatalf("Get after crash: %v", err)
		}
		if got := rig.pl.Stats().Coalesce.OriginGets; got != before+1 {
			t.Errorf("OriginGets = %d, want %d (must fall back to origin)", got, before+1)
		}
	})
	rig.e.Run(0)
}

// TestCoalesceCrashedPrimaryServedByReplica: when the primary GPU crashes but
// a replica survives elsewhere, the next Get is served from the replica with
// no re-materialization.
func TestCoalesceCrashedPrimaryServedByReplica(t *testing.T) {
	rig := newCoalesceRig(t, coalesceConfig())
	rig.e.Go("flow", func(p *sim.Proc) {
		ref, err := rig.pl.Put(p, rig.prod, 64*MB)
		if err != nil {
			t.Fatalf("Put: %v", err)
		}
		if err := rig.pl.Get(p, consumerAt(0, 2), ref); err != nil {
			t.Fatalf("Get: %v", err)
		}
		rig.pl.CrashGPU(0, 0) // takes the primary, leaves the GPU-2 replica
		if err := rig.pl.Get(p, consumerAt(0, 5), ref); err != nil {
			t.Fatalf("Get after primary crash: %v", err)
		}
		if got := rig.f.Net.Faults().Rematerialized; got != 0 {
			t.Errorf("Get re-materialized despite a live replica")
		}
		if rig.pl.Stats().Coalesce.ReplicaHits != 1 {
			t.Errorf("ReplicaHits = %d, want 1", rig.pl.Stats().Coalesce.ReplicaHits)
		}
	})
	rig.e.Run(0)
}

// TestCoalesceGetUnknownID: Get of a never-Put id reports ErrNotFound both
// with and without coalescing.
func TestCoalesceGetUnknownID(t *testing.T) {
	for _, cfg := range []Config{FullConfig(), coalesceConfig()} {
		rig := newCoalesceRig(t, cfg)
		rig.e.Go("get", func(p *sim.Proc) {
			err := rig.pl.Get(p, consumerAt(0, 1), dataplane.DataRef{ID: 999, Bytes: MB})
			if !errors.Is(err, dataplane.ErrNotFound) {
				t.Errorf("%s: Get unknown id = %v, want ErrNotFound", rig.pl.Name(), err)
			}
		})
		rig.e.Run(0)
	}
}

// TestCoalesceFanoutDeterminism runs an 8-way fan-out twice and demands
// byte-identical outcomes: same stats, same virtual end time.
func TestCoalesceFanoutDeterminism(t *testing.T) {
	run := func() (dataplane.Stats, time.Duration) {
		e := sim.NewEngine()
		defer e.Close()
		f := fabric.New(e, topology.DGXV100(), 2)
		pl := New(f, coalesceConfig())
		prod := &dataplane.FnCtx{Fn: "producer", Workflow: "wf", Loc: fabric.Location{Node: 0, GPU: 0}}
		var ref dataplane.DataRef
		e.Go("produce", func(p *sim.Proc) {
			var err error
			if ref, err = pl.Put(p, prod, 128*MB); err != nil {
				t.Errorf("Put: %v", err)
			}
		})
		for i := 0; i < 8; i++ {
			n, g := i%2, 1+i/2
			delay := time.Millisecond + time.Duration(i)*37*time.Microsecond
			e.Go("consume", func(p *sim.Proc) {
				p.Sleep(delay)
				if err := pl.Get(p, consumerAt(n, g), ref); err != nil {
					t.Errorf("Get: %v", err)
				}
			})
		}
		e.Run(0)
		return *pl.Stats(), e.Now()
	}
	s1, t1 := run()
	s2, t2 := run()
	if s1 != s2 {
		t.Errorf("stats differ between identical runs:\n  %+v\n  %+v", s1, s2)
	}
	if t1 != t2 {
		t.Errorf("virtual end time differs: %v vs %v", t1, t2)
	}
}

// TestCoalesceFanoutBeatsNaive is the tentpole's acceptance property at unit
// scale: for an 8-way same-object fan-out, coalescing must cut the bytes the
// producer GPU's links carry versus the naive plane, and must not regress
// total latency.
func TestCoalesceFanoutBeatsNaive(t *testing.T) {
	run := func(cfg Config) (origin int64, moved int64, elapsed time.Duration) {
		e := sim.NewEngine()
		defer e.Close()
		f := fabric.New(e, topology.DGXV100(), 2)
		pl := New(f, cfg)
		prod := &dataplane.FnCtx{Fn: "producer", Workflow: "wf", Loc: fabric.Location{Node: 0, GPU: 0}}
		var ref dataplane.DataRef
		e.Go("produce", func(p *sim.Proc) {
			var err error
			if ref, err = pl.Put(p, prod, 128*MB); err != nil {
				t.Errorf("Put: %v", err)
			}
		})
		for i := 0; i < 8; i++ {
			n, g := i%2, 1+i/2
			delay := time.Millisecond + time.Duration(i)*20*time.Microsecond
			e.Go("consume", func(p *sim.Proc) {
				p.Sleep(delay)
				if err := pl.Get(p, consumerAt(n, g), ref); err != nil {
					t.Errorf("Get: %v", err)
				}
			})
		}
		e.Run(0)
		st := pl.Stats()
		if cfg.Coalesce {
			origin = st.Coalesce.OriginBytes
		} else {
			origin = st.BytesMoved // naive: every Get pulls from the producer
		}
		return origin, st.BytesMoved, e.Now()
	}
	naiveOrigin, _, naiveEnd := run(FullConfig())
	coOrigin, _, coEnd := run(coalesceConfig())
	if coOrigin*2 > naiveOrigin {
		t.Errorf("origin bytes %d not halved vs naive %d", coOrigin, naiveOrigin)
	}
	if coEnd > naiveEnd {
		t.Errorf("coalesced fan-out slower: %v vs naive %v", coEnd, naiveEnd)
	}
}
