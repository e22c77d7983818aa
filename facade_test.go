package grouter

import (
	"errors"
	"testing"
	"time"
)

func TestFacadeOptions(t *testing.T) {
	s := MustNewSim("dgx-v100", WithNodes(2), WithSeed(11), WithTracer(), WithFaults(), WithCoalescing())
	defer s.Close()
	if s.Fabric.NumNodes() != 2 {
		t.Errorf("WithNodes(2): nodes = %d", s.Fabric.NumNodes())
	}
	if s.Tracer() == nil {
		t.Error("WithTracer: Tracer() is nil")
	}
	if s.Faults() == nil {
		t.Fatal("WithFaults: Faults() is nil")
	}
	// Fault calls name links; bad input fails with a façade sentinel.
	if err := s.Faults().FailLinkAt(time.Millisecond, "n1.nic0.tx"); err != nil {
		t.Errorf("FailLinkAt(n1.nic0.tx) = %v", err)
	}
	if err := s.Faults().FailLinkAt(time.Millisecond, "n2.nic0.tx"); !errors.Is(err, ErrUnknownLink) {
		t.Errorf("FailLinkAt on a third node = %v, want ErrUnknownLink", err)
	}
	if err := s.Faults().FlapLink("n0.nv.0>3", 0, time.Millisecond, time.Millisecond, time.Second); !errors.Is(err, ErrBadWindow) {
		t.Errorf("FlapLink with period == downFor = %v, want ErrBadWindow", err)
	}
	if name := s.NewGRouter().Name(); name != "grouter+co" {
		t.Errorf("WithCoalescing: plane name = %q, want grouter+co", name)
	}
	// An explicit Config overrides the Sim-level options.
	if name := s.NewGRouter(FullConfig()).Name(); name != "grouter" {
		t.Errorf("explicit config: plane name = %q, want grouter", name)
	}

	plain := MustNewSim("dgx-v100")
	defer plain.Close()
	if plain.Tracer() != nil || plain.Faults() != nil {
		t.Error("default Sim should have no tracer or injector")
	}
	if name := plain.NewGRouter().Name(); name != "grouter" {
		t.Errorf("default plane name = %q, want grouter", name)
	}
}

// TestFacadeErrorSentinels drives each failure through the public API and
// checks errors.Is against the exported sentinels.
func TestFacadeErrorSentinels(t *testing.T) {
	s := MustNewSim("dgx-v100")
	defer s.Close()
	pl := s.NewGRouter()
	s.Go("errs", func(p *Proc) {
		ctx := &FnCtx{Fn: "f", Workflow: "wf", Loc: Location{Node: 0, GPU: 0}}
		if err := pl.Get(p, ctx, DataRef{ID: 42, Bytes: 1 << 20}); !errors.Is(err, ErrNotFound) {
			t.Errorf("Get unknown = %v, want ErrNotFound", err)
		}
		ref, err := pl.Put(p, ctx, 1<<20)
		if err != nil {
			t.Fatalf("Put: %v", err)
		}
		thief := &FnCtx{Fn: "g", Workflow: "other", Loc: Location{Node: 0, GPU: 1}}
		if err := pl.Get(p, thief, ref); !errors.Is(err, ErrAccessDenied) {
			t.Errorf("cross-workflow Get = %v, want ErrAccessDenied", err)
		}
		pl.Free(ref)
		if err := pl.Get(p, ctx, ref); !errors.Is(err, ErrNotFound) {
			t.Errorf("Get freed = %v, want ErrNotFound", err)
		}
	})
	s.Run()
	for name, e := range map[string]error{
		"ErrNotFound": ErrNotFound, "ErrEvicted": ErrEvicted,
		"ErrGPUDown": ErrGPUDown, "ErrPathsDown": ErrPathsDown,
		"ErrAccessDenied": ErrAccessDenied,
	} {
		if e == nil {
			t.Errorf("%s is nil", name)
		}
	}
}

// TestFacadeCluster runs a workflow end to end through Sim.NewCluster on the
// Sim's own fabric.
func TestFacadeCluster(t *testing.T) {
	s := MustNewSim("dgx-v100", WithTracer())
	defer s.Close()
	c := s.NewCluster(func(s *Sim) Plane { return s.NewGRouter() })
	app := c.Deploy(TrafficWorkflow(), 0, PlaceOptions{Node: 0})
	for _, at := range GenerateTrace(TraceSpec{Pattern: Bursty, Duration: 2 * time.Second, MeanRPS: 4, Seed: 9}) {
		at := at
		s.Schedule(at, func() { app.Submit(NewRequest()) })
	}
	s.Run()
	if app.Completed == 0 {
		t.Fatal("no requests completed through the façade cluster")
	}
	if s.Tracer().Len() == 0 {
		t.Error("tracer attached but recorded no spans")
	}
}

// TestFacadeCoalescedFanout drives an 8-way fan-out through the façade with
// coalescing on and off, and checks the coalesced run moves fewer bytes over
// the producer's links.
func TestFacadeCoalescedFanout(t *testing.T) {
	run := func(opts ...Option) *Stats {
		s := MustNewSim("dgx-v100", opts...)
		defer s.Close()
		pl := s.NewGRouter()
		prod := &FnCtx{Fn: "p", Workflow: "wf", Loc: Location{Node: 0, GPU: 0}}
		var ref DataRef
		s.Go("produce", func(p *Proc) {
			var err error
			if ref, err = pl.Put(p, prod, 64<<20); err != nil {
				t.Errorf("Put: %v", err)
			}
		})
		for i := 1; i <= 6; i++ {
			gpu := i
			s.Go("consume", func(p *Proc) {
				p.Sleep(time.Millisecond)
				cons := &FnCtx{Fn: "c", Workflow: "wf", Loc: Location{Node: 0, GPU: gpu}}
				if err := pl.Get(p, cons, ref); err != nil {
					t.Errorf("Get: %v", err)
				}
			})
		}
		s.Run()
		return pl.Stats()
	}
	naive := run()
	co := run(WithCoalescing())
	if co.Coalesce.OriginBytes >= naive.BytesMoved {
		t.Errorf("coalescing saved nothing: origin %d vs naive %d", co.Coalesce.OriginBytes, naive.BytesMoved)
	}
	if got := co.Coalesce.Joined + co.Coalesce.Chained + co.Coalesce.ReplicaHits; got == 0 {
		t.Error("no Get was coalesced")
	}
}

// TestFacadeAutoscale drives a periodic trace through Sim.Autoscale twice and
// checks the elastic pools scale, account GPU-seconds, and stay byte
// identical across runs.
func TestFacadeAutoscale(t *testing.T) {
	run := func() (ReplayStats, ElasticStats, float64) {
		s := MustNewSim("dgx-v100", WithNodes(2), WithSeed(42))
		defer s.Close()
		c := s.NewCluster(func(s *Sim) Plane { return s.NewGRouter() })
		app := c.Deploy(DrivingWorkflow(), 1, PlaceOptions{Node: 0, SplitAcrossNodes: true})
		ep := s.Autoscale(app, ElasticConfig{
			Scaler:          ReactiveScaler{ScaleOutDepth: 2, ScaleIn: true},
			Min:             1,
			Max:             3,
			Interval:        100 * time.Millisecond,
			ScaleInCooldown: 300 * time.Millisecond,
		})
		arrivals := GenerateTrace(TraceSpec{
			Pattern: Periodic, Duration: 2 * time.Second, MeanRPS: 400, Seed: 7,
		})
		st, err := app.Replay(arrivals, ReplaySpec{Quantum: 10 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		return st, ep.Stats, ep.GPUSeconds()
	}
	st1, es1, gs1 := run()
	st2, es2, gs2 := run()
	if st1.Completed == 0 {
		t.Fatal("no requests completed through the autoscaled façade")
	}
	if es1.ScaleOuts == 0 {
		t.Error("periodic trace provoked no scale-out")
	}
	if gs1 <= 0 {
		t.Errorf("GPU-seconds = %v, want positive", gs1)
	}
	if st1 != st2 || es1 != es2 || gs1 != gs2 {
		t.Errorf("autoscaled replay diverged across runs:\n%+v %+v %v\n%+v %+v %v",
			st1, es1, gs1, st2, es2, gs2)
	}
}

// TestFacadeReplayScaleOut exercises the sharded fleet replay through the
// façade: WithShards is a pure execution knob, so the deterministic results
// must match across shard counts.
func TestFacadeReplayScaleOut(t *testing.T) {
	arrivals := GenerateTrace(TraceSpec{
		Pattern: Bursty, Duration: time.Second, MeanRPS: 200, Seed: 42,
	})
	buildPod := func(pod int, s *Sim) *App {
		c := s.NewCluster(func(s *Sim) Plane { return s.NewGRouter() })
		return c.Deploy(DrivingWorkflow(), 0, PlaceOptions{Node: 0, SplitAcrossNodes: true})
	}
	run := func(shards int) ScaleOutStats {
		st, err := ReplayScaleOut("dgx-v100", arrivals, buildPod,
			WithNodes(2), WithShards(shards), WithTracer())
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	st1, st4 := run(1), run(4)
	if st1.Completed != len(arrivals) {
		t.Fatalf("completed %d of %d", st1.Completed, len(arrivals))
	}
	if st1.Completed != st4.Completed || st1.P99 != st4.P99 || st1.Duration != st4.Duration {
		t.Errorf("shard counts diverged: 1 shard %+v, 4 shards %+v", st1.ReplayStats, st4.ReplayStats)
	}
	if len(st4.Tracers) != 4 {
		t.Errorf("WithTracer: %d tracers, want 4", len(st4.Tracers))
	}
	if _, err := ReplayScaleOut("no-such-topo", arrivals, buildPod); err == nil {
		t.Error("unknown topology should error")
	}
}

// TestFacadePDServing drives the LLM prefill/decode surface entirely through
// the façade: DeployLLM on a Runtime with an explicit placement policy,
// typed requests built with NewRequest options, and the re-exported
// ErrBadRequest sentinel.
func TestFacadePDServing(t *testing.T) {
	s := MustNewSim("h800x8")
	defer s.Close()
	c := s.NewCluster(func(s *Sim) Plane { return s.NewGRouter() })
	// SaturationDepth is high so the burst of simultaneous long submissions
	// below disaggregates instead of overflowing to the mixed pool.
	svc, err := c.DeployLLM(PDConfig{
		LLM:            MustLookupLLM("llama-7b"),
		PrefillWorkers: 1, DecodeWorkers: 1, MixedWorkers: 6,
		LongPromptTokens: 512, SaturationDepth: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	var sigs []*Signal
	submit := func(opts ...RequestOption) {
		done, err := svc.Submit(NewRequest(opts...))
		if err != nil {
			t.Fatal(err)
		}
		sigs = append(sigs, done)
	}
	for i := 0; i < 8; i++ {
		submit(ReqPrompt(256), ReqOutput(8))
		submit(ReqPrompt(2048), ReqOutput(8), ReqSession(int64(i)+1))
	}
	s.Go("wait", func(p *Proc) {
		for _, sig := range sigs {
			sig.Wait(p)
		}
	})
	s.Run()
	if svc.Completed != 16 {
		t.Fatalf("completed %d of 16", svc.Completed)
	}
	// The policy's threshold (512) must be in effect: 2048-token prompts split.
	if svc.Stats.Disaggregated != 8 || svc.Stats.KVTransfers != 8 {
		t.Errorf("disaggregated=%d kv-transfers=%d, want 8/8 (policy threshold not applied?)",
			svc.Stats.Disaggregated, svc.Stats.KVTransfers)
	}
	if svc.Stats.Long != 8 || svc.Stats.Short != 8 {
		t.Errorf("long/short = %d/%d, want 8/8", svc.Stats.Long, svc.Stats.Short)
	}
	if _, err := svc.Submit(NewRequest(ReqPrompt(-1))); !errors.Is(err, ErrBadRequest) {
		t.Errorf("invalid request error = %v, want ErrBadRequest", err)
	}
	if _, err := svc.Submit(NewRequest(ReqModel("no-such-model"))); !errors.Is(err, ErrBadRequest) {
		t.Errorf("wrong-model error = %v, want ErrBadRequest", err)
	}
	// A threshold above the default 1024-token split keeps the same
	// 2048-token prompt colocated.
	svc2, err := c.DeployLLM(PDConfig{
		LLM:            MustLookupLLM("llama-7b"),
		PrefillWorkers: 1, DecodeWorkers: 1, MixedWorkers: 6,
		LongPromptTokens: 4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	done, err := svc2.Submit(NewRequest(ReqPrompt(2048)))
	if err != nil {
		t.Fatal(err)
	}
	s.Go("wait2", func(p *Proc) { done.Wait(p) })
	s.Run()
	if svc2.Stats.Long != 0 || svc2.Stats.Short != 1 {
		t.Errorf("4096-token threshold long/short = %d/%d, want 0/1", svc2.Stats.Long, svc2.Stats.Short)
	}
}
