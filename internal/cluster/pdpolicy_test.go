package cluster

import (
	"reflect"
	"testing"
	"time"

	"grouter/internal/fabric"
	"grouter/internal/sim"
)

// The placement policy (LLMService.decide) at its production constants: at
// most maxInflightKV KV handoffs in flight, session affinity on.

// recordHolds records the worker of every GPU hold the service releases, in
// release order: a colocated request holds one worker, a disaggregated one
// its prefill worker and then its decode worker.
func recordHolds(c *Cluster) *[]fabric.Location {
	var out []fabric.Location
	c.OnGPUService = func(node, gpu int, _ time.Duration) {
		out = append(out, fabric.Location{Node: node, GPU: gpu})
	}
	return &out
}

func inPool(pool []fabric.Location, loc fabric.Location) bool {
	for _, l := range pool {
		if l == loc {
			return true
		}
	}
	return false
}

// TestPDPolicyLongShortSplit: PDAuto requests split on the prompt-length
// threshold — long prompts to prefill/decode pairs, short to the mixed pool.
func TestPDPolicyLongShortSplit(t *testing.T) {
	e, c, svc := newLLMService(t, PDConfig{PrefillWorkers: 2, DecodeWorkers: 2, MixedWorkers: 2})
	defer e.Close()
	holds := recordHolds(c)
	e.Go("driver", func(p *sim.Proc) {
		for i := 0; i < 12; i++ {
			prompt := 256
			if i%2 == 0 {
				prompt = 2048
			}
			before := len(*holds)
			sig, err := svc.Submit(Request{PromptTokens: prompt, OutTokens: 4})
			if err != nil {
				t.Errorf("Submit: %v", err)
				return
			}
			sig.Wait(p)
			got := (*holds)[before:]
			if i%2 == 0 {
				if len(got) != 2 || !inPool(svc.PrefillPool, got[0]) || !inPool(svc.DecodePool, got[1]) {
					t.Errorf("request %d: long prompt held %v, want a prefill then a decode worker", i, got)
				}
			} else if len(got) != 1 || !inPool(svc.MixedPool, got[0]) {
				t.Errorf("request %d: short prompt held %v, want one mixed worker", i, got)
			}
		}
	})
	e.Run(0)
	if svc.Stats.Long != 6 || svc.Stats.Short != 6 {
		t.Fatalf("long/short = %d/%d, want 6/6", svc.Stats.Long, svc.Stats.Short)
	}
	if svc.Stats.Disaggregated != 6 || svc.Stats.Colocated != 6 || svc.Stats.Overflows != 0 {
		t.Fatalf("stats = %+v, want 6 disaggregated, 6 colocated, 0 overflow", svc.Stats)
	}
}

// TestPDPolicyExplicitModes: explicit Request.PD overrides the prompt-length
// heuristic in both directions.
func TestPDPolicyExplicitModes(t *testing.T) {
	e, _, svc := newLLMService(t, PDConfig{PrefillWorkers: 1, DecodeWorkers: 1, MixedWorkers: 1})
	defer e.Close()
	e.Go("driver", func(p *sim.Proc) {
		long, _ := svc.Submit(Request{PD: PDColocated, PromptTokens: 4096, OutTokens: 4})
		long.Wait(p)
		short, _ := svc.Submit(Request{PD: PDDisaggregated, PromptTokens: 64, OutTokens: 4})
		short.Wait(p)
	})
	e.Run(0)
	if svc.Stats.Colocated != 1 || svc.Stats.Disaggregated != 1 {
		t.Errorf("stats = %+v, want one of each mode", svc.Stats)
	}
	if svc.Stats.Long != 0 || svc.Stats.Short != 0 {
		t.Errorf("explicit modes counted as auto: %+v", svc.Stats)
	}
}

// TestPDPolicyOverflow: a burst of long-prompt PDAuto requests saturates the
// single prefill/decode pair and overflows to the mixed pool instead of
// queueing.
func TestPDPolicyOverflow(t *testing.T) {
	e, _, svc := newLLMService(t, PDConfig{PrefillWorkers: 1, DecodeWorkers: 1, MixedWorkers: 2, SaturationDepth: 2})
	defer e.Close()
	for i := 0; i < 12; i++ {
		e.Schedule(0, func() {
			if _, err := svc.Submit(Request{PromptTokens: 4096, OutTokens: 4}); err != nil {
				t.Errorf("Submit: %v", err)
			}
		})
	}
	e.Run(0)
	if svc.Completed != 12 {
		t.Fatalf("completed %d, want 12", svc.Completed)
	}
	if svc.Stats.Overflows == 0 {
		t.Fatalf("no overflows under a 12-request burst on depth-2 pools: %+v", svc.Stats)
	}
	if svc.Stats.Disaggregated == 0 {
		t.Fatalf("everything overflowed; want some disaggregated first: %+v", svc.Stats)
	}
	if svc.Stats.Disaggregated+svc.Stats.Colocated != 12 {
		t.Errorf("%d decisions for 12 requests: %+v", svc.Stats.Disaggregated+svc.Stats.Colocated, svc.Stats)
	}
}

// TestPDPolicyInflightKVOverflow: with maxInflightKV handoffs waiting on a
// busy decode worker, a long request is downgraded to colocated. Nine long
// requests queue on one prefill worker; the first holds the decode worker
// for 1,024 output tokens, so each later prefill leaves its KV cache in
// flight until the tenth request arrives.
func TestPDPolicyInflightKVOverflow(t *testing.T) {
	e, _, svc := newLLMService(t, PDConfig{PrefillWorkers: 1, DecodeWorkers: 1, MixedWorkers: 1, SaturationDepth: 1 << 30})
	defer e.Close()
	submit := func() {
		if _, err := svc.Submit(Request{PromptTokens: 4096, OutTokens: 1024}); err != nil {
			t.Errorf("Submit: %v", err)
		}
	}
	for i := 0; i < maxInflightKV+1; i++ {
		e.Schedule(0, submit)
	}
	for step := 0; svc.inflightKV < maxInflightKV; step++ {
		if step == 10_000 {
			t.Fatalf("handoffs in flight never reached %d: %d after %v", maxInflightKV, svc.inflightKV, e.Now())
		}
		e.Run(e.Now() + time.Millisecond)
	}
	if svc.Stats.Overflows != 0 {
		t.Fatalf("overflows before the bound: %+v", svc.Stats)
	}
	submit()
	e.Run(0)
	if svc.Stats.Overflows != 1 || svc.Stats.Colocated != 1 {
		t.Fatalf("stats = %+v, want the request at the in-flight bound overflowed to colocated", svc.Stats)
	}
	if svc.Completed != maxInflightKV+2 || svc.Stats.KVTransfers != maxInflightKV+1 {
		t.Errorf("completed %d transfers %d, want %d/%d", svc.Completed, svc.Stats.KVTransfers,
			maxInflightKV+2, maxInflightKV+1)
	}
}

// TestPDPolicySessionAffinity: a session's decode picks pin to one decode
// worker while it is unsaturated, and abandon the pin once it saturates.
func TestPDPolicySessionAffinity(t *testing.T) {
	e, c, svc := newLLMService(t, PDConfig{PrefillWorkers: 1, DecodeWorkers: 3, MixedWorkers: 1})
	defer e.Close()
	holds := recordHolds(c)
	e.Go("driver", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			sig, _ := svc.Submit(Request{PD: PDDisaggregated, PromptTokens: 2048, OutTokens: 4, Session: 5})
			sig.Wait(p)
		}
	})
	e.Run(0)
	pinned := svc.DecodePool[5%3]
	if svc.Stats.Affinity != 5 {
		t.Fatalf("affinity = %d, want 5", svc.Stats.Affinity)
	}
	for i, loc := range *holds {
		if inPool(svc.DecodePool, loc) && loc != pinned {
			t.Errorf("hold %d on decode worker %v, want pinned %v", i, loc, pinned)
		}
	}

	// Saturate the pinned worker with a same-instant burst: pending picks
	// push its load past the threshold, and later decisions spill to the
	// least-loaded decode worker.
	e2, c2, svc2 := newLLMService(t, PDConfig{PrefillWorkers: 1, DecodeWorkers: 3, MixedWorkers: 1, SaturationDepth: 2})
	defer e2.Close()
	holds2 := recordHolds(c2)
	for i := 0; i < 10; i++ {
		e2.Schedule(0, func() {
			if _, err := svc2.Submit(Request{PD: PDDisaggregated, PromptTokens: 2048, OutTokens: 4, Session: 5}); err != nil {
				t.Errorf("Submit: %v", err)
			}
		})
	}
	e2.Run(0)
	if svc2.Stats.Affinity >= 10 {
		t.Fatalf("affinity = %d, want < 10 (pin abandoned at saturation)", svc2.Stats.Affinity)
	}
	pinned2 := svc2.DecodePool[5%3]
	spilled := false
	for _, loc := range *holds2 {
		if inPool(svc2.DecodePool, loc) && loc != pinned2 {
			spilled = true
		}
	}
	if !spilled {
		t.Error("no decode pick spilled off the saturated pinned worker")
	}
}

// TestPDPolicyAffinityCountsDisaggregatedOnly: session-tagged PDAuto
// requests whose pinned decode worker is idle still overflow when the one
// prefill worker saturates, and such a request runs colocated, so it does
// not count as an affinity pick. A same-instant burst of twelve on a depth-2
// pool disaggregates the first three, each on its pinned decode worker, and
// overflows the other nine.
func TestPDPolicyAffinityCountsDisaggregatedOnly(t *testing.T) {
	e, c, svc := newLLMService(t, PDConfig{PrefillWorkers: 1, DecodeWorkers: 3, MixedWorkers: 2, SaturationDepth: 2})
	defer e.Close()
	holds := recordHolds(c)
	for i := 0; i < 12; i++ {
		session := int64(i + 1)
		e.Schedule(0, func() {
			if _, err := svc.Submit(Request{PromptTokens: 4096, OutTokens: 4, Session: session}); err != nil {
				t.Errorf("Submit: %v", err)
			}
		})
	}
	e.Run(0)
	st := svc.Stats
	if st.Disaggregated != 3 || st.Overflows != 9 || st.Affinity != 3 {
		t.Fatalf("stats = %+v, want 3 disaggregated, all 3 on their pinned worker, 9 overflows", st)
	}
	if svc.Completed != 12 {
		t.Fatalf("completed %d, want 12", svc.Completed)
	}
	decodes := 0
	for _, loc := range *holds {
		if inPool(svc.DecodePool, loc) {
			if want := svc.DecodePool[(decodes+1)%3]; loc != want {
				t.Errorf("session %d decoded on %v, want its pinned worker %v", decodes+1, loc, want)
			}
			decodes++
		}
	}
	if decodes != 3 {
		t.Errorf("%d decode holds, want 3", decodes)
	}
}

// TestPDPolicyDefaultsAndColocatedOnlyService: a zero config fills the
// production defaults (split at 1024, saturation depth 4), and a service
// with no PD pools runs everything colocated.
func TestPDPolicyDefaultsAndColocatedOnlyService(t *testing.T) {
	e, _, svc := newLLMService(t, PDConfig{PrefillWorkers: 1, DecodeWorkers: 1, MixedWorkers: 1})
	defer e.Close()
	if svc.Cfg.LongPromptTokens != 1024 || svc.Cfg.SaturationDepth != 4 {
		t.Errorf("defaults: long-prompt %d, saturation depth %d; want 1024, 4",
			svc.Cfg.LongPromptTokens, svc.Cfg.SaturationDepth)
	}
	e.Go("driver", func(p *sim.Proc) {
		a, _ := svc.Submit(Request{PromptTokens: 1024, OutTokens: 4})
		a.Wait(p)
		b, _ := svc.Submit(Request{PromptTokens: 1023, OutTokens: 4})
		b.Wait(p)
	})
	e.Run(0)
	if svc.Stats.Long != 1 || svc.Stats.Short != 1 {
		t.Errorf("default threshold: long/short = %d/%d, want 1/1 at 1024", svc.Stats.Long, svc.Stats.Short)
	}

	e2, _, svc2 := newLLMService(t, PDConfig{MixedWorkers: 4})
	defer e2.Close()
	e2.Go("driver", func(p *sim.Proc) {
		sig, _ := svc2.Submit(Request{PromptTokens: 8192, OutTokens: 4})
		sig.Wait(p)
	})
	e2.Run(0)
	if svc2.Stats.Colocated != 1 || svc2.Stats.Disaggregated != 0 {
		t.Errorf("colocated-only service stats = %+v, want 1 colocated", svc2.Stats)
	}
}

// TestPDRoutedReplayDeterministic: a placed PD replay is byte-identical
// across two independent runs.
func TestPDRoutedReplayDeterministic(t *testing.T) {
	run := func() (ReplayStats, []time.Duration, PDStats) {
		e, _, svc := newLLMService(t, PDConfig{PrefillWorkers: 2, DecodeWorkers: 3, MixedWorkers: 3})
		defer e.Close()
		st, err := svc.Replay(pdArrivals(400, 700*time.Microsecond), ReplaySpec{
			Quantum: 5 * time.Millisecond,
			RequestAt: func(i int) Request {
				if i%4 == 0 {
					return Request{PromptTokens: 4096, OutTokens: 8, Session: int64(i % 32)}
				}
				return Request{PromptTokens: 256, OutTokens: 8}
			},
		})
		if err != nil {
			t.Fatalf("Replay: %v", err)
		}
		return st, svc.E2E.Samples(), svc.Stats
	}
	stA, sA, cA := run()
	stB, sB, cB := run()
	if !reflect.DeepEqual(stA, stB) || !reflect.DeepEqual(cA, cB) {
		t.Errorf("PD replay diverged:\n%+v %+v\n%+v %+v", stA, cA, stB, cB)
	}
	if !reflect.DeepEqual(sA, sB) {
		t.Error("per-request latency samples diverged")
	}
	if stA.Completed != 400 {
		t.Fatalf("completed %d, want 400", stA.Completed)
	}
	if cA.Disaggregated == 0 || cA.Colocated == 0 {
		t.Errorf("degenerate placement mix: %+v", cA)
	}
}
