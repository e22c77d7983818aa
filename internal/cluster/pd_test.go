package cluster

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"grouter/internal/core"
	"grouter/internal/dataplane"
	"grouter/internal/fabric"
	"grouter/internal/faults"
	"grouter/internal/models"
	"grouter/internal/sim"
	"grouter/internal/topology"
)

// newLLMService builds a one-node H800 cluster and deploys the llama-7b
// service with the given pool partition.
func newLLMService(t *testing.T, cfg PDConfig) (*sim.Engine, *Cluster, *LLMService) {
	t.Helper()
	e := sim.NewEngine()
	c := New(e, topology.H800x8(), 1, grouterPlane)
	if cfg.LLM == nil {
		cfg.LLM = models.MustLookupLLM("llama-7b")
	}
	svc, err := c.DeployLLM(cfg)
	if err != nil {
		t.Fatalf("DeployLLM: %v", err)
	}
	return e, c, svc
}

// pdOutcome captures everything observable about one driven service.
type pdOutcome struct {
	completed int
	e2e       []time.Duration
	ttft      []time.Duration
	stats     PDStats
}

// drivePD admits one request per arrival and drains the engine.
func drivePD(e *sim.Engine, svc *LLMService, arrivals []time.Duration, reqAt func(i int) Request) pdOutcome {
	for i, at := range arrivals {
		i := i
		e.Schedule(at, func() { svc.startReq(reqAt(i), nil) })
	}
	e.Run(0)
	return pdOutcome{
		completed: svc.Completed,
		e2e:       svc.E2E.Samples(),
		ttft:      svc.TTFT.Samples(),
		stats:     svc.Stats,
	}
}

func pdArrivals(n int, gap time.Duration) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(i) * gap
	}
	return out
}

// TestPDZeroKVSequentialOracle: with a free KV handoff (ZeroKV) and no
// queueing (closed-loop sequential drive), the disaggregated plan costs
// exactly prefill + decode — byte-identical latencies to colocated even
// across different GPUs.
func TestPDZeroKVSequentialOracle(t *testing.T) {
	run := func(cfg PDConfig, pd PDMode) pdOutcome {
		e, _, svc := newLLMService(t, cfg)
		defer e.Close()
		e.Go("driver", func(p *sim.Proc) {
			for i := 0; i < 40; i++ {
				sig, err := svc.Submit(Request{PD: pd, PromptTokens: 128 * (1 + i%6), OutTokens: 4})
				if err != nil {
					t.Errorf("Submit: %v", err)
					return
				}
				sig.Wait(p)
			}
		})
		e.Run(0)
		return pdOutcome{completed: svc.Completed, e2e: svc.E2E.Samples(), ttft: svc.TTFT.Samples()}
	}
	disagg := run(PDConfig{PrefillWorkers: 1, DecodeWorkers: 1, ZeroKV: true}, PDDisaggregated)
	coloc := run(PDConfig{MixedWorkers: 1}, PDColocated)
	if !reflect.DeepEqual(disagg, coloc) {
		t.Errorf("zero-cost-transfer PD diverged from colocated:\n%+v\n%+v", disagg, coloc)
	}
	if disagg.completed != 40 {
		t.Fatalf("completed %d, want 40", disagg.completed)
	}
}

// TestPDHandoffRidesDataPlane: a real disaggregated run moves every KV cache
// through the plane (bytes accounted, transfer latencies recorded) and costs
// more than the same run with a free handoff.
func TestPDHandoffRidesDataPlane(t *testing.T) {
	run := func(zero bool) (pdOutcome, *dataplane.Stats, *LLMService) {
		e, c, svc := newLLMService(t, PDConfig{PrefillWorkers: 2, DecodeWorkers: 2, ZeroKV: zero})
		defer e.Close()
		out := drivePD(e, svc, pdArrivals(50, 3*time.Millisecond), func(i int) Request {
			return Request{PD: PDDisaggregated, PromptTokens: 1024, OutTokens: 8}
		})
		return out, c.Plane.Stats(), svc
	}
	real_, planeStats, svc := run(false)
	free, _, _ := run(true)
	if real_.completed != 50 || free.completed != 50 {
		t.Fatalf("completed %d/%d, want 50/50", real_.completed, free.completed)
	}
	kv := svc.Model.KVBytes(1024)
	if real_.stats.KVTransfers != 50 || real_.stats.KVBytes != 50*kv {
		t.Errorf("handoff stats = %+v, want 50 transfers of %d bytes", real_.stats, kv)
	}
	if svc.KVXfer.Count() != 50 || svc.KVXfer.Mean() <= 0 {
		t.Errorf("KVXfer = %d samples mean %v, want 50 positive", svc.KVXfer.Count(), svc.KVXfer.Mean())
	}
	if planeStats.BytesMoved < 50*kv {
		t.Errorf("plane moved %d bytes, want >= %d", planeStats.BytesMoved, 50*kv)
	}
	if !(real_.e2e[0] > free.e2e[0]) {
		t.Errorf("real handoff e2e %v not above free-handoff %v", real_.e2e[0], free.e2e[0])
	}
}

// failEveryN wraps a plane, failing every n-th Get with a transfer error —
// the deterministic lost-KV case.
type failEveryN struct {
	dataplane.Plane
	n, gets int
}

func (f *failEveryN) Get(p *sim.Proc, ctx *dataplane.FnCtx, ref dataplane.DataRef) error {
	f.gets++
	if f.gets%f.n == 0 {
		return dataplane.ErrNotFound
	}
	return f.Plane.Get(p, ctx, ref)
}

// TestPDRecomputeOnLostKV: a failed handoff falls back to recomputing
// prefill on the decode GPU, and the request still completes.
func TestPDRecomputeOnLostKV(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	c := New(e, topology.H800x8(), 1, func(f *fabric.Fabric) dataplane.Plane {
		return &failEveryN{Plane: core.New(f, core.FullConfig()), n: 5}
	})
	svc, err := c.DeployLLM(PDConfig{LLM: models.MustLookupLLM("llama-7b"), PrefillWorkers: 1, DecodeWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	out := drivePD(e, svc, pdArrivals(20, 5*time.Millisecond), func(i int) Request {
		return Request{PD: PDDisaggregated, PromptTokens: 512, OutTokens: 4}
	})
	if out.completed != 20 {
		t.Fatalf("completed %d, want 20", out.completed)
	}
	if out.stats.Recomputes != 4 {
		t.Errorf("recomputes = %d, want 4 (every 5th Get fails)", out.stats.Recomputes)
	}
	if out.stats.KVTransfers != 16 {
		t.Errorf("transfers = %d, want 16", out.stats.KVTransfers)
	}
}

// pdChaosReplay replays a PD-mixed trace while a seeded fault schedule
// crashes the busiest prefill GPU mid-handoff window and flaps NVLinks,
// exercising the data plane's retry/replan and crash re-materialization
// under the handoff.
func pdChaosReplay(t *testing.T) (ReplayStats, pdOutcome) {
	t.Helper()
	e, c, svc := newLLMService(t, PDConfig{PrefillWorkers: 2, DecodeWorkers: 3, MixedWorkers: 3})
	defer e.Close()
	in := faults.NewInjector(c.Fabric)
	crasher, ok := c.Plane.(faults.Crasher)
	if !ok {
		t.Fatal("core plane does not implement faults.Crasher")
	}
	in.CrashGPUAt(40*time.Millisecond, crasher, 0, 0)
	// H800x8 is an NVSwitch fabric: flap GPU injection/ejection ports.
	topo := c.Fabric.Topo(0)
	var links []string
	for g := 0; g < topo.Spec.NumGPUs; g++ {
		links = append(links, c.Fabric.Cluster.LinkName(topo.NVPortOut(g)), c.Fabric.Cluster.LinkName(topo.NVPortIn(g)))
	}
	if err := in.RandomLinkFaults(7, links, time.Second, 100*time.Millisecond, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}

	st, err := svc.Replay(pdArrivals(300, time.Millisecond), ReplaySpec{
		Quantum: 5 * time.Millisecond,
		RequestAt: func(i int) Request {
			if i%3 == 0 {
				return Request{PD: PDDisaggregated, PromptTokens: 2048, OutTokens: 8, Session: int64(i % 16)}
			}
			return Request{PD: PDColocated, PromptTokens: 256, OutTokens: 8}
		},
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return st, pdOutcome{completed: svc.Completed, e2e: svc.E2E.Samples(), ttft: svc.TTFT.Samples(), stats: svc.Stats}
}

// TestPDCrashMidHandoffDeterministic: the full PD chaos stack — GPU crash on
// a prefill worker, seeded link flaps, mixed colocated/disaggregated load —
// must complete every request and replay byte-identically.
func TestPDCrashMidHandoffDeterministic(t *testing.T) {
	stA, a := pdChaosReplay(t)
	stB, b := pdChaosReplay(t)
	if !reflect.DeepEqual(stA, stB) {
		t.Errorf("chaos replay stats diverged:\n%+v\n%+v", stA, stB)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("chaos PD outcomes diverged:\n%+v\n%+v", a.stats, b.stats)
	}
	if a.completed != 300 {
		t.Errorf("completed %d, want 300 (crash must not lose requests)", a.completed)
	}
	if a.stats.Disaggregated != 100 || a.stats.Colocated != 200 {
		t.Errorf("plan split = %+v, want 100 disaggregated / 200 colocated", a.stats)
	}
}

// TestDeployLLMValidation rejects malformed configs and model mismatches
// with ErrBadRequest, and LLMService.Replay validates like App.Replay.
func TestDeployLLMValidation(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	c := New(e, topology.H800x8(), 1, grouterPlane)
	llm := models.MustLookupLLM("llama-7b")
	bad := []PDConfig{
		{},                            // no LLM
		{LLM: llm},                    // no workers
		{LLM: llm, PrefillWorkers: 2}, // decode missing
		{LLM: llm, DecodeWorkers: 2},  // prefill missing
		{LLM: llm, MixedWorkers: 9},   // exceeds 8 GPUs
		{LLM: llm, MixedWorkers: -1},  // negative
		{LLM: llm, PrefillWorkers: 5, DecodeWorkers: 5}, // exceeds capacity
	}
	for i, cfg := range bad {
		if _, err := c.DeployLLM(cfg); !errors.Is(err, ErrBadRequest) {
			t.Errorf("bad config %d: err = %v, want ErrBadRequest", i, err)
		}
	}
	svc, err := c.DeployLLM(PDConfig{LLM: llm, PrefillWorkers: 2, DecodeWorkers: 2, MixedWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(svc.PrefillPool) != 2 || len(svc.DecodePool) != 2 || len(svc.MixedPool) != 2 {
		t.Fatalf("pools = %d/%d/%d, want 2/2/2", len(svc.PrefillPool), len(svc.DecodePool), len(svc.MixedPool))
	}
	if svc.DecodePool[0] == svc.PrefillPool[0] {
		t.Error("pools overlap")
	}
	if _, err := svc.Submit(Request{Model: "qwen-32b"}); !errors.Is(err, ErrBadRequest) {
		t.Errorf("wrong model: err = %v, want ErrBadRequest", err)
	}
	if _, err := svc.Submit(Request{Batch: -1}); !errors.Is(err, ErrBadRequest) {
		t.Errorf("invalid request: err = %v, want ErrBadRequest", err)
	}
	if _, err := svc.Replay(nil, ReplaySpec{}); !errors.Is(err, ErrNilTrace) {
		t.Errorf("nil trace: err = %v, want ErrNilTrace", err)
	}
	if _, err := svc.Replay([]time.Duration{}, ReplaySpec{Quantum: -1}); !errors.Is(err, ErrNegativeQuantum) {
		t.Errorf("negative quantum: err = %v, want ErrNegativeQuantum", err)
	}
	if _, err := svc.Replay([]time.Duration{2, 1}, ReplaySpec{}); !errors.Is(err, ErrUnsortedTrace) {
		t.Errorf("unsorted trace: err = %v, want ErrUnsortedTrace", err)
	}
}
