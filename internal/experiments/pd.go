package experiments

import (
	"fmt"
	"time"

	"grouter/internal/cluster"
	"grouter/internal/core"
	"grouter/internal/dataplane"
	"grouter/internal/fabric"
	"grouter/internal/models"
	"grouter/internal/router"
	"grouter/internal/sim"
	"grouter/internal/topology"
	"grouter/internal/trace"
)

// pdScenario is one topology cell of the ext-pd comparison: a GPU class, a
// prompt mix, an offered load, and the PD pool partition the disaggregated
// systems use. The colocated baseline gets every GPU as a mixed worker.
type pdScenario struct {
	name string
	spec func() *topology.Spec
	llm  string
	// long/short are the two prompt lengths of the mix (every longEvery-th
	// request is long); out is the output length for both.
	long, short, out int
	longEvery        int
	meanRPS          float64
	// prefill/decode/mixed partition the node's GPUs for the PD systems.
	prefill, decode, mixed int
	policy                 router.PDPolicyConfig
}

// pdScenarios returns the two workload/topology cells of the comparison.
//
// "h800 x1" is the disaggregation-friendly regime: interactive traffic with
// rare (1/128) 8k-token prompts on an NVSwitch node. A 8k prefill holds a
// GPU for ~330 ms — colocated, any short request queued behind it blows its
// tail, and the least-loaded signal cannot see the difference (a GPU running
// a long prefill and one running a 44 ms short both count load 1). PD fences
// prefill onto its own worker and the NVSwitch handoff is cheap relative to
// the prefill it isolates, so the overall p99 (set by the short-request tail
// at this mix) improves.
//
// "quad-a10 x1" is the opposite regime: long-prompt-heavy (1/4) traffic on a
// PCIe-only box. The p99 tracks long requests, which disaggregation makes
// strictly worse there: half-gigabyte KV caches ship over the host PCIe
// path, and the static partition gives up pooled capacity the long prefills
// badly need.
func pdScenarios() []pdScenario {
	return []pdScenario{
		{
			name: "h800 x1", spec: topology.H800x8, llm: "llama-7b",
			long: 8192, short: 256, out: 8, longEvery: 128, meanRPS: 90,
			prefill: 1, decode: 1, mixed: 6,
			policy: router.PDPolicyConfig{
				LongPromptTokens: 1024, SaturationDepth: 6,
				MaxInflightKV: 8, SessionAffinity: true,
			},
		},
		{
			name: "quad-a10 x1", spec: topology.QuadA10, llm: "llama-7b",
			long: 1024, short: 128, out: 8, longEvery: 4, meanRPS: 3,
			prefill: 1, decode: 1, mixed: 2,
			policy: router.PDPolicyConfig{
				LongPromptTokens: 512, SaturationDepth: 6,
				MaxInflightKV: 8, SessionAffinity: true,
			},
		},
	}
}

// pdSystem is one compared serving arrangement.
type pdSystem struct {
	name string
	// disaggregated carves the PD partition; otherwise all GPUs are mixed.
	disaggregated bool
	mk            func(f *fabric.Fabric) dataplane.Plane
}

// pdSystems returns the three compared arrangements: colocated (every GPU a
// mixed worker, least-loaded routing), PD over the base data plane, and PD
// with fan-out-aware transfer coalescing on the handoff path. All three use
// the same router policy so the only variables are the partition and the
// plane.
func pdSystems() []pdSystem {
	grouter := func(f *fabric.Fabric) dataplane.Plane { return core.New(f, core.FullConfig()) }
	coalesce := func(f *fabric.Fabric) dataplane.Plane {
		cfg := core.FullConfig()
		cfg.Coalesce = true
		return core.New(f, cfg)
	}
	return []pdSystem{
		{"colocated", false, grouter},
		{"pd", true, grouter},
		{"pd+coalesce", true, coalesce},
	}
}

// pdMix describes request i of the replayed trace: every longEvery-th
// request is a long-prompt (session-tagged) request, the rest are short
// interactive ones. The mix is a pure function of i, so every system replays
// the identical workload.
func pdMix(sc pdScenario) func(i int) cluster.Request {
	return func(i int) cluster.Request {
		req := cluster.Request{PromptTokens: sc.short, OutTokens: sc.out}
		if i%sc.longEvery == 0 {
			req.PromptTokens = sc.long
			req.Session = int64(i%16) + 1
		}
		return req
	}
}

// pdResult is one (scenario, system) replay outcome.
type pdResult struct {
	st      cluster.ReplayStats
	ttftP99 time.Duration
	stats   cluster.PDStats
}

// pdReplay replays one generated trace through one serving arrangement on a
// fresh single-node cluster.
func pdReplay(sc pdScenario, sys pdSystem, pattern trace.Pattern, requests int) pdResult {
	arrivals := trace.Generate(trace.Spec{
		Pattern:  pattern,
		Duration: time.Duration(float64(requests) / sc.meanRPS * float64(time.Second)),
		MeanRPS:  sc.meanRPS,
		Seed:     42,
	})
	if arrivals == nil {
		arrivals = []time.Duration{}
	}
	e := sim.NewEngine()
	defer e.Close()
	c := cluster.New(e, sc.spec(), 1, sys.mk)
	cfg := cluster.PDConfig{
		LLM:              models.MustLookupLLM(sc.llm),
		DefaultOutTokens: sc.out,
	}
	if sys.disaggregated {
		cfg.PrefillWorkers = sc.prefill
		cfg.DecodeWorkers = sc.decode
		cfg.MixedWorkers = sc.mixed
	} else {
		cfg.MixedWorkers = sc.prefill + sc.decode + sc.mixed
	}
	svc, err := c.DeployLLM(cfg)
	if err != nil {
		panic(err)
	}
	router.NewPD(svc, sc.policy)
	st, err := svc.Replay(arrivals, cluster.ReplaySpec{Quantum: ScaleQuantum, RequestAt: pdMix(sc)})
	if err != nil {
		panic(err)
	}
	return pdResult{st: st, ttftP99: svc.TTFT.P(0.99), stats: svc.Stats}
}

// PDTable compares colocated vs prefill/decode-disaggregated serving on the
// same replayed traces, per topology and arrival pattern. Disaggregation
// ships each long prompt's KV cache through the data plane between the
// prefill and decode GPUs, so the handoff pays (and benefits from) the same
// transfer machinery as every other data pass. Everything is measured in
// virtual time, so the table is byte-identical across runs of the same
// build.
func PDTable(requests int) *Table {
	t := &Table{
		ID:    "ext-pd",
		Title: "Prefill/decode disaggregation (extension): colocated vs PD over the data plane",
		Columns: []string{"topo", "pattern", "system", "requests",
			"tput(req/s)", "p50(ms)", "p99(ms)", "ttft-p99(ms)",
			"disagg", "overflow", "kv-xfer", "recompute"},
	}
	for _, sc := range pdScenarios() {
		for _, pattern := range []trace.Pattern{trace.Sporadic, trace.Bursty} {
			for _, sys := range pdSystems() {
				r := pdReplay(sc, sys, pattern, requests)
				t.Rows = append(t.Rows, []string{
					sc.name, pattern.String(), sys.name, fmt.Sprint(r.st.Completed),
					fmt.Sprintf("%.1f", r.st.Throughput), ms(r.st.P50), ms(r.st.P99),
					ms(r.ttftP99),
					fmt.Sprint(r.stats.Disaggregated), fmt.Sprint(r.stats.Overflows),
					fmt.Sprint(r.stats.KVTransfers), fmt.Sprint(r.stats.Recomputes),
				})
			}
		}
	}
	t.Notes = append(t.Notes,
		"extension (not a paper figure): LLM prefill/decode disaggregation with the KV handoff on the data plane",
		"identical trace and prompt mix for every system of a cell (seed 42); long prompts are session-tagged",
		"colocated = all GPUs mixed; pd = static prefill/decode/mixed partition, long prompts split across a pair",
		"pd+coalesce adds fan-out-aware transfer coalescing on the handoff path",
		"h800 x1: interactive mix, rare 8k prompts (1/128) — colocated queues shorts behind 330 ms prefills",
		"quad-a10 x1: long-heavy mix (1/4) — PCIe KV shipping plus pooling loss make colocated win",
		"under saturating bursts pooled capacity beats isolation on both boxes: the partition's fenced-off workers are the bottleneck",
		fmt.Sprintf("arrivals admitted in %v windows; overflow falls back to colocated when PD pools saturate", ScaleQuantum))
	return t
}
