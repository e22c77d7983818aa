package kvcache

import (
	"testing"
	"time"

	"grouter/internal/models"
	"grouter/internal/sim"
)

func ttftOf(t *testing.T, sys System, llmName string, tokens, tp int) time.Duration {
	t.Helper()
	e := sim.NewEngine()
	defer e.Close()
	c := NewCluster(e, 2)
	var got time.Duration
	e.Go("ttft", func(p *sim.Proc) {
		got = c.TTFT(p, sys, models.MustLookupLLM(llmName), tokens, tp, 0, 1)
	})
	e.Run(0)
	if got <= 0 {
		t.Fatalf("%v TTFT = %v", sys, got)
	}
	return got
}

func TestTTFTOrderingAcrossSystems(t *testing.T) {
	// Paper Fig. 19(a): GROUTER < Mooncake+ < INFless+ at 4K input.
	g := ttftOf(t, SysGRouter, "llama-7b", 4096, 1)
	m := ttftOf(t, SysMooncake, "llama-7b", 4096, 1)
	i := ttftOf(t, SysINFless, "llama-7b", 4096, 1)
	if !(g < m && m < i) {
		t.Errorf("TTFT order wrong: grouter=%v mooncake+=%v infless+=%v", g, m, i)
	}
	// Paper reports ~66% vs INFless+ and ~57% vs Mooncake+ at 4K.
	if r := 1 - g.Seconds()/i.Seconds(); r < 0.4 {
		t.Errorf("reduction vs INFless+ = %.0f%%, want > 40%%", r*100)
	}
	if r := 1 - g.Seconds()/m.Seconds(); r < 0.3 {
		t.Errorf("reduction vs Mooncake+ = %.0f%%, want > 30%%", r*100)
	}
}

func TestTTFTGrowsWithInputLength(t *testing.T) {
	for _, sys := range []System{SysINFless, SysMooncake, SysGRouter} {
		prev := time.Duration(0)
		for _, tokens := range []int{1024, 4096, 16384} {
			got := ttftOf(t, sys, "llama-7b", tokens, 1)
			if got <= prev {
				t.Errorf("%v: TTFT(%d)=%v not greater than shorter input %v", sys, tokens, got, prev)
			}
			prev = got
		}
	}
}

func TestMooncakeGapNarrowsWithTP(t *testing.T) {
	// Paper: as TP increases Mooncake starts using multiple NICs, narrowing
	// GROUTER's advantage.
	gap := func(tp int) float64 {
		g := ttftOf(t, SysGRouter, "llama-70b", 4096, tp)
		m := ttftOf(t, SysMooncake, "llama-70b", 4096, tp)
		return m.Seconds() / g.Seconds()
	}
	g1, g8 := gap(1), gap(8)
	if !(g8 < g1) {
		t.Errorf("advantage should narrow with TP: tp1 ratio %.2f, tp8 ratio %.2f", g1, g8)
	}
	if g8 < 1.0 {
		t.Errorf("GROUTER should still win at TP=8 (ratio %.2f)", g8)
	}
}

func TestGrouterWinsAcrossModels(t *testing.T) {
	for _, name := range []string{"llama-7b", "llama-13b", "qwen-32b", "llama-70b"} {
		g := ttftOf(t, SysGRouter, name, 4096, 4)
		m := ttftOf(t, SysMooncake, name, 4096, 4)
		i := ttftOf(t, SysINFless, name, 4096, 4)
		if !(g < m && g < i) {
			t.Errorf("%s: grouter=%v mooncake+=%v infless+=%v", name, g, m, i)
		}
	}
}

func TestMoALatencyEndToEnd(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	c := NewCluster(e, 2)
	cfg := MoAConfig{
		LLM: models.MustLookupLLM("llama-7b"), Layers: 3, Agents: 3, TP: 2,
		PromptTokens: 2048, ResponseTokens: 256,
	}
	var g, i time.Duration
	e.Go("moa", func(p *sim.Proc) {
		g = c.MoALatency(p, SysGRouter, cfg)
		i = c.MoALatency(p, SysINFless, cfg)
	})
	e.Run(0)
	if g <= 0 || i <= 0 {
		t.Fatalf("MoA latencies: grouter=%v infless=%v", g, i)
	}
	if !(g < i) {
		t.Errorf("grouter MoA %v not faster than infless+ %v", g, i)
	}
}

func TestTransferScalesWithModelSize(t *testing.T) {
	small := ttftOf(t, SysGRouter, "llama-7b", 4096, 2)
	big := ttftOf(t, SysGRouter, "llama-13b", 4096, 2)
	if !(big > small) {
		t.Errorf("13B KV transfer %v not slower than 7B %v", big, small)
	}
}

func TestGQAModelsMoveLessKV(t *testing.T) {
	// qwen-32b uses GQA (8 KV heads): its cache per token is smaller than
	// llama-13b's MHA cache despite more parameters, so its transfer-bound
	// TTFT at matched TP can be lower.
	l13 := models.MustLookupLLM("llama-13b")
	q32 := models.MustLookupLLM("qwen-32b")
	if !(q32.KVBytesPerToken() < l13.KVBytesPerToken()) {
		t.Fatalf("GQA cache %d not below MHA cache %d", q32.KVBytesPerToken(), l13.KVBytesPerToken())
	}
}

func TestMoAMoreLayersCostMore(t *testing.T) {
	run := func(layers int) time.Duration {
		e := sim.NewEngine()
		defer e.Close()
		c := NewCluster(e, 2)
		cfg := MoAConfig{LLM: models.MustLookupLLM("llama-7b"), Layers: layers,
			Agents: 2, TP: 2, PromptTokens: 1024, ResponseTokens: 128}
		var d time.Duration
		e.Go("moa", func(p *sim.Proc) { d = c.MoALatency(p, SysGRouter, cfg) })
		e.Run(0)
		return d
	}
	if !(run(4) > run(2)) {
		t.Error("more MoA layers should cost more")
	}
}

func TestSystemStringNames(t *testing.T) {
	if SysINFless.String() != "infless+" || SysMooncake.String() != "mooncake+" ||
		SysGRouter.String() != "grouter" {
		t.Error("system names wrong")
	}
	if System(99).String() != "unknown" {
		t.Error("unknown system should stringify as unknown")
	}
}

func TestTransferDeterministic(t *testing.T) {
	a := ttftOf(t, SysMooncake, "llama-70b", 8192, 4)
	b := ttftOf(t, SysMooncake, "llama-70b", 8192, 4)
	if a != b {
		t.Errorf("nondeterministic KV transfer: %v vs %v", a, b)
	}
}

// TestKVTransferRetriesBriefOutage takes node 0's first NIC down for 100 µs
// at 400 ms, inside INFless+'s network phase (about 358–402 ms). The killed
// stream must be retried: the transfer finishes no earlier than the
// fault-free one, never early as if the lost bytes had arrived.
func TestKVTransferRetriesBriefOutage(t *testing.T) {
	llm := models.MustLookupLLM("llama-7b")
	run := func(outage bool) (time.Duration, int64) {
		e := sim.NewEngine()
		defer e.Close()
		c := NewCluster(e, 2)
		if outage {
			nic := c.F.Topo(0).NICTx(0)
			e.Schedule(400*time.Millisecond, func() { c.F.Net.FailLink(nic) })
			e.Schedule(400*time.Millisecond+100*time.Microsecond, func() { c.F.Net.RestoreLink(nic) })
		}
		var d time.Duration
		e.Go("kv", func(p *sim.Proc) { d = c.TransferKV(p, SysINFless, llm, 4096, 2, 0, 1) })
		e.Run(0)
		return d, c.F.Net.Faults().Retries
	}
	faultFree, _ := run(false)
	faulted, retries := run(true)
	t.Logf("fault-free %v; under the outage %v with %d retries", faultFree, faulted, retries)
	if retries == 0 {
		t.Error("the outage caused no retry")
	}
	if faulted < faultFree {
		t.Errorf("transfer under the outage took %v, less than fault-free %v", faulted, faultFree)
	}
}
