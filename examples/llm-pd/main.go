// LLM prefill/decode disaggregation over the data plane. An 8×H800 node
// serves llama-7b with one prefill worker, one decode worker, and six mixed
// workers: the service's placement policy splits long-prompt requests
// across the prefill/decode pair — shipping the prompt's KV cache between
// the two GPUs through the GROUTER data plane — while short interactive
// requests run colocated on the mixed pool. The program replays the same interactive
// trace (rare 8k-token prompts mixed into short requests) against a
// colocated-only service and the disaggregated one, showing how fencing
// prefill off protects the short-request tail. Everything goes through the
// grouter façade and its typed Request API.
package main

import (
	"fmt"
	"time"

	"grouter"
)

const (
	longPrompt  = 8192
	shortPrompt = 256
	outTokens   = 8
	longEvery   = 128
)

// serve replays one trace through a PD service: disaggregated carves a
// 1 prefill / 1 decode / 6 mixed partition, colocated makes all 8 GPUs
// mixed workers. Same policy, same trace, same prompt mix either way.
func serve(arrivals []time.Duration, disaggregated bool) (grouter.ReplayStats, grouter.PDStats, time.Duration) {
	s := grouter.MustNewSim("h800x8")
	defer s.Close()
	c := s.NewCluster(func(s *grouter.Sim) grouter.Plane { return s.NewGRouter() })
	cfg := grouter.PDConfig{
		LLM:              grouter.MustLookupLLM("llama-7b"),
		MixedWorkers:     8,
		DefaultOutTokens: outTokens,
	}
	if disaggregated {
		cfg.PrefillWorkers, cfg.DecodeWorkers, cfg.MixedWorkers = 1, 1, 6
	}
	svc, err := c.DeployLLM(cfg)
	if err != nil {
		panic(err)
	}
	st, err := svc.Replay(arrivals, grouter.ReplaySpec{Quantum: 10 * time.Millisecond, RequestAt: func(i int) grouter.Request {
		if i%longEvery == 0 {
			return grouter.NewRequest(
				grouter.ReqPrompt(longPrompt),
				grouter.ReqOutput(outTokens),
				grouter.ReqSession(int64(i%16)+1))
		}
		return grouter.NewRequest(grouter.ReqPrompt(shortPrompt), grouter.ReqOutput(outTokens))
	}})
	if err != nil {
		panic(err)
	}
	return st, svc.Stats, svc.TTFT.P(0.99)
}

func main() {
	arrivals := grouter.GenerateTrace(grouter.TraceSpec{
		Pattern: grouter.Sporadic, Duration: 20 * time.Second, MeanRPS: 90, Seed: 42,
	})
	fmt.Printf("interactive llama-7b serving on one 8xH800 node: %d requests, 1 in %d an %d-token prompt\n\n",
		len(arrivals), longEvery, longPrompt)
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	for _, mode := range []string{"colocated", "disaggregated"} {
		st, ps, ttft := serve(arrivals, mode == "disaggregated")
		fmt.Printf("%-14s p50=%6.2fms p99=%6.2fms ttft-p99=%6.2fms\n",
			mode, ms(st.P50), ms(st.P99), ms(ttft))
		fmt.Printf("%-14s colocated=%d disaggregated=%d kv-transfers=%d kv-moved=%.1f GiB\n\n",
			"", ps.Colocated, ps.Disaggregated, ps.KVTransfers, float64(ps.KVBytes)/float64(1<<30))
	}
	fmt.Println("the partition fences 330 ms prefills off the mixed pool, so short requests")
	fmt.Println("never queue behind them; the KV handoff rides the data plane over NVSwitch.")
}
