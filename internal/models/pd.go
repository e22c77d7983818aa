package models

import "time"

// Prefill/decode phase profiles. An LLM request has two compute phases with
// opposite resource shapes: prefill is compute-bound and scales with the
// prompt length, decode is memory-bandwidth-bound and scales with the output
// length. Disaggregated serving places the two phases on different GPUs and
// ships the prompt's KV cache between them, so the serving layer needs each
// phase costed separately — that is what Serve provides. The per-token KV
// footprint comes from the LLM's architecture (llm.go); decode speed comes
// from the device class's HBM bandwidth below.

// hbmBps is the per-class sustained HBM bandwidth (bytes/s) that bounds
// decode: each generated token streams the full weight shard once.
var hbmBps = map[Class]float64{
	ClassA10:  600e9,
	ClassV100: 900e9,
	ClassA100: 2000e9,
	ClassH800: 3350e9,
}

// bytesPerParam is the FP16 weight footprint used for decode and cold-start
// sizing.
const bytesPerParam = 2

// Serve binds an LLM to one serving deployment on a device class, one GPU
// per phase, and derives the request-level phase costs the prefill/decode
// execution plan consumes.
type Serve struct {
	LLM   *LLM
	Class Class
}

// WeightsBytes is the model's full FP16 parameter footprint.
func (s Serve) WeightsBytes() int64 {
	return int64(s.LLM.ParamsB * 1e9 * bytesPerParam)
}

// Prefill returns the prompt-length-scaled prefill latency: the phase is
// compute-bound, 2·params FLOPs per prompt token.
func (s Serve) Prefill(promptTokens int) time.Duration {
	if promptTokens < 1 {
		promptTokens = 1
	}
	return s.LLM.PrefillLatency(s.Class, promptTokens, 1)
}

// DecodePerToken returns the per-output-token decode latency: the phase is
// memory-bandwidth-bound, streaming the weight shard once per token.
func (s Serve) DecodePerToken() time.Duration {
	bw := hbmBps[s.Class]
	if bw == 0 {
		bw = hbmBps[ClassV100]
	}
	return time.Duration(float64(s.WeightsBytes()) / bw * float64(time.Second))
}

// Decode returns the decode-phase latency for an output of the given length.
func (s Serve) Decode(outTokens int) time.Duration {
	if outTokens < 1 {
		outTokens = 1
	}
	return time.Duration(outTokens) * s.DecodePerToken()
}

// KVBytes returns the total KV-cache size of a prompt — the payload a
// disaggregated handoff ships from the prefill GPU to the decode GPU. It is
// strictly monotone in the prompt length.
func (s Serve) KVBytes(promptTokens int) int64 {
	if promptTokens < 0 {
		promptTokens = 0
	}
	return s.LLM.KVBytes(promptTokens)
}
