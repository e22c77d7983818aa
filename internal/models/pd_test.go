package models

import (
	"testing"
	"time"
)

func serveUnderTest() Serve {
	return Serve{LLM: MustLookupLLM("llama-7b"), Class: ClassH800}
}

// TestKVBytesMonotoneInPromptTokens is the property the PD handoff relies
// on: a longer prompt never shrinks the shipped KV cache, and each token
// adds exactly the architectural per-token footprint.
func TestKVBytesMonotoneInPromptTokens(t *testing.T) {
	for _, name := range []string{"llama-7b", "llama-13b", "qwen-32b", "llama-70b"} {
		s := Serve{LLM: MustLookupLLM(name), Class: ClassH800}
		prev := s.KVBytes(0)
		if prev != 0 {
			t.Fatalf("%s: KVBytes(0) = %d, want 0", name, prev)
		}
		per := s.LLM.KVBytesPerToken()
		for tokens := 1; tokens <= 1<<14; tokens *= 2 {
			kv := s.KVBytes(tokens)
			if kv <= prev {
				t.Fatalf("%s: KVBytes(%d) = %d not > KVBytes of fewer tokens %d", name, tokens, kv, prev)
			}
			if want := per * int64(tokens); kv != want {
				t.Fatalf("%s: KVBytes(%d) = %d, want %d (per-token %d)", name, tokens, kv, want, per)
			}
			prev = kv
		}
	}
}

func TestKVBytesNegativeClamps(t *testing.T) {
	s := serveUnderTest()
	if got := s.KVBytes(-5); got != 0 {
		t.Fatalf("KVBytes(-5) = %d, want 0", got)
	}
}

// TestPrefillMonotone pins the prompt-length scaling of the prefill phase.
func TestPrefillMonotone(t *testing.T) {
	s := serveUnderTest()
	prev := time.Duration(0)
	for tokens := 1; tokens <= 1<<14; tokens *= 2 {
		d := s.Prefill(tokens)
		if d <= prev {
			t.Fatalf("Prefill(%d) = %v not > %v", tokens, d, prev)
		}
		prev = d
	}
}

// TestDecodeLinearInOutputTokens pins the per-token decode model.
func TestDecodeLinearInOutputTokens(t *testing.T) {
	s := serveUnderTest()
	per := s.DecodePerToken()
	if per <= 0 {
		t.Fatalf("DecodePerToken = %v, want > 0", per)
	}
	for _, n := range []int{1, 2, 16, 333} {
		if got, want := s.Decode(n), time.Duration(n)*per; got != want {
			t.Fatalf("Decode(%d) = %v, want %v", n, got, want)
		}
	}
	if got := s.Decode(0); got != per {
		t.Fatalf("Decode(0) = %v, want one token (%v)", got, per)
	}
}

// TestDecodeFasterOnFasterHBM: device classes order decode speed by memory
// bandwidth, independent of the compute-speed table.
func TestDecodeFasterOnFasterHBM(t *testing.T) {
	classes := []Class{ClassA10, ClassV100, ClassA100, ClassH800}
	llm := MustLookupLLM("llama-7b")
	prev := time.Duration(1 << 62)
	for _, c := range classes {
		d := Serve{LLM: llm, Class: c}.DecodePerToken()
		if d >= prev {
			t.Fatalf("class %d decode/token %v not faster than slower class (%v)", c, d, prev)
		}
		prev = d
	}
}

func TestWeightsBytes(t *testing.T) {
	s := serveUnderTest()
	if got, want := s.WeightsBytes(), int64(14e9); got != want {
		t.Fatalf("WeightsBytes = %d, want %d (7B params, FP16)", got, want)
	}
}
