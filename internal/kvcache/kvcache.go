// Package kvcache models KV-cache passing between LLM agents in serverless
// Mixture-of-Agents workflows (§6.4). Stages run on separate 8×H800 nodes;
// the prompt+response KV cache moves between stages so the receiver skips
// recomputation, and time-to-first-token (TTFT) is dominated by how fast the
// sharded cache crosses the network.
//
// Three systems are modeled:
//
//   - INFless+ stages the cache through host memory (pageable copies, kernel
//     TCP, single NIC);
//   - Mooncake+ transfers GPU-to-GPU over GPUDirect RDMA but, lacking
//     placement awareness, relays through a store GPU (one extra copy) and
//     uses one NIC per tensor-parallel shard — multi-NIC only at high TP;
//   - GROUTER transfers each shard directly to the receiver's GPU and
//     harvests all idle NICs through NVSwitch routing at any TP.
package kvcache

import (
	"fmt"
	"time"

	"grouter/internal/fabric"
	"grouter/internal/models"
	"grouter/internal/netsim"
	"grouter/internal/sim"
	"grouter/internal/topology"
	"grouter/internal/xfer"
)

// System selects a KV-passing implementation.
type System int

const (
	// SysINFless is the host-centric baseline.
	SysINFless System = iota
	// SysMooncake is the KV-cache-store baseline.
	SysMooncake
	// SysGRouter is the GPU-centric data plane.
	SysGRouter
)

func (s System) String() string {
	switch s {
	case SysINFless:
		return "infless+"
	case SysMooncake:
		return "mooncake+"
	case SysGRouter:
		return "grouter"
	}
	return "unknown"
}

// pageableBps matches the host-staging cap used by the CNN baselines.
const pageableBps = 3e9

// ReceiverPromptTokens is the receiver agent's own instruction prefix that
// must still be prefilled after the KV cache arrives.
const ReceiverPromptTokens = 256

// Cluster wires the H800 fabric for KV experiments.
type Cluster struct {
	F *fabric.Fabric
	X *xfer.Manager
}

// NewCluster builds n H800 nodes.
func NewCluster(e *sim.Engine, n int) *Cluster {
	f := fabric.New(e, topology.H800x8(), n)
	return &Cluster{F: f, X: xfer.NewManager(f)}
}

// TransferKV moves an LLM's KV cache for `tokens` prompt tokens from the
// sender stage (node src, GPUs 0..tp-1) to the receiver stage (node dst,
// GPUs 0..tp-1) under the given system, returning the elapsed time. It must
// be called from a sim process. Link failures are retried like any transfer;
// a shard that still fails after its retries panics.
func (c *Cluster) TransferKV(p *sim.Proc, sys System, llm *models.LLM, tokens, tp, src, dst int) time.Duration {
	if tp < 1 || tp > c.F.Spec().NumGPUs {
		panic(fmt.Sprintf("kvcache: bad tp %d", tp))
	}
	total := llm.KVBytes(tokens)
	shard := total / int64(tp)
	start := p.Now()
	srcT, dstT := c.F.Topo(src), c.F.Topo(dst)

	var reqs []xfer.Request
	switch sys {
	case SysINFless:
		// Phase 1: every shard staged to host memory (pageable).
		for g := 0; g < tp; g++ {
			reqs = append(reqs, xfer.Request{
				Label: "kv-d2h", Bytes: shard,
				Paths: []xfer.Path{xfer.PathOf(c.F.Net, srcT.AppendGPUToHostLinks(nil, g))},
				Opt:   netsim.Options{MaxRate: pageableBps},
			})
		}
		c.transferAll(p, reqs)
		// Phase 2: one TCP stream over a single NIC.
		c.transferAll(p, []xfer.Request{{
			Label: "kv-net", Bytes: total, HostStack: true,
			Paths: []xfer.Path{xfer.PathOf(c.F.Net, []topology.LinkID{srcT.NICTx(0), dstT.NICRx(0)})},
		}})
		// Phase 3: shards staged back up to the receiver GPUs.
		reqs = reqs[:0]
		for g := 0; g < tp; g++ {
			reqs = append(reqs, xfer.Request{
				Label: "kv-h2d", Bytes: shard,
				Paths: []xfer.Path{xfer.PathOf(c.F.Net, dstT.AppendHostToGPULinks(nil, g))},
				Opt:   netsim.Options{MaxRate: pageableBps},
			})
		}
		c.transferAll(p, reqs)

	case SysMooncake:
		// Each shard rides its own GPU's NIC (multi-NIC emerges with TP),
		// but lands on a store GPU and is copied once more to the receiver.
		relay := func(g int) int { return (g + tp) % c.F.Spec().NumGPUs }
		for g := 0; g < tp; g++ {
			store := relay(g)
			nic := srcT.Spec.GPUNIC[g]
			links := srcT.AppendGPUToNICLinks(nil, g, nic)
			links = dstT.AppendNICToGPULinks(links, nic, store)
			reqs = append(reqs, xfer.Request{
				Label: "kv-gdr", Bytes: shard,
				Paths: []xfer.Path{xfer.PathOf(c.F.Net, links)},
			})
		}
		c.transferAll(p, reqs)
		// Store-to-receiver copies over NVSwitch.
		reqs = reqs[:0]
		for g := 0; g < tp; g++ {
			reqs = append(reqs, xfer.Request{
				Label: "kv-store-copy", Bytes: shard,
				Paths: []xfer.Path{xfer.PathOf(c.F.Net, dstT.AppendNVLinkPathLinks(nil, []int{relay(g), g}))},
			})
		}
		c.transferAll(p, reqs)

	case SysGRouter:
		// Direct shard-to-shard GDR; each shard additionally harvests the
		// idle NICs of non-shard GPUs via NVSwitch (Fig. 9a).
		perShard := c.F.Spec().NICCount / tp
		if perShard < 1 {
			perShard = 1
		}
		nicCursor := 0
		for g := 0; g < tp; g++ {
			var paths []xfer.Path
			for k := 0; k < perShard; k++ {
				route := nicCursor % c.F.Spec().NumGPUs
				nicCursor++
				nic := srcT.Spec.GPUNIC[route]
				var links []topology.LinkID
				if route != g {
					links = srcT.AppendNVLinkPathLinks(links, []int{g, route})
				}
				links = srcT.AppendGPUToNICLinks(links, route, nic)
				links = dstT.AppendNICToGPULinks(links, nic, route)
				if route != g {
					links = dstT.AppendNVLinkPathLinks(links, []int{route, g})
				}
				paths = append(paths, xfer.PathOf(c.F.Net, links))
			}
			reqs = append(reqs, xfer.Request{
				Label: "kv-direct", Bytes: shard, Paths: paths,
			})
		}
		c.transferAll(p, reqs)
	}
	return p.Now() - start
}

// transferAll runs each request in a process of its own and blocks p until
// every one has finished. A transfer that still fails after its retries
// panics, as a cluster activation does on a failed Put or Get.
func (c *Cluster) transferAll(p *sim.Proc, reqs []xfer.Request) {
	done := sim.NewSignal(p.Engine())
	left := len(reqs)
	for _, req := range reqs {
		p.Engine().Go("kv-transfer", func(tp *sim.Proc) {
			if _, err := c.X.Transfer(tp, req); err != nil {
				panic(err)
			}
			if left--; left == 0 {
				done.Fire()
			}
		})
	}
	done.Wait(p)
}

// TTFT returns the receiver's time to first token: KV transfer plus the
// prefill of its own instruction prefix.
func (c *Cluster) TTFT(p *sim.Proc, sys System, llm *models.LLM, tokens, tp, src, dst int) time.Duration {
	xferTime := c.TransferKV(p, sys, llm, tokens, tp, src, dst)
	prefill := llm.PrefillLatency(models.ClassH800, ReceiverPromptTokens, tp)
	p.Sleep(prefill)
	return xferTime + prefill
}

// MoAConfig parameterizes a Mixture-of-Agents run.
type MoAConfig struct {
	LLM    *models.LLM
	Layers int
	Agents int // agents per layer
	TP     int
	// PromptTokens is the user prompt length; ResponseTokens what each agent
	// appends per layer.
	PromptTokens   int
	ResponseTokens int
}

// MoALatency runs a full MoA workflow: each layer's agents receive the KV
// caches of all previous-layer agents (stages on alternating nodes), prefill
// their instruction, and decode their response. It returns the end-to-end
// latency. It must be called from a sim process.
func (c *Cluster) MoALatency(p *sim.Proc, sys System, cfg MoAConfig) time.Duration {
	start := p.Now()
	tokens := cfg.PromptTokens
	for layer := 0; layer < cfg.Layers; layer++ {
		src := layer % c.F.NumNodes()
		dst := (layer + 1) % c.F.NumNodes()
		if layer > 0 {
			// Every agent pulls every previous-layer agent's cache; the layer
			// advances when the slowest pull finishes. Pulls run sequentially
			// per receiving agent but agents share links concurrently, which
			// the flow simulator captures; we model one representative agent
			// (they are symmetric) pulling cfg.Agents caches.
			for a := 0; a < cfg.Agents; a++ {
				c.TransferKV(p, sys, cfg.LLM, tokens, cfg.TP, src, dst)
			}
		}
		p.Sleep(cfg.LLM.PrefillLatency(models.ClassH800, ReceiverPromptTokens, cfg.TP))
		p.Sleep(time.Duration(cfg.ResponseTokens) * cfg.LLM.DecodeLatencyPerToken(models.ClassH800, cfg.TP))
		tokens += cfg.ResponseTokens
	}
	return p.Now() - start
}
