// Package baselines implements the paper's comparison systems on the same
// simulated fabric as GROUTER:
//
//   - INFless+ — host-centric passing through a host shared-memory store
//     (every gFn exchange crosses PCIe twice, §2.2);
//   - NVSHMEM+ — a GPU-side store on a randomly assigned GPU per object,
//     blind to function placement, single transfer path, static symmetric
//     memory pools with LRU eviction (§3);
//   - DeepPlan+ — NVSHMEM+ plus DeepPlan-style parallel PCIe for gFn-host
//     transfers, without topology awareness (§6 baselines).
//
// All three implement dataplane.Plane, so experiments swap systems freely.
package baselines

import (
	"fmt"
	"math/rand"
	"time"

	"grouter/internal/dataplane"
	"grouter/internal/fabric"
	"grouter/internal/harvest"
	"grouter/internal/memsim"
	"grouter/internal/netsim"
	"grouter/internal/sim"
	"grouter/internal/store"
	"grouter/internal/topology"
	"grouter/internal/xfer"
)

// PinnedAllocLatency is the per-transfer cost of allocating a pinned staging
// buffer; host-centric systems without a shared ring pay it on every PCIe
// crossing.
const PinnedAllocLatency = 300 * time.Microsecond

// SerializeBps is the CPU-side serialization/copy bandwidth of moving a
// tensor through a host shared-memory store (memcpy in, memcpy out, object
// metadata): host-centric planes pay it on both Put and Get.
const SerializeBps = 5e9

// serialize charges the host-store CPU copy for one object.
func serialize(p *sim.Proc, bytes int64) {
	p.Sleep(time.Duration(float64(bytes) / SerializeBps * float64(time.Second)))
}

// deviceCopyBps is intra-GPU device-to-device copy bandwidth (HBM).
const deviceCopyBps = 750e9

// PageableBps is the effective bandwidth of a host-mediated copy through a
// serverless storage layer: a pageable cudaMemcpy plus the shared-memory
// store copy and metadata handling. Measured serverless data planes (SONIC,
// Pheromone) land in the low GB/s; systems without a pinned staging ring
// (INFless+, NVSHMEM+ host spills) are capped here, while DeepPlan+ and
// GROUTER use pinned buffers at full link speed.
const PageableBps = 3e9

// rec tracks one stored object.
type rec struct {
	node    int
	it      *store.Item   // GPU-store object (NVSHMEM+/DeepPlan+)
	hostBlk *memsim.Block // host-store object (INFless+)
	bytes   int64
}

type base struct {
	f      *fabric.Fabric
	x      *xfer.Manager
	recs   map[dataplane.DataID]*rec
	nextID dataplane.DataID
	stats  dataplane.Stats
}

func newBase(f *fabric.Fabric) base {
	return base{f: f, x: xfer.NewManager(f), recs: make(map[dataplane.DataID]*rec)}
}

func (b *base) Stats() *dataplane.Stats { return &b.stats }

// copyOver runs one logical copy over explicit paths. pageable caps the
// transfer at PageableBps (host-mediated copies without pinned staging). It
// returns the transfer's error when the copy still fails after its retries.
func (b *base) copyOver(p *sim.Proc, label string, bytes int64, hostStack, pageable bool, paths ...[]topology.LinkID) error {
	b.stats.Copies++
	b.stats.BytesMoved += bytes
	req := xfer.Request{Label: label, Bytes: bytes, HostStack: hostStack}
	if pageable {
		req.Opt = netsim.Options{MaxRate: PageableBps}
	}
	for _, ls := range paths {
		req.Paths = append(req.Paths, xfer.PathOf(b.f.Net, ls))
	}
	_, err := b.x.Transfer(p, req)
	return err
}

// toHost is GPU gpu's PCIe route to its node's host memory, and fromHost
// the reverse: the fabric's shared single paths.
func (b *base) toHost(node, gpu int) []topology.LinkID {
	links, _ := b.f.SinglePath(fabric.Location{Node: node, GPU: gpu}, fabric.Location{Node: node, GPU: fabric.HostGPU})
	return links
}

func (b *base) fromHost(node, gpu int) []topology.LinkID {
	links, _ := b.f.SinglePath(fabric.Location{Node: node, GPU: fabric.HostGPU}, fabric.Location{Node: node, GPU: gpu})
	return links
}

// localCopy is an intra-device D2D copy (e.g. into a same-GPU symmetric
// heap): no link crossing, HBM bandwidth only.
func (b *base) localCopy(p *sim.Proc, bytes int64) {
	b.stats.Copies++
	b.stats.BytesMoved += bytes
	p.Sleep(time.Duration(float64(bytes) / deviceCopyBps * float64(time.Second)))
}

// --- INFless+ ---

// INFless is the host-centric baseline.
type INFless struct{ base }

var _ dataplane.Plane = (*INFless)(nil)

// NewINFless builds the host-centric plane.
func NewINFless(f *fabric.Fabric) *INFless { return &INFless{base: newBase(f)} }

// Name returns "infless+".
func (pl *INFless) Name() string { return "infless+" }

// Put copies the producer's output into the node's host shared-memory store.
func (pl *INFless) Put(p *sim.Proc, ctx *dataplane.FnCtx, bytes int64) (dataplane.DataRef, error) {
	pl.stats.Puts++
	pl.stats.AddControl(1, 2*time.Microsecond)
	node := ctx.Loc.Node
	blk, err := pl.f.NodeF(node).Host.Alloc(bytes)
	if err != nil {
		return dataplane.DataRef{}, fmt.Errorf("infless+: host store: %w", err)
	}
	if !ctx.Loc.IsHost() {
		p.Sleep(PinnedAllocLatency)
		if err := pl.copyOver(p, "put:"+ctx.Fn, bytes, false, true, pl.toHost(node, ctx.Loc.GPU)); err != nil {
			blk.Free()
			return dataplane.DataRef{}, fmt.Errorf("infless+: put copy: %w", err)
		}
		serialize(p, bytes) // object copied into the shm store
	} else {
		p.Sleep(memsim.PoolAllocLatency)
		serialize(p, bytes) // shm copy within host memory
	}
	pl.nextID++
	pl.recs[pl.nextID] = &rec{node: node, hostBlk: blk, bytes: bytes}
	return dataplane.DataRef{ID: pl.nextID, Bytes: bytes}, nil
}

// Get copies the object from host storage to the consumer.
func (pl *INFless) Get(p *sim.Proc, ctx *dataplane.FnCtx, ref dataplane.DataRef) error {
	r := pl.recs[ref.ID]
	if r == nil {
		return fmt.Errorf("infless+: %w: data id %d", dataplane.ErrNotFound, ref.ID)
	}
	pl.stats.Gets++
	pl.stats.AddControl(1, 2*time.Microsecond)
	node := ctx.Loc.Node
	if r.node != node {
		// Remote host store: pull host-to-host over the kernel stack first.
		src := pl.f.Topo(r.node)
		dst := pl.f.Topo(node)
		if err := pl.copyOver(p, "get-net:"+ctx.Fn, r.bytes, true, true,
			[]topology.LinkID{src.NICTx(0), dst.NICRx(0)}); err != nil {
			return fmt.Errorf("infless+: get: %w", err)
		}
	}
	if ctx.Loc.IsHost() {
		p.Sleep(MapLatencyHost)
		serialize(p, r.bytes) // copy out of the shm store
		return nil
	}
	p.Sleep(PinnedAllocLatency)
	serialize(p, r.bytes) // copy out of the shm store into staging
	if err := pl.copyOver(p, "get:"+ctx.Fn, r.bytes, false, true, pl.fromHost(node, ctx.Loc.GPU)); err != nil {
		return fmt.Errorf("infless+: get: %w", err)
	}
	return nil
}

// Free drops the object from the host store.
func (pl *INFless) Free(ref dataplane.DataRef) {
	if r := pl.recs[ref.ID]; r != nil {
		r.hostBlk.Free()
		delete(pl.recs, ref.ID)
	}
}

// MapLatencyHost is a same-host shared-memory attach.
const MapLatencyHost = 5 * time.Microsecond

// --- NVSHMEM+ / DeepPlan+ ---

// NVShmem is the GPU-side storage baseline; DeepPlan selects the enhanced
// variant with parallel (topology-oblivious) PCIe transfers.
type NVShmem struct {
	base
	deepPlan bool
	stores   []*store.Manager
	rng      *rand.Rand
}

var _ dataplane.Plane = (*NVShmem)(nil)

// StaticReserveDefault is the symmetric pool pre-reservation per GPU; the
// paper measures such static pools holding ~4× actual demand.
const StaticReserveDefault = 2 * topology.GB

// NewNVShmem builds the NVSHMEM+ plane.
func NewNVShmem(f *fabric.Fabric, seed int64) *NVShmem { return newGPUStore(f, seed, false) }

// NewDeepPlan builds the DeepPlan+ plane.
func NewDeepPlan(f *fabric.Fabric, seed int64) *NVShmem { return newGPUStore(f, seed, true) }

func newGPUStore(f *fabric.Fabric, seed int64, deepPlan bool) *NVShmem {
	pl := &NVShmem{base: newBase(f), deepPlan: deepPlan, rng: rand.New(rand.NewSource(seed + 2))}
	reserve := min64(StaticReserveDefault, f.Spec().GPUMemBytes/4)
	cfg := store.Config{Elastic: false, Symmetric: true, StaticReserve: reserve, Policy: store.PolicyLRU}
	for n := range f.Nodes {
		pl.stores = append(pl.stores, store.NewManager(f.Engine, f.Nodes[n], &singleLinkMigrator{pl: pl, node: n}, cfg))
	}
	return pl
}

// Name returns "nvshmem+" or "deepplan+".
func (pl *NVShmem) Name() string {
	if pl.deepPlan {
		return "deepplan+"
	}
	return "nvshmem+"
}

// Store returns node n's storage manager (for memory-overhead experiments).
func (pl *NVShmem) Store(n int) *store.Manager { return pl.stores[n] }

// hostMode returns the gFn-host transfer strategy: DeepPlan+ harvests PCIe
// links naively, NVSHMEM+ uses only the local link.
func (pl *NVShmem) hostMode() harvest.Mode {
	if pl.deepPlan {
		return harvest.ModeNaive
	}
	return harvest.ModeOff
}

// Put stores the output on a random GPU of the producer's node — the store
// cannot see function placement (§3.1) — incurring one copy.
func (pl *NVShmem) Put(p *sim.Proc, ctx *dataplane.FnCtx, bytes int64) (dataplane.DataRef, error) {
	pl.stats.Puts++
	pl.stats.AddControl(1, 2*time.Microsecond)
	node := ctx.Loc.Node
	gpu := pl.rng.Intn(pl.f.Spec().NumGPUs)
	it, err := pl.stores[node].Put(p, ctx, gpu, bytes)
	if err != nil {
		return dataplane.DataRef{}, err
	}
	switch {
	case it.OnHost:
		if !ctx.Loc.IsHost() {
			err = pl.copyOver(p, "put-spill:"+ctx.Fn, bytes, false, !pl.deepPlan, pl.toHost(node, ctx.Loc.GPU))
		}
	case ctx.Loc.IsHost():
		// cFn output staged up to the GPU store.
		paths := pl.f.Routes.HostToGPUPaths(nil, node, gpu, pl.hostMode(), pl.f.Net)
		err = pl.copyOver(p, "put:"+ctx.Fn, bytes, false, !pl.deepPlan, paths...)
	case gpu == ctx.Loc.GPU:
		pl.localCopy(p, bytes) // same device: copy into the symmetric heap
	default:
		links, _ := pl.f.SinglePath(ctx.Loc, fabric.Location{Node: node, GPU: gpu})
		err = pl.copyOver(p, "put:"+ctx.Fn, bytes, false, false, links)
	}
	if err != nil {
		pl.stores[node].Free(it)
		return dataplane.DataRef{}, fmt.Errorf("%s: put copy: %w", pl.Name(), err)
	}
	pl.nextID++
	pl.recs[pl.nextID] = &rec{node: node, it: it, bytes: bytes}
	return dataplane.DataRef{ID: pl.nextID, Bytes: bytes}, nil
}

// Get pulls the object from its store GPU over a single path; cross-node
// objects relay through a store GPU on the consumer's node (Fig. 4).
func (pl *NVShmem) Get(p *sim.Proc, ctx *dataplane.FnCtx, ref dataplane.DataRef) error {
	r := pl.recs[ref.ID]
	if r == nil {
		return fmt.Errorf("%s: %w: data id %d", pl.Name(), dataplane.ErrNotFound, ref.ID)
	}
	pl.stats.Gets++
	pl.stats.AddControl(1, 2*time.Microsecond)
	pl.stores[r.node].Touch(r.it, p.Now())

	srcLoc := fabric.Location{Node: r.node, GPU: r.it.GPU}
	if r.it.OnHost {
		srcLoc = fabric.Location{Node: r.node, GPU: fabric.HostGPU}
	}

	if r.node != ctx.Loc.Node {
		// Relay via a store GPU on the consumer's node (functions can only
		// reach local storage), then deliver locally.
		relayGPU := pl.rng.Intn(pl.f.Spec().NumGPUs)
		relay := fabric.Location{Node: ctx.Loc.Node, GPU: relayGPU}
		links, hostStack := pl.f.SinglePath(srcLoc, relay)
		if err := pl.copyOver(p, "get-relay:"+ctx.Fn, r.bytes, hostStack, false, links); err != nil {
			return fmt.Errorf("%s: get: %w", pl.Name(), err)
		}
		srcLoc = relay
	}
	if err := pl.deliverLocal(p, ctx, srcLoc, r.bytes); err != nil {
		return fmt.Errorf("%s: get: %w", pl.Name(), err)
	}
	return nil
}

// deliverLocal moves the object from a location on the consumer's node to
// the consumer, returning the copy's error.
func (pl *NVShmem) deliverLocal(p *sim.Proc, ctx *dataplane.FnCtx, src fabric.Location, bytes int64) error {
	switch {
	case src == ctx.Loc:
		if src.IsHost() {
			p.Sleep(MapLatencyHost)
		} else {
			pl.localCopy(p, bytes)
		}
	case src.IsHost() && !ctx.Loc.IsHost():
		paths := pl.f.Routes.HostToGPUPaths(nil, ctx.Loc.Node, ctx.Loc.GPU, pl.hostMode(), pl.f.Net)
		return pl.copyOver(p, "get:"+ctx.Fn, bytes, false, !pl.deepPlan, paths...)
	case !src.IsHost() && ctx.Loc.IsHost():
		paths := pl.f.Routes.GPUToHostPaths(nil, ctx.Loc.Node, src.GPU, pl.hostMode(), pl.f.Net)
		return pl.copyOver(p, "get:"+ctx.Fn, bytes, false, !pl.deepPlan, paths...)
	default:
		links, hostStack := pl.f.SinglePath(src, ctx.Loc)
		return pl.copyOver(p, "get:"+ctx.Fn, bytes, hostStack, false, links)
	}
	return nil
}

// Free drops the object from its GPU store.
func (pl *NVShmem) Free(ref dataplane.DataRef) {
	if r := pl.recs[ref.ID]; r != nil {
		pl.stores[r.node].Free(r.it)
		delete(pl.recs, ref.ID)
	}
}

// singleLinkMigrator evicts over the local PCIe link only.
type singleLinkMigrator struct {
	pl   *NVShmem
	node int
}

func (m *singleLinkMigrator) ToHost(p *sim.Proc, gpu int, bytes int64) error {
	return m.pl.copyOver(p, "migrate-out", bytes, false, !m.pl.deepPlan, m.pl.toHost(m.node, gpu))
}

func (m *singleLinkMigrator) ToGPU(p *sim.Proc, gpu int, bytes int64) error {
	return m.pl.copyOver(p, "migrate-in", bytes, false, !m.pl.deepPlan, m.pl.fromHost(m.node, gpu))
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
