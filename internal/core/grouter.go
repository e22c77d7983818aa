// Package core implements GROUTER, the paper's GPU-centric serverless data
// plane. It composes the unified data-passing framework (§4.2: placement
// detection, global data IDs, locality-aware Put/Get), parallel transfers
// with bandwidth harvesting (§4.3.1–4.3.2), topology-aware NVLink path
// selection (§4.3.3), and elastic GPU storage (§4.4).
//
// Each optimization can be disabled independently through Config, which is
// how the Fig. 16 ablation variants are built.
package core

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"sort"

	"grouter/internal/dataplane"
	"grouter/internal/fabric"
	"grouter/internal/harvest"
	"grouter/internal/memsim"
	"grouter/internal/netsim"
	"grouter/internal/obs"
	"grouter/internal/pathsel"
	"grouter/internal/sim"
	"grouter/internal/store"
	"grouter/internal/topology"
	"grouter/internal/xfer"
)

// Control-plane latency constants.
const (
	// LocalLookupLatency is a data-ID lookup served by the node-local table.
	LocalLookupLatency = 2 * time.Microsecond
	// GlobalLookupLatency is a miss served by the centralized table (§4.2.2).
	GlobalLookupLatency = 20 * time.Microsecond
	// MapLatency is sharing an already-resident buffer into a function's
	// address space over CUDA IPC (zero-copy path).
	MapLatency = 10 * time.Microsecond
	// RematerializeLatency models recovering a crash-lost object from its
	// durable origin (re-running the producer or fetching from persistent
	// storage into host memory), before the normal host→GPU move.
	RematerializeLatency = 5 * time.Millisecond
)

// Config toggles GROUTER's four optimizations (§4.1); the full system has
// all four enabled.
type Config struct {
	// UnifiedFramework (UF) detects function placement and stores output on
	// the producer's own GPU; disabled, storage is assigned to a random GPU
	// (the placement-agnostic behaviour of §3.1).
	UnifiedFramework bool
	// BandwidthHarvest (BH) enables parallel PCIe/NIC transfers with
	// SLO-aware rate partitioning.
	BandwidthHarvest bool
	// TopoAware (TA) enables Algorithm-1 NVLink path selection and the
	// route-GPU exclusion rules.
	TopoAware bool
	// ElasticStore (ES) enables elastic pool scaling with queue-aware
	// proactive migration; disabled, a static LRU pool is used.
	ElasticStore bool
	// NoRateControl keeps parallel transfers but removes SLO-aware rate
	// partitioning (the GROUTER−BH variant of Fig. 17, which shares
	// bandwidth like DeepPlan+).
	NoRateControl bool
	// Coalesce enables fan-out-aware transfer coalescing: concurrent Gets of
	// one object to the same GPU join a single transfer, and later consumers
	// pull from the nearest registered replica (or chain off an in-flight
	// copy) instead of the producer's links. Off by default so the base
	// system's traces and experiment numbers are unchanged; see coalesce.go.
	Coalesce bool

	// StoreOverride replaces the derived storage configuration (used by the
	// Fig. 18 policy comparison).
	StoreOverride *store.Config
	// StaticReserve sizes the per-GPU pool when ES is off.
	StaticReserve int64
	// Seed drives the random storage-GPU choice when UF is off.
	Seed int64
}

// FullConfig returns the complete GROUTER system.
func FullConfig() Config {
	return Config{UnifiedFramework: true, BandwidthHarvest: true, TopoAware: true, ElasticStore: true}
}

// ErrAccessDenied is returned when a function from another workflow tries
// to read a data item (§7: every access is authenticated by function and
// workflow ID).
var ErrAccessDenied = errors.New("grouter: access denied")

// rec tracks one stored object in the plane's global table.
type rec struct {
	node    int
	it      *store.Item   // set when the object lives in a GPU store
	hostBlk *memsim.Block // set when the object is host-resident (cFn output)
	bytes   int64
	// workflow is the owning workflow ID for access control.
	workflow string
	// lost marks an object destroyed by a GPU crash; the next Get
	// re-materializes it from its durable origin.
	lost bool
}

// Plane is the GROUTER data plane over a fabric.
type Plane struct {
	f   *fabric.Fabric
	x   *xfer.Manager
	cfg Config

	stores []*store.Manager
	sel    []*pathsel.Selector

	recs   map[dataplane.DataID]*rec
	nextID dataplane.DataID
	rng    *rand.Rand
	// recArena blocks amortize rec allocation (one rec per Put); freed recs
	// are simply dropped, so lifetimes match individually-allocated recs.
	recArena []rec
	// localTables[n] holds the data IDs whose metadata has been synchronized
	// to node n (§4.2.2/§7: lookups hit the local table, falling back to the
	// global table once and caching the result).
	localTables []map[dataplane.DataID]bool

	// Coalescing state (nil / unused unless cfg.Coalesce): the replica
	// registry, in-flight transfers by object, and the store cache items
	// backing registered replicas.
	replicas *store.Registry
	flights  map[dataplane.DataID][]*flight
	caches   map[cacheKey]*store.Item

	stats dataplane.Stats
}

var _ dataplane.Plane = (*Plane)(nil)

// New builds a GROUTER plane on f with the given configuration.
func New(f *fabric.Fabric, cfg Config) *Plane {
	pl := &Plane{
		f:    f,
		x:    xfer.NewManager(f),
		cfg:  cfg,
		recs: make(map[dataplane.DataID]*rec),
		rng:  rand.New(rand.NewSource(cfg.Seed + 1)),
	}
	scfg := pl.storeConfig()
	for n := range f.Nodes {
		pl.stores = append(pl.stores, store.NewManager(f.Engine, f.Nodes[n], &migrator{pl: pl, node: n}, scfg))
		sel := pathsel.New(f.Topo(n))
		topo := f.Topo(n)
		// Fault-aware selection: a failed NVLink edge contributes no residual
		// and Select returns nil when a pair is NVLink-cut, so re-planning
		// after FailLink routes around dead edges or degrades to PCIe.
		sel.Avail = func(i, j int) bool {
			if topo.Spec.Switched {
				return pl.f.Net.LinkUp(topo.NVPortOut(i)) && pl.f.Net.LinkUp(topo.NVPortIn(j))
			}
			return pl.f.Net.LinkUp(topo.NVLinkTo(i, j))
		}
		pl.sel = append(pl.sel, sel)
		pl.localTables = append(pl.localTables, make(map[dataplane.DataID]bool))
	}
	if cfg.Coalesce {
		pl.initCoalesce()
	}
	return pl
}

// newRec hands out table entries from a block arena. Blocks are never
// recycled — a freed rec just goes unreferenced — so pointer lifetimes are
// identical to individually-allocated recs.
func (pl *Plane) newRec() *rec {
	if len(pl.recArena) == 0 {
		pl.recArena = make([]rec, 256)
	}
	r := &pl.recArena[0]
	pl.recArena = pl.recArena[1:]
	return r
}

func (pl *Plane) storeConfig() store.Config {
	if pl.cfg.StoreOverride != nil {
		return *pl.cfg.StoreOverride
	}
	if pl.cfg.ElasticStore {
		return store.Config{Elastic: true, Policy: store.PolicyRQProactive}
	}
	reserve := pl.cfg.StaticReserve
	if reserve == 0 {
		reserve = 2 * topology.GB
	}
	return store.Config{Elastic: false, StaticReserve: reserve, Policy: store.PolicyLRU}
}

// Name identifies the plane, including any disabled optimizations.
func (pl *Plane) Name() string {
	name := "grouter"
	if !pl.cfg.ElasticStore {
		name += "-ES"
	}
	if !pl.cfg.TopoAware {
		name += "-TA"
	}
	if !pl.cfg.BandwidthHarvest {
		name += "-BH"
	}
	if !pl.cfg.UnifiedFramework {
		name += "-UF"
	}
	if pl.cfg.Coalesce {
		name += "+co"
	}
	return name
}

// Stats returns the plane's counters.
func (pl *Plane) Stats() *dataplane.Stats { return &pl.stats }

// Store returns node n's storage manager (for experiments).
func (pl *Plane) Store(n int) *store.Manager { return pl.stores[n] }

// Put stores ctx's output. With the unified framework the data stays where
// it was produced (zero copy); without it a random GPU store receives a copy.
// It returns dataplane.ErrEvicted when the store cannot make room even after
// spilling to host memory, and xfer.ErrDeadline when a placement-agnostic
// copy misses its SLO budget.
func (pl *Plane) Put(p *sim.Proc, ctx *dataplane.FnCtx, bytes int64) (dataplane.DataRef, error) {
	// The label only feeds trace spans; with no tracer attached, skip the
	// per-call string construction.
	label := ""
	if tr := obs.TracerOf(pl.f.Engine); tr != nil {
		label = "put:" + ctx.Fn
		span := tr.BeginOn(obs.ReqTrack(ctx.ConsumerSeq), obs.CatOp, label)
		tr.SetAttrInt(span, "bytes", bytes)
		defer tr.End(span)
	}
	pl.stats.Puts++
	pl.stats.AddControl(1, LocalLookupLatency)
	pl.nextID++
	id := pl.nextID
	node := ctx.Loc.Node

	if ctx.Loc.IsHost() {
		blk, err := pl.f.NodeF(node).Host.Alloc(bytes)
		if err != nil {
			return dataplane.DataRef{}, fmt.Errorf("grouter: host put: %w", err)
		}
		p.Sleep(memsim.PoolAllocLatency)
		obs.Account(p, obs.CatSetup, memsim.PoolAllocLatency)
		r := pl.newRec()
		*r = rec{node: node, hostBlk: blk, bytes: bytes, workflow: ctx.Workflow}
		pl.recs[id] = r
		pl.localTables[node][id] = true
		return dataplane.DataRef{ID: id, Bytes: bytes}, nil
	}

	gpu := ctx.Loc.GPU
	if !pl.cfg.UnifiedFramework {
		gpu = pl.rng.Intn(pl.f.Spec().NumGPUs)
	}
	it, err := pl.stores[node].Put(p, ctx, gpu, bytes)
	if err != nil {
		return dataplane.DataRef{}, err
	}
	if gpu != ctx.Loc.GPU || it.OnHost {
		// Placement-agnostic storage: the output must be copied from the
		// producer's GPU into the store.
		dst := fabric.Location{Node: node, GPU: gpu}
		if it.OnHost {
			dst = fabric.Location{Node: node, GPU: fabric.HostGPU}
		}
		if dst != ctx.Loc {
			if err := pl.move(p, ctx, ctx.Loc, dst, bytes, label); err != nil {
				pl.stores[node].Free(it)
				return dataplane.DataRef{}, fmt.Errorf("grouter: put copy: %w", err)
			}
		}
	}
	r := pl.newRec()
	*r = rec{node: node, it: it, bytes: bytes, workflow: ctx.Workflow}
	pl.recs[id] = r
	pl.localTables[node][id] = true
	return dataplane.DataRef{ID: id, Bytes: bytes}, nil
}

// Get makes ref available at ctx.Loc, choosing the transfer pattern from the
// data's current location (§4.2.2). It returns dataplane.ErrNotFound for an
// unknown (or already-freed) id, ErrAccessDenied for a cross-workflow read,
// dataplane.ErrGPUDown when a crash-lost object cannot be re-materialized,
// and xfer.ErrDeadline when the transfer misses its SLO budget.
func (pl *Plane) Get(p *sim.Proc, ctx *dataplane.FnCtx, ref dataplane.DataRef) error {
	r := pl.recs[ref.ID]
	if r == nil {
		return fmt.Errorf("grouter: %w: data id %d", dataplane.ErrNotFound, ref.ID)
	}
	// Authenticate the requesting function: data items are readable only
	// within their owning workflow (§7).
	if r.workflow != "" && ctx.Workflow != r.workflow {
		pl.stats.AddControl(1, LocalLookupLatency)
		return fmt.Errorf("%w: workflow %q cannot read data of %q", ErrAccessDenied, ctx.Workflow, r.workflow)
	}
	pl.stats.Gets++
	tr := obs.TracerOf(pl.f.Engine)
	label := ""
	var span obs.SpanID
	if tr != nil {
		label = "get:" + ctx.Fn
		span = tr.BeginOn(obs.ReqTrack(ctx.ConsumerSeq), obs.CatOp, label)
		tr.SetAttrInt(span, "bytes", ref.Bytes)
		defer tr.End(span)
	}
	// Hierarchical lookup: the node-local table answers when the metadata
	// has been synchronized; the first remote access pays the global table
	// and caches locally.
	if pl.localTables[ctx.Loc.Node][ref.ID] {
		pl.stats.AddControl(1, LocalLookupLatency)
		p.Sleep(LocalLookupLatency)
		obs.Account(p, obs.CatSetup, LocalLookupLatency)
	} else {
		pl.stats.AddControl(1, GlobalLookupLatency)
		p.Sleep(GlobalLookupLatency)
		obs.Account(p, obs.CatSetup, GlobalLookupLatency)
		pl.localTables[ctx.Loc.Node][ref.ID] = true
	}

	if pl.cfg.Coalesce {
		return pl.getCoalesced(p, ctx, ref, r, label, tr, span)
	}

	if r.lost {
		if err := pl.rematerialize(p, r); err != nil {
			return err
		}
	}
	src := pl.locate(r)
	if r.it != nil {
		pl.stores[r.node].Touch(r.it, p.Now())
	}
	if src == ctx.Loc {
		p.Sleep(MapLatency) // zero-copy IPC mapping
		obs.Account(p, obs.CatSetup, MapLatency)
		return nil
	}
	return pl.move(p, ctx, src, ctx.Loc, r.bytes, label)
}

// rematerialize recovers a crash-lost object from its durable origin into
// host memory on its home node: serverless intermediates are reproducible
// (re-run the producer) or backed by persistent storage, so a crash costs
// RematerializeLatency plus the normal host→GPU move — it does not sink the
// workflow.
func (pl *Plane) rematerialize(p *sim.Proc, r *rec) error {
	blk, err := pl.f.NodeF(r.node).Host.Alloc(r.bytes)
	if err != nil {
		return fmt.Errorf("grouter: rematerialize %d bytes: %w: %w", r.bytes, dataplane.ErrGPUDown, err)
	}
	if tr := obs.TracerOf(pl.f.Engine); tr != nil {
		span := tr.Begin(obs.CatMigrate, "rematerialize")
		tr.SetAttrInt(span, "bytes", r.bytes)
		defer tr.End(span)
	}
	p.Sleep(RematerializeLatency)
	obs.Account(p, obs.CatMigrate, RematerializeLatency)
	r.hostBlk = blk
	r.lost = false
	pl.f.Net.Faults().Rematerialized++
	return nil
}

// CrashGPU implements faults.Crasher: every object resident on the GPU's
// store is destroyed (its memory dropped with no pre-warm credit) and marked
// lost for re-materialization on next access. Records are processed in ID
// order so the store's timeline samples stay deterministic. Host-resident
// objects — including items previously evicted off this GPU — survive.
func (pl *Plane) CrashGPU(node, gpu int) int {
	var ids []dataplane.DataID
	for id, r := range pl.recs {
		if r.node == node && !r.lost && r.it != nil && !r.it.OnHost && r.it.GPU == gpu {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		r := pl.recs[id]
		pl.stores[node].Drop(r.it)
		r.it = nil
		r.lost = true
	}
	// Replica invalidation: cached copies on the crashed GPU are destroyed
	// with their registry entries, in ascending object-ID order.
	pl.crashReplicas(node, gpu)
	if tr := obs.TracerOf(pl.f.Engine); tr != nil {
		ev := tr.InstantOn(obs.TrackStoreBase+int32(node), obs.CatStore, "gpu-crash")
		tr.SetAttrInt(ev, "gpu", int64(gpu))
		tr.SetAttrInt(ev, "objects-lost", int64(len(ids)))
	}
	return len(ids)
}

// locate returns the object's current physical location.
func (pl *Plane) locate(r *rec) fabric.Location {
	if r.hostBlk != nil || (r.it != nil && r.it.OnHost) {
		return fabric.Location{Node: r.node, GPU: fabric.HostGPU}
	}
	return fabric.Location{Node: r.node, GPU: r.it.GPU}
}

// Free drops the object.
func (pl *Plane) Free(ref dataplane.DataRef) {
	r := pl.recs[ref.ID]
	if r == nil {
		return
	}
	delete(pl.recs, ref.ID)
	for _, tbl := range pl.localTables {
		delete(tbl, ref.ID)
	}
	if pl.cfg.Coalesce {
		pl.dropReplicas(ref.ID)
	}
	pl.stats.AddControl(1, LocalLookupLatency)
	if r.hostBlk != nil {
		r.hostBlk.Free()
		return
	}
	if r.it != nil { // a lost rec holds no memory
		pl.stores[r.node].Free(r.it)
	}
}

// harvestMode maps the BH/TA toggles to a harvesting mode. The GROUTER−BH
// variant (NoRateControl) shares links the way DeepPlan+ does: parallel
// paths without idle-link selection or partitioning.
func (pl *Plane) harvestMode() harvest.Mode {
	if !pl.cfg.BandwidthHarvest {
		return harvest.ModeOff
	}
	if pl.cfg.TopoAware && !pl.cfg.NoRateControl {
		return harvest.ModeTopoAware
	}
	return harvest.ModeNaive
}

// rateOpts builds SLO rate-control options when harvesting is enabled.
func (pl *Plane) rateOpts(ctx *dataplane.FnCtx, bytes int64) netsim.Options {
	if !pl.cfg.BandwidthHarvest || pl.cfg.NoRateControl || ctx == nil {
		return netsim.Options{}
	}
	return harvest.Options(bytes, ctx.SLO, ctx.InferLatency)
}

// move executes one logical copy between locations using the configured
// transfer strategies. Every branch installs a re-plan hook, so a transfer
// whose paths die mid-flight regenerates routes against the current fault
// state (the TA branch re-runs path selection and degrades to PCIe when the
// pair is NVLink-cut). A zero-byte move is a no-op, not an error.
func (pl *Plane) move(p *sim.Proc, ctx *dataplane.FnCtx, src, dst fabric.Location, bytes int64, label string) error {
	if bytes <= 0 {
		return nil
	}
	pl.stats.Copies++
	pl.stats.BytesMoved += bytes
	var track int32
	if ctx != nil {
		track = obs.ReqTrack(ctx.ConsumerSeq)
	}
	req := xfer.Request{Label: label, Bytes: bytes, Opt: pl.rateOpts(ctx, bytes), Track: track}
	transfer := func(gen func() []xfer.Path) error {
		req.Paths = gen()
		req.Replan = func(int) []xfer.Path { return gen() }
		_, err := pl.x.Transfer(p, req)
		return err
	}

	switch {
	case src.Node == dst.Node && !src.IsHost() && !dst.IsHost():
		// Intra-node gFn-gFn: parallel NVLink paths when topology-aware.
		if pl.cfg.TopoAware {
			sel := pl.sel[src.Node]
			var a *pathsel.Assignment
			plan := func() []xfer.Path {
				sel.Release(a)
				if a = sel.Select(src.GPU, dst.GPU, 0); a == nil {
					// NVLink-cut (or no NVLink connectivity): degrade to the
					// PCIe peer-to-peer path.
					links := pl.f.Topo(src.Node).PCIeP2PLinks(src.GPU, dst.GPU)
					return []xfer.Path{xfer.PathOf(pl.f.Net, links)}
				}
				links := sel.Links(a)
				paths := make([]xfer.Path, 0, len(links))
				for i, ls := range links {
					paths = append(paths, xfer.Path{Links: ls, Bps: a.BWs[i]})
				}
				return paths
			}
			p.Sleep(pathsel.SelectLatency)
			obs.Account(p, obs.CatSetup, pathsel.SelectLatency)
			pl.stats.AddControl(1, pathsel.SelectLatency)
			err := transfer(plan)
			sel.Release(a)
			return err
		}
		return transfer(func() []xfer.Path {
			links, _ := pl.f.SinglePath(src, dst)
			return []xfer.Path{xfer.PathOf(pl.f.Net, links)}
		})

	case src.Node == dst.Node && src.IsHost():
		// gFn-host (inbound): parallel PCIe staging through the pinned ring.
		req.Pinned = pl.f.NodeF(src.Node).Pinned
		return transfer(func() []xfer.Path {
			lps := harvest.HostToGPUPaths(pl.f.Topo(src.Node), dst.GPU, pl.harvestMode(), pl.f.Net)
			paths := make([]xfer.Path, 0, len(lps))
			for _, ls := range lps {
				paths = append(paths, xfer.PathOf(pl.f.Net, ls))
			}
			return paths
		})

	case src.Node == dst.Node && dst.IsHost():
		req.Pinned = pl.f.NodeF(src.Node).Pinned
		return transfer(func() []xfer.Path {
			lps := harvest.GPUToHostPaths(pl.f.Topo(src.Node), src.GPU, pl.harvestMode(), pl.f.Net)
			paths := make([]xfer.Path, 0, len(lps))
			for _, ls := range lps {
				paths = append(paths, xfer.PathOf(pl.f.Net, ls))
			}
			return paths
		})

	case !src.IsHost() && !dst.IsHost():
		// Cross-node gFn-gFn: GDR, multiple NICs when harvesting.
		return transfer(func() []xfer.Path {
			lps := harvest.CrossNodePaths(pl.f.Topo(src.Node), src.GPU, pl.f.Topo(dst.Node), dst.GPU, pl.harvestMode(), pl.f.Net)
			paths := make([]xfer.Path, 0, len(lps))
			for _, ls := range lps {
				paths = append(paths, xfer.PathOf(pl.f.Net, ls))
			}
			return paths
		})

	default:
		// Host-involved cross-node: single host-mediated path.
		return transfer(func() []xfer.Path {
			links, hostStack := pl.f.SinglePath(src, dst)
			req.HostStack = hostStack
			return []xfer.Path{xfer.PathOf(pl.f.Net, links)}
		})
	}
}

// migrator adapts the plane's transfer machinery to the store's Migrator
// interface: GROUTER migrates over harvested PCIe paths, ablated variants
// over the single local link.
type migrator struct {
	pl   *Plane
	node int
}

func (m *migrator) ToHost(p *sim.Proc, gpu int, bytes int64) error {
	src := fabric.Location{Node: m.node, GPU: gpu}
	dst := fabric.Location{Node: m.node, GPU: fabric.HostGPU}
	return m.pl.move(p, nil, src, dst, bytes, "migrate-out")
}

func (m *migrator) ToGPU(p *sim.Proc, gpu int, bytes int64) error {
	src := fabric.Location{Node: m.node, GPU: fabric.HostGPU}
	dst := fabric.Location{Node: m.node, GPU: gpu}
	return m.pl.move(p, nil, src, dst, bytes, "migrate-in")
}
