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
	node int
	it   *store.Item // set when the object lives in a GPU store
	// host is the object's host-memory reservation, Held while the object
	// is host-resident (cFn output, or re-materialized after a crash).
	host  memsim.Block
	bytes int64
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
	// rng draws the store GPU of the placement-agnostic ablation (no
	// UnifiedFramework); it is nil when storage follows the producer.
	rng *rand.Rand
	// freeRecs holds the table entries of freed objects for reuse by later
	// Puts. A Get holding a rec across a yield re-checks that recs still maps
	// its ID to it before using the rec again (see Get).
	freeRecs []*rec
	// localTables[n] holds the data IDs whose metadata has been synchronized
	// to node n (§4.2.2/§7: lookups hit the local table, falling back to the
	// global table once and caching the result).
	localTables []map[dataplane.DataID]bool

	// Coalescing state (nil / unused unless cfg.Coalesce): the replica
	// registry, each object's in-flight transfers (the head of a list in
	// creation order), the store cache items backing registered replicas,
	// the free list of flights, and the source-selection scratch.
	replicas    *store.Registry
	flights     map[dataplane.DataID]*flight
	caches      map[cacheKey]*store.Item
	freeFlights []*flight
	cands       []pathsel.SourceCandidate
	pending     []*flight

	// plans is the free list of move planning state (see movePlan).
	plans []*movePlan

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
	}
	if !cfg.UnifiedFramework {
		pl.rng = rand.New(rand.NewSource(cfg.Seed + 1))
	}
	scfg := pl.storeConfig()
	for n := range f.Nodes {
		pl.stores = append(pl.stores, store.NewManager(f.Engine, f.Nodes[n], &migrator{pl: pl, node: n}, scfg))
		sel := pathsel.New(f.Topo(n))
		topo := f.Topo(n)
		// Fault-aware selection: a failed NVLink edge contributes no residual
		// and Select reports false when a pair is NVLink-cut, so re-planning
		// after FailLink routes around dead edges or degrades to PCIe.
		sel.Avail = func(i, j int) bool {
			if topo.Spec.Switched {
				return pl.f.Net.LinkUp(topo.NVPortOut(i)) && pl.f.Net.LinkUp(topo.NVPortIn(j))
			}
			return topo.Spec.NVLinkBps(i, j) > 0 && pl.f.Net.LinkUp(topo.NVLinkTo(i, j))
		}
		pl.sel = append(pl.sel, sel)
		pl.localTables = append(pl.localTables, make(map[dataplane.DataID]bool))
	}
	if cfg.Coalesce {
		pl.initCoalesce()
	}
	return pl
}

// newRec takes a table entry off the free list, or allocates one when the
// list is empty. The caller overwrites every field.
func (pl *Plane) newRec() *rec {
	if n := len(pl.freeRecs); n > 0 {
		r := pl.freeRecs[n-1]
		pl.freeRecs[n-1] = nil
		pl.freeRecs = pl.freeRecs[:n-1]
		return r
	}
	return new(rec)
}

// live reports whether the plane still maps id to r. A Get calls it after
// every yield: the object may have been freed meanwhile, and its rec
// recycled for another object (IDs are never reused, so the ID no longer
// maps to r).
func (pl *Plane) live(id dataplane.DataID, r *rec) bool { return pl.recs[id] == r }

// errFreed is the error of a Get whose object was freed while it ran.
func errFreed(id dataplane.DataID) error {
	return fmt.Errorf("grouter: %w: data id %d freed during Get", dataplane.ErrNotFound, id)
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
// spilling to host memory, memsim.ErrOutOfMemory when a host-resident output
// does not fit in host memory, and an error wrapping xfer.ErrPathsDown when a
// copy into the store still fails after its retries.
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
		r := pl.newRec()
		*r = rec{node: node, bytes: bytes, workflow: ctx.Workflow}
		if err := pl.f.NodeF(node).Host.AllocInto(&r.host, bytes); err != nil {
			pl.freeRecs = append(pl.freeRecs, r)
			return dataplane.DataRef{}, fmt.Errorf("grouter: host put: %w", err)
		}
		p.Sleep(memsim.PoolAllocLatency)
		obs.Account(p, obs.CatSetup, memsim.PoolAllocLatency)
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
// unknown (or already-freed) id and when the object is freed while the Get
// runs (no replica is then registered), ErrAccessDenied for a cross-workflow
// read, dataplane.ErrGPUDown when a crash-lost object cannot be
// re-materialized, and an error wrapping xfer.ErrPathsDown when the move
// still fails after its retries.
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
	if !pl.live(ref.ID, r) {
		return errFreed(ref.ID)
	}

	if pl.cfg.Coalesce {
		return pl.getCoalesced(p, ctx, ref, r, label, tr, span)
	}

	if r.lost {
		if err := pl.rematerialize(p, ref.ID, r); err != nil {
			return err
		}
	}
	src := pl.locate(r)
	if r.it != nil {
		pl.stores[r.node].Touch(r.it, p.Now())
	}
	if src == ctx.Loc {
		return pl.mapIn(p, ref.ID, r)
	}
	if err := pl.move(p, ctx, src, ctx.Loc, r.bytes, label); err != nil {
		return err
	}
	if !pl.live(ref.ID, r) {
		return errFreed(ref.ID)
	}
	return nil
}

// mapIn shares a copy already resident at the consumer into its address
// space (zero-copy CUDA IPC mapping).
func (pl *Plane) mapIn(p *sim.Proc, id dataplane.DataID, r *rec) error {
	p.Sleep(MapLatency)
	obs.Account(p, obs.CatSetup, MapLatency)
	if !pl.live(id, r) {
		return errFreed(id)
	}
	return nil
}

// rematerialize recovers a crash-lost object from its durable origin into
// host memory on its home node: serverless intermediates are reproducible
// (re-run the producer) or backed by persistent storage, so a crash costs
// RematerializeLatency plus the normal host→GPU move — it does not sink the
// workflow. It fails with errFreed, keeping no memory, when the object is
// freed while it runs.
func (pl *Plane) rematerialize(p *sim.Proc, id dataplane.DataID, r *rec) error {
	var blk memsim.Block
	if err := pl.f.NodeF(r.node).Host.AllocInto(&blk, r.bytes); err != nil {
		return fmt.Errorf("grouter: rematerialize %d bytes: %w: %w", r.bytes, dataplane.ErrGPUDown, err)
	}
	if tr := obs.TracerOf(pl.f.Engine); tr != nil {
		span := tr.Begin(obs.CatMigrate, "rematerialize")
		tr.SetAttrInt(span, "bytes", r.bytes)
		defer tr.End(span)
	}
	p.Sleep(RematerializeLatency)
	obs.Account(p, obs.CatMigrate, RematerializeLatency)
	if !pl.live(id, r) {
		blk.Free()
		return errFreed(id)
	}
	if r.lost {
		r.host = blk
		r.lost = false
	} else {
		// A concurrent Get re-materialized the object first: keep its copy.
		blk.Free()
	}
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
	if r.host.Held() || (r.it != nil && r.it.OnHost) {
		return fabric.Location{Node: r.node, GPU: fabric.HostGPU}
	}
	return fabric.Location{Node: r.node, GPU: r.it.GPU}
}

// Free drops the object. Its table entry and store item return to their
// free lists, so nothing may keep either past Free.
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
	if r.host.Held() {
		r.host.Free()
	} else if r.it != nil { // a lost rec holds no memory
		pl.stores[r.node].Free(r.it)
	}
	*r = rec{}
	pl.freeRecs = append(pl.freeRecs, r)
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
	return harvest.Options(bytes, ctx.Slack)
}

// move executes one logical copy between locations using the configured
// transfer strategies. Every route kind installs a re-plan hook, so a
// transfer whose paths die mid-flight regenerates routes against the current
// fault state (the TA kind re-runs path selection and degrades to PCIe when
// the pair is NVLink-cut). A zero-byte move is a no-op, not an error.
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
	mp := pl.takePlan()
	mp.src, mp.dst = src, dst
	req := xfer.Request{Label: label, Bytes: bytes, Opt: pl.rateOpts(ctx, bytes), Track: track, Replan: mp.replan}
	switch {
	case src.Node == dst.Node && !src.IsHost() && !dst.IsHost():
		// Intra-node gFn-gFn: parallel NVLink paths when topology-aware.
		mp.kind = routeSingle
		if pl.cfg.TopoAware {
			mp.kind = routeNVLink
			p.Sleep(pathsel.SelectLatency)
			obs.Account(p, obs.CatSetup, pathsel.SelectLatency)
			pl.stats.AddControl(1, pathsel.SelectLatency)
		}
	case src.Node == dst.Node && src.IsHost():
		// gFn-host (inbound): parallel PCIe staging through the pinned ring.
		mp.kind = routeToGPU
		req.Pinned = pl.f.NodeF(src.Node).Pinned
	case src.Node == dst.Node && dst.IsHost():
		mp.kind = routeToHost
		req.Pinned = pl.f.NodeF(src.Node).Pinned
	case !src.IsHost() && !dst.IsHost():
		// Cross-node gFn-gFn: GDR, multiple NICs when harvesting.
		mp.kind = routeCross
	default:
		// Host-involved cross-node: single host-mediated path.
		mp.kind = routeSingle
	}
	req.Paths = mp.plan()
	req.HostStack = mp.hostStack
	_, err := pl.x.Transfer(p, req)
	pl.putPlan(mp)
	return err
}

// routeKind is the transfer pattern a move plans its paths with.
type routeKind uint8

const (
	routeSingle routeKind = iota // fabric.SinglePath
	routeNVLink                  // Algorithm-1 NVLink selection, PCIe fallback
	routeToGPU                   // harvested host→GPU PCIe routes
	routeToHost                  // harvested GPU→host PCIe routes
	routeCross                   // harvested cross-node GDR routes
)

// movePlan is one move's planning state, pooled on the plane: the route
// kind, the endpoints, the NVLink assignment it holds, and the buffers its
// plans are written into. replan is created once per entry, so installing
// the re-plan hook allocates nothing.
type movePlan struct {
	pl       *Plane
	kind     routeKind
	src, dst fabric.Location
	// asg is the NVLink reservation of a routeNVLink move (held from plan
	// until putPlan); links holds its per-path link lists, or the PCIe
	// fallback path when the selector finds no NVLink path. routes holds the
	// harvested routes of the other kinds, which alias the fabric's route
	// table and so must never be written through.
	asg       pathsel.Assignment
	links     [][]topology.LinkID
	routes    [][]topology.LinkID
	paths     []xfer.Path
	hostStack bool
	replan    func(attempt int) []xfer.Path
}

// takePlan pops a planning entry off the plane's free list.
func (pl *Plane) takePlan() *movePlan {
	if n := len(pl.plans); n > 0 {
		mp := pl.plans[n-1]
		pl.plans = pl.plans[:n-1]
		return mp
	}
	mp := &movePlan{pl: pl}
	mp.replan = func(int) []xfer.Path { return mp.plan() }
	return mp
}

// putPlan releases the entry's NVLink reservation and returns it to the
// free list. The transfer has returned, so nothing re-plans it any more.
func (pl *Plane) putPlan(mp *movePlan) {
	pl.sel[mp.src.Node].Release(&mp.asg)
	mp.hostStack = false
	pl.plans = append(pl.plans, mp)
}

// plan computes the move's candidate paths against the current load and
// fault state. The result aliases the entry's buffer: it is valid until the
// next plan of the same entry, which is when the transfer stops using it.
func (mp *movePlan) plan() []xfer.Path {
	pl := mp.pl
	net := pl.f.Net
	paths := mp.paths[:0]
	switch mp.kind {
	case routeNVLink:
		sel := pl.sel[mp.src.Node]
		sel.Release(&mp.asg)
		if !sel.Select(&mp.asg, mp.src.GPU, mp.dst.GPU, 0) {
			// NVLink-cut (or no NVLink connectivity): degrade to the PCIe
			// peer-to-peer path, written into the entry's first link list.
			if len(mp.links) == 0 {
				mp.links = append(mp.links, nil)
			}
			mp.links[0] = pl.f.Topo(mp.src.Node).AppendPCIeP2PLinks(mp.links[0][:0], mp.src.GPU, mp.dst.GPU)
			paths = append(paths, xfer.PathOf(net, mp.links[0]))
			break
		}
		mp.links = sel.Links(mp.links, &mp.asg)
		for i, ls := range mp.links {
			paths = append(paths, xfer.Path{Links: ls, Bps: mp.asg.BWs[i]})
		}
	case routeSingle:
		links, hostStack := pl.f.SinglePath(mp.src, mp.dst)
		mp.hostStack = hostStack
		paths = append(paths, xfer.PathOf(net, links))
	default:
		rt, mode := pl.f.Routes, pl.harvestMode()
		switch mp.kind {
		case routeToGPU:
			mp.routes = rt.HostToGPUPaths(mp.routes, mp.src.Node, mp.dst.GPU, mode, net)
		case routeToHost:
			mp.routes = rt.GPUToHostPaths(mp.routes, mp.src.Node, mp.src.GPU, mode, net)
		case routeCross:
			mp.routes = rt.CrossNodePaths(mp.routes, mp.src.Node, mp.src.GPU, mp.dst.Node, mp.dst.GPU, mode, net)
		}
		for _, ls := range mp.routes {
			paths = append(paths, xfer.PathOf(net, ls))
		}
	}
	mp.paths = paths
	return paths
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
