// Package store implements the paper's elastic GPU data storage (§4.4): a
// per-node manager of per-GPU memory pools that
//
//   - scales pool reservations with a histogram pre-warming policy
//     (R_window/R_size/R_con 99th-percentile trackers, §4.4.1),
//   - keeps a 300 MB floor during idle periods and caps storage at a fixed
//     fraction of free GPU memory,
//   - evicts intermediate data to host memory under pressure using either
//     LRU or the request-queue-aware policy of §4.4.2, and
//   - proactively restores migrated data to GPU memory when space returns.
//
// The manager is policy and bookkeeping only; actual data movement is
// delegated to a Migrator supplied by the data plane, so GROUTER migrates
// over harvested parallel PCIe links while baselines use the single local
// link.
package store

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"time"

	"grouter/internal/dataplane"
	"grouter/internal/fabric"
	"grouter/internal/memsim"
	"grouter/internal/metrics"
	"grouter/internal/obs"
	"grouter/internal/sim"
)

// Policy selects the eviction/migration strategy.
type Policy int

const (
	// PolicyLRU evicts the least recently accessed item (what NVSHMEM+'s
	// static store does).
	PolicyLRU Policy = iota
	// PolicyRQ evicts the item whose consumer sits deepest in the request
	// queue (RQ in Fig. 18), without proactive restoration.
	PolicyRQ
	// PolicyRQProactive is PolicyRQ plus proactive restoration of migrated
	// data when GPU memory frees up (full GROUTER).
	PolicyRQProactive
)

func (p Policy) String() string {
	switch p {
	case PolicyLRU:
		return "lru"
	case PolicyRQ:
		return "rq"
	case PolicyRQProactive:
		return "rq+proactive"
	}
	return "unknown"
}

// Config parameterizes a Manager.
type Config struct {
	Policy Policy
	// Elastic enables dynamic pool scaling; when false the pool grows to
	// StaticReserve per GPU up front and never shrinks (static pooling).
	Elastic       bool
	StaticReserve int64
	// Symmetric mimics NVSHMEM symmetric allocation: every pool grow is
	// mirrored on all GPUs of the node.
	Symmetric bool
}

// A manager stores at most freeFraction of a GPU's free memory (§4.4.2), and
// its percentile trackers keep the last histWindow samples. An elastic pool
// keeps minPool reserved through idle periods (§4.4.1), and reclaimInterval
// is the period of the sweep that drops expired reservations.
const (
	freeFraction    = 0.5
	histWindow      = 64
	minPool         = 300 << 20
	reclaimInterval = time.Second
)

// Migrator moves item bytes between a GPU and host memory on behalf of the
// manager. Implementations block the calling process for the transfer time
// and report transfer failures (e.g. every PCIe path down mid-fault); the
// manager aborts the migration and leaves the item where it was.
type Migrator interface {
	ToHost(p *sim.Proc, gpu int, bytes int64) error
	ToGPU(p *sim.Proc, gpu int, bytes int64) error
}

// Item is one stored intermediate-data object.
type Item struct {
	ID    dataplane.DataID
	Fn    string
	Bytes int64
	// GPU is the item's home device on this node.
	GPU int
	// OnHost reports the item currently lives in host memory (evicted or
	// spilled).
	OnHost bool
	// host is the item's host-memory reservation while OnHost.
	host memsim.Block

	LastAccess  time.Duration
	ConsumerSeq int64
	// Cache marks a replica cache entry created by PutCache: a reconstructible
	// copy of an object whose primary lives elsewhere. Under memory pressure a
	// cache is dropped (not migrated to host) and the registry is notified.
	Cache bool
	// CacheOf is the plane-level DataID the cache replicates (set when Cache).
	CacheOf dataplane.DataID
	// migrating guards against concurrent eviction/restoration.
	migrating bool
	freed     bool

	// heapIdx is the item's position in its GPU's eviction index while it is
	// GPU-resident and evictable (see Manager.caches/prims), or -1 while
	// absent (host-resident, mid-migration, or freed).
	heapIdx int
	// hostIdx is the item's position in Manager.onHost while host-resident,
	// or -1.
	hostIdx int
}

// Manager runs the elastic storage of one node.
type Manager struct {
	cfg   Config
	node  *fabric.NodeFabric
	eng   *sim.Engine
	mig   Migrator
	pools []*memsim.Pool
	items map[dataplane.DataID]*Item
	funcs map[string]*funcStats
	// reservations hold pre-warmed pool bytes per function until expiry;
	// reserve and reclaimLoop drop the expired ones (dropExpired).
	reservations []reservation
	nextID       dataplane.DataID

	// caches[g]/prims[g] hold GPU g's resident cache/primary items in
	// eviction order, so victim selection is O(log n) instead of a scan over
	// every stored item — the scan dominated CPU time at replay scale.
	caches []evictHeap
	prims  []evictHeap
	// onHost lists host-resident items for the proactive restore sweep.
	onHost []*Item
	// freeItems holds items no caller can reach any more; Put and PutCache
	// reuse them (see recycle). restoreCands is the restore sweep's scratch.
	freeItems    []*Item
	restoreCands []restoreCand

	// Evictions and Restores count migrations; UsedTL and ReservedTL
	// summarize pool state (peak, time-weighted mean, sample count) for
	// Fig. 7(a)/20(c) in constant space. CacheDrops counts replica cache
	// entries discarded under eviction pressure.
	Evictions  metrics.Counter
	Restores   metrics.Counter
	Spills     metrics.Counter
	CacheDrops metrics.Counter
	UsedTL     metrics.Timeline
	ReservedTL metrics.Timeline

	// OnCacheDrop, when non-nil, is invoked whenever eviction pressure drops
	// a replica cache entry, so the data plane can invalidate its replica
	// registry. Crash invalidation takes the reverse path (the plane drops the
	// item), so OnCacheDrop fires only for store-initiated drops.
	OnCacheDrop func(id dataplane.DataID, gpu int)
}

// restoreCand is one restore-sweep candidate: the item and the ID it had
// when the sweep listed it. A restore yields, and an item freed meanwhile may
// be recycled for another object, so the sweep skips entries whose item no
// longer carries the listed ID.
type restoreCand struct {
	it *Item
	id dataplane.DataID
}

type reservation struct {
	fn      string
	gpu     int
	bytes   int64
	expires time.Duration
}

type funcStats struct {
	lastArrival time.Duration
	intervals   *quantile
	sizes       *quantile
	concurrency *quantile
	live        int
}

// NewManager builds a manager over node's GPUs. When cfg.Elastic is false,
// pools are grown to StaticReserve immediately (static pre-reservation).
func NewManager(e *sim.Engine, node *fabric.NodeFabric, mig Migrator, cfg Config) *Manager {
	m := &Manager{
		cfg:   cfg,
		node:  node,
		eng:   e,
		mig:   mig,
		items: make(map[dataplane.DataID]*Item),
		funcs: make(map[string]*funcStats),
	}
	primLess := rqLess
	if cfg.Policy == PolicyLRU {
		primLess = lruLess
	}
	for _, dev := range node.GPUs {
		pool := memsim.NewPool(dev)
		if cfg.Elastic {
			pool.Quantum = 128 << 20 // block growth amortizes native allocs
		}
		m.pools = append(m.pools, pool)
		m.caches = append(m.caches, evictHeap{less: lruLess})
		m.prims = append(m.prims, evictHeap{less: primLess})
	}
	if !cfg.Elastic && cfg.StaticReserve > 0 {
		for _, p := range m.pools {
			if err := p.Grow(min64(cfg.StaticReserve, p.Device().Free())); err != nil {
				panic(fmt.Sprintf("store: static reserve: %v", err))
			}
		}
	}
	if cfg.Elastic {
		// The minimum pool exists from the start (§4.4.1), so first-touch
		// allocations are warm.
		for _, p := range m.pools {
			_ = p.Grow(min64(minPool, p.Device().Free()/2))
		}
	}
	if cfg.Elastic {
		e.GoDaemon("store-reclaim", m.reclaimLoop)
	}
	if cfg.Policy == PolicyRQProactive {
		e.GoDaemon("store-restore", m.restoreLoop)
	}
	return m
}

// Pool returns GPU g's pool (for tests and memory-overhead reporting).
func (m *Manager) Pool(g int) *memsim.Pool { return m.pools[g] }

// TotalReserved sums pool reservations across GPUs.
func (m *Manager) TotalReserved() int64 {
	var t int64
	for _, p := range m.pools {
		t += p.Reserved()
	}
	return t
}

// TotalUsed sums live data bytes across GPU pools.
func (m *Manager) TotalUsed() int64 {
	var t int64
	for _, p := range m.pools {
		t += p.Used()
	}
	return t
}

// limit returns the storage budget on GPU g: freeFraction of the memory not
// used by anything else (treating the pool's own reservation as available).
// A static pool is additionally a fixed-size region: it never holds more
// than its pre-reservation.
func (m *Manager) limit(g int) int64 {
	dev := m.node.GPUs[g]
	avail := dev.Free() + m.pools[g].Reserved()
	lim := int64(freeFraction * float64(avail))
	if !m.cfg.Elastic && m.cfg.StaticReserve > 0 && lim > m.cfg.StaticReserve {
		lim = m.cfg.StaticReserve
	}
	return lim
}

// Put stores a new item of the given size on GPU g for function ctx.Fn,
// evicting under pressure per policy. The returned item may be OnHost when
// GPU capacity cannot be made (forced spill). Put blocks for allocation and
// migration latency.
func (m *Manager) Put(p *sim.Proc, ctx *dataplane.FnCtx, g int, bytes int64) (*Item, error) {
	m.nextID++
	it := m.newItem()
	*it = Item{
		ID:          m.nextID,
		Fn:          ctx.Fn,
		Bytes:       bytes,
		GPU:         g,
		LastAccess:  p.Now(),
		ConsumerSeq: ctx.ConsumerSeq,
		heapIdx:     -1,
		hostIdx:     -1,
	}
	m.recordArrival(ctx.Fn, p.Now(), bytes)

	if m.ensure(p, g, bytes) {
		warm, err := m.pools[g].Alloc(bytes)
		if err == nil {
			if warm {
				p.Sleep(memsim.PoolAllocLatency)
				obs.Account(p, obs.CatSetup, memsim.PoolAllocLatency)
			} else {
				p.Sleep(memsim.RawAllocLatency)
				obs.Account(p, obs.CatSetup, memsim.RawAllocLatency)
				m.mirrorSymmetric(g, bytes)
			}
			m.items[it.ID] = it
			m.prims[g].push(it)
			m.sample(p.Now())
			return it, nil
		}
	}
	// Forced spill to host.
	var blk memsim.Block
	if err := m.node.Host.AllocInto(&blk, bytes); err != nil {
		m.recycle(it)
		return nil, fmt.Errorf("store: spill of %d bytes: %w: %w", bytes, dataplane.ErrEvicted, err)
	}
	if tr := obs.TracerOf(m.eng); tr != nil {
		ev := tr.InstantOn(m.track(), obs.CatStore, "spill")
		tr.SetAttrInt(ev, "bytes", bytes)
		tr.SetAttrInt(ev, "gpu", int64(g))
	}
	p.Sleep(memsim.PoolAllocLatency)
	obs.Account(p, obs.CatSetup, memsim.PoolAllocLatency)
	it.OnHost = true
	it.host = blk
	m.items[it.ID] = it
	m.hostAdd(it)
	m.Spills.Inc()
	m.sample(p.Now())
	return it, nil
}

// PutCache stores a replica cache copy of data object `id` on GPU g. Caches
// are strictly best-effort: they use room the pool can claim without
// disturbing primary items — only other caches are dropped to make space —
// and PutCache returns nil when no such room exists (the transfer still
// succeeded; there is simply no registered replica). Cache items never count
// toward pre-warming statistics: they are reconstructible copies, not fresh
// producer output.
func (m *Manager) PutCache(p *sim.Proc, id dataplane.DataID, fn string, g int, bytes int64) *Item {
	if bytes > m.limit(g) {
		return nil
	}
	pool := m.pools[g]
	for attempt := 0; attempt < 8; attempt++ {
		if pool.Used()+bytes <= m.limit(g) && bytes <= pool.Idle()+pool.Device().Free() {
			break
		}
		victim := m.pickCacheVictim(g)
		if victim == nil {
			return nil
		}
		m.dropCache(victim)
	}
	if pool.Used()+bytes > m.limit(g) || bytes > pool.Idle()+pool.Device().Free() {
		return nil
	}
	warm, err := pool.Alloc(bytes)
	if err != nil {
		return nil
	}
	if warm {
		p.Sleep(memsim.PoolAllocLatency)
		obs.Account(p, obs.CatSetup, memsim.PoolAllocLatency)
	} else {
		p.Sleep(memsim.RawAllocLatency)
		obs.Account(p, obs.CatSetup, memsim.RawAllocLatency)
	}
	m.nextID++
	it := m.newItem()
	*it = Item{
		ID:         m.nextID,
		Fn:         fn,
		Bytes:      bytes,
		GPU:        g,
		LastAccess: p.Now(),
		Cache:      true,
		CacheOf:    id,
		heapIdx:    -1,
		hostIdx:    -1,
	}
	m.items[it.ID] = it
	m.caches[g].push(it)
	m.sample(p.Now())
	return it
}

// pickCacheVictim selects the least recently used cache item on GPU g, or
// nil when the GPU holds no caches.
func (m *Manager) pickCacheVictim(g int) *Item {
	return m.caches[g].top()
}

// dropCache discards a replica cache entry under eviction pressure: the pool
// bytes are released immediately (the primary copy still exists elsewhere, so
// nothing migrates) and the data plane is notified to invalidate its replica
// registry.
func (m *Manager) dropCache(it *Item) {
	if it.freed {
		return
	}
	it.freed = true
	m.unindex(it)
	delete(m.items, it.ID)
	m.pools[it.GPU].Release(it.Bytes)
	m.CacheDrops.Inc()
	if tr := obs.TracerOf(m.eng); tr != nil {
		ev := tr.InstantOn(m.track(), obs.CatStore, "cache-drop")
		tr.SetAttrInt(ev, "bytes", it.Bytes)
		tr.SetAttrInt(ev, "gpu", int64(it.GPU))
	}
	if m.OnCacheDrop != nil {
		m.OnCacheDrop(it.CacheOf, it.GPU)
	}
	m.sample(m.eng.Now())
	m.release(it)
}

// track returns the manager's storage trace lane.
func (m *Manager) track() int32 { return obs.TrackStoreBase + int32(m.node.Node.ID) }

// mirrorSymmetric grows all other pools to match a symmetric allocation.
func (m *Manager) mirrorSymmetric(g int, bytes int64) {
	if !m.cfg.Symmetric {
		return
	}
	for i, pool := range m.pools {
		if i == g {
			continue
		}
		_ = pool.Grow(min64(bytes, pool.Device().Free()))
	}
}

// Lookup returns the item or nil.
func (m *Manager) Lookup(id dataplane.DataID) *Item {
	return m.items[id]
}

// Touch records an access for LRU bookkeeping and restores the item's
// position in its eviction index when the ordering depends on recency.
func (m *Manager) Touch(it *Item, now time.Duration) {
	it.LastAccess = now
	if it.heapIdx < 0 {
		return
	}
	if it.Cache {
		m.caches[it.GPU].fix(it.heapIdx)
	} else if m.cfg.Policy == PolicyLRU {
		m.prims[it.GPU].fix(it.heapIdx)
	}
}

// newItem takes an item off the free list, or allocates one when the list
// is empty. The caller overwrites every field.
func (m *Manager) newItem() *Item {
	if n := len(m.freeItems); n > 0 {
		it := m.freeItems[n-1]
		m.freeItems[n-1] = nil
		m.freeItems = m.freeItems[:n-1]
		return it
	}
	return new(Item)
}

// release recycles an item that was just freed, dropped or cache-dropped,
// unless a migration still holds it: evict and Restore recycle such an item
// themselves once they observe freed.
func (m *Manager) release(it *Item) {
	if !it.migrating {
		m.recycle(it)
	}
}

// recycle clears an item nothing in the manager can reach any more and puts
// it on the free list for the next Put or PutCache. Until then it stays
// marked freed, so a stale Free or Drop of it is a no-op; once reused it is
// another object, which is why callers must not hold an item past its Free
// or Drop.
func (m *Manager) recycle(it *Item) {
	*it = Item{freed: true, heapIdx: -1, hostIdx: -1}
	m.freeItems = append(m.freeItems, it)
}

// Free drops the item, releasing its memory. In elastic mode the freed pool
// bytes stay reserved for the producing function for R_window (pre-warming).
// The item returns to the manager's free list: the caller must not use it
// afterwards.
func (m *Manager) Free(it *Item) {
	if it.freed {
		return
	}
	it.freed = true
	delete(m.items, it.ID)
	if fs := m.funcs[it.Fn]; fs != nil && !it.Cache {
		fs.live--
	}
	if it.OnHost {
		m.hostRemove(it)
		it.host.Free()
		m.sample(m.eng.Now())
		m.release(it)
		return
	}
	m.unindex(it)
	m.pools[it.GPU].Release(it.Bytes)
	if m.cfg.Elastic && !it.Cache {
		m.reserve(it.Fn, it.GPU)
	}
	// Static pooling never shrinks (manual reclamation only).
	m.sample(m.eng.Now())
	m.release(it)
}

// Drop removes an item whose bytes were destroyed by a fault (GPU crash):
// the memory is released immediately with no pre-warm reservation — the
// data is gone, not consumed, so its history should not inflate future pool
// reservations. Safe against concurrent eviction/restoration: the freed
// flag makes the in-flight migration clean up after itself. Like Free, Drop
// recycles the item.
func (m *Manager) Drop(it *Item) {
	if it.freed {
		return
	}
	it.freed = true
	delete(m.items, it.ID)
	if fs := m.funcs[it.Fn]; fs != nil && !it.Cache {
		fs.live--
	}
	if it.OnHost {
		m.hostRemove(it)
		it.host.Free()
	} else {
		m.unindex(it)
		m.pools[it.GPU].Release(it.Bytes)
	}
	m.sample(m.eng.Now())
	m.release(it)
}

// ensure makes room for bytes on GPU g, migrating items per policy. It
// reports whether the pool can now hold the bytes within the storage limit.
func (m *Manager) ensure(p *sim.Proc, g int, bytes int64) bool {
	if bytes > m.limit(g) {
		return false
	}
	for attempt := 0; attempt < 8; attempt++ {
		pool := m.pools[g]
		if pool.Used()+bytes <= m.limit(g) && bytes <= pool.Idle()+pool.Device().Free() {
			return true
		}
		// Replica caches are the cheapest room: drop them (notifying the
		// plane's registry) before migrating any primary item to host.
		if cache := m.pickCacheVictim(g); cache != nil {
			m.dropCache(cache)
			continue
		}
		victim := m.pickVictim(g)
		if victim == nil {
			return false
		}
		m.evict(p, victim)
	}
	return m.pools[g].Used()+bytes <= m.limit(g)
}

// pickVictim selects an evictable primary item on GPU g per policy, or nil.
// Replica caches are never migration victims — they are dropped outright by
// pickCacheVictim/dropCache before this runs.
func (m *Manager) pickVictim(g int) *Item {
	return m.prims[g].top()
}

// evict migrates an item to host memory. The nested transfer's bucket
// accounting is redirected to CatMigrate so an eviction on a request's
// critical path reports as migration time, not as setup/queue/transfer.
func (m *Manager) evict(p *sim.Proc, it *Item) {
	it.migrating = true
	m.unindex(it)
	var blk memsim.Block
	if err := m.node.Host.AllocInto(&blk, it.Bytes); err != nil {
		it.migrating = false
		m.index(it)
		return
	}
	var span obs.SpanID
	tr := obs.TracerOf(m.eng)
	if tr != nil {
		span = tr.BeginOn(m.track(), obs.CatMigrate, "evict")
		tr.SetAttrInt(span, "bytes", it.Bytes)
		tr.SetAttrInt(span, "gpu", int64(it.GPU))
	}
	prev := obs.PushOverride(p, obs.CatMigrate)
	migErr := m.mig.ToHost(p, it.GPU, it.Bytes)
	obs.PopOverride(p, prev)
	if tr != nil {
		if migErr != nil {
			tr.SetAttrStr(span, "error", migErr.Error())
		}
		tr.End(span)
	}
	if it.freed {
		// Consumed while migrating; the pool bytes were already released.
		blk.Free()
		m.recycle(it)
		return
	}
	if migErr != nil {
		// Transfer failed: the item stays GPU-resident.
		blk.Free()
		it.migrating = false
		m.index(it)
		return
	}
	m.pools[it.GPU].Release(it.Bytes)
	it.OnHost = true
	it.host = blk
	it.migrating = false
	m.hostAdd(it)
	m.Evictions.Inc()
	m.sample(p.Now())
}

// Restore brings an evicted item back to its home GPU (used by Get when the
// consumer needs host-resident data on-GPU, and by the proactive loop).
// It reports whether the item is GPU-resident afterwards.
func (m *Manager) Restore(p *sim.Proc, it *Item) bool {
	if !it.OnHost || it.migrating || it.freed {
		return !it.OnHost
	}
	it.migrating = true
	pool := m.pools[it.GPU]
	if pool.Used()+it.Bytes > m.limit(it.GPU) {
		it.migrating = false
		return false
	}
	warm, err := pool.Alloc(it.Bytes)
	if err != nil {
		it.migrating = false
		return false
	}
	var span obs.SpanID
	tr := obs.TracerOf(m.eng)
	if tr != nil {
		span = tr.BeginOn(m.track(), obs.CatMigrate, "restore")
		tr.SetAttrInt(span, "bytes", it.Bytes)
		tr.SetAttrInt(span, "gpu", int64(it.GPU))
	}
	prev := obs.PushOverride(p, obs.CatMigrate)
	if !warm {
		p.Sleep(memsim.RawAllocLatency)
	}
	migErr := m.mig.ToGPU(p, it.GPU, it.Bytes)
	obs.PopOverride(p, prev)
	if tr != nil {
		if migErr != nil {
			tr.SetAttrStr(span, "error", migErr.Error())
		}
		tr.End(span)
	}
	if it.freed {
		pool.Release(it.Bytes)
		m.recycle(it)
		return false
	}
	if migErr != nil {
		// Transfer failed: the item stays host-resident.
		pool.Release(it.Bytes)
		it.migrating = false
		return false
	}
	m.hostRemove(it)
	it.host.Free()
	it.OnHost = false
	it.migrating = false
	m.index(it)
	m.Restores.Inc()
	m.sample(p.Now())
	return true
}

// --- elastic scaling (§4.4.1) ---

func (m *Manager) recordArrival(fn string, now time.Duration, bytes int64) {
	fs := m.funcs[fn]
	if fs == nil {
		fs = &funcStats{
			intervals:   newQuantile(histWindow),
			sizes:       newQuantile(histWindow),
			concurrency: newQuantile(histWindow),
		}
		m.funcs[fn] = fs
	}
	if fs.lastArrival > 0 || fs.intervals.n > 0 {
		fs.intervals.add((now - fs.lastArrival).Seconds())
	}
	fs.lastArrival = now
	fs.sizes.add(float64(bytes))
	fs.live++
	fs.concurrency.add(float64(fs.live))
}

// reserve records a pre-warmed reservation R_size·R_con for R_window. Before
// the list would grow it drops the expired reservations in place, and it
// grows only when that freed less than half of it, so the list tracks the
// live reservations, not the Frees since the last reclaim sweep, and each
// reservation is swept a bounded number of times.
func (m *Manager) reserve(fn string, gpu int) {
	fs := m.funcs[fn]
	if fs == nil {
		return
	}
	window := time.Duration(fs.intervals.p(0.99) * float64(time.Second))
	if window <= 0 {
		window = reclaimInterval
	}
	bytes := int64(fs.sizes.p(0.99) * fs.concurrency.p(0.99))
	if bytes <= 0 {
		return
	}
	now := m.eng.Now()
	if len(m.reservations) == cap(m.reservations) {
		m.dropExpired(now)
		if n := len(m.reservations); n > cap(m.reservations)/2 {
			m.reservations = slices.Grow(m.reservations, n)
		}
	}
	m.reservations = append(m.reservations, reservation{
		fn: fn, gpu: gpu, bytes: bytes, expires: now + window,
	})
}

// dropExpired removes the reservations expired by now, keeping the others in
// order. target counts only unexpired reservations, so no target changes.
func (m *Manager) dropExpired(now time.Duration) {
	live := m.reservations[:0]
	for _, r := range m.reservations {
		if r.expires > now {
			live = append(live, r)
		}
	}
	m.reservations = live
}

// target returns the elastic pool-size target for GPU g: live usage plus
// unexpired reservations, floored at minPool (when memory is plentiful).
func (m *Manager) target(g int) int64 {
	t := m.pools[g].Used()
	for _, r := range m.reservations {
		if r.gpu == g && r.expires > m.eng.Now() {
			t += r.bytes
		}
	}
	if t < minPool && m.node.GPUs[g].Free() > minPool {
		t = minPool
	}
	if lim := m.limit(g); t > lim {
		t = lim
	}
	return t
}

// reclaimLoop periodically shrinks pools to their targets and drops expired
// reservations.
func (m *Manager) reclaimLoop(p *sim.Proc) {
	for {
		p.Sleep(reclaimInterval)
		now := p.Now()
		m.dropExpired(now)
		for g, pool := range m.pools {
			if over := pool.Reserved() - m.target(g); over > 0 {
				pool.Shrink(over)
			}
		}
		m.sample(now)
	}
}

// restoreLoop proactively restores evicted items in consumer-queue order
// when GPU memory frees up (§4.4.2).
func (m *Manager) restoreLoop(p *sim.Proc) {
	for {
		p.Sleep(reclaimInterval / 2)
		cands := m.restoreCands[:0]
		for _, it := range m.onHost {
			if !it.migrating {
				cands = append(cands, restoreCand{it: it, id: it.ID})
			}
		}
		slices.SortFunc(cands, func(a, b restoreCand) int {
			if a.it.ConsumerSeq != b.it.ConsumerSeq {
				return cmp.Compare(a.it.ConsumerSeq, b.it.ConsumerSeq)
			}
			return cmp.Compare(a.id, b.id)
		})
		m.restoreCands = cands
		for _, c := range cands {
			it := c.it
			if it.ID != c.id {
				continue // freed and recycled while an earlier restore ran
			}
			pool := m.pools[it.GPU]
			if pool.Used()+it.Bytes > m.limit(it.GPU) {
				continue
			}
			m.Restore(p, it)
		}
	}
}

func (m *Manager) sample(now time.Duration) {
	if tr := obs.TracerOf(m.eng); tr != nil {
		tr.Counter("store-used", float64(m.TotalUsed()))
		tr.Counter("store-reserved", float64(m.TotalReserved()))
	}
	m.UsedTL.Add(now, float64(m.TotalUsed()))
	m.ReservedTL.Add(now, float64(m.TotalReserved()))
}

// --- small helpers ---

// quantile is a sliding window over the last cap samples that answers
// percentile queries. ring keeps the samples in arrival order, so add knows
// which one to evict; sorted keeps the same samples ascending, so p only
// indexes. Samples must not be NaN.
type quantile struct {
	ring   []float64
	sorted []float64
	cap    int
	n      int
}

func newQuantile(capacity int) *quantile { return &quantile{cap: capacity} }

func (q *quantile) add(v float64) {
	if len(q.ring) < q.cap {
		q.ring = append(q.ring, v)
		q.sorted = slices.Insert(q.sorted, sort.SearchFloat64s(q.sorted, v), v)
	} else {
		slot := q.n % q.cap
		q.replace(q.ring[slot], v)
		q.ring[slot] = v
	}
	q.n++
}

// replace swaps one copy of old in the sorted window for v, shifting only the
// samples between their two positions.
func (q *quantile) replace(old, v float64) {
	s := q.sorted
	i := sort.SearchFloat64s(s, old) // s[i] == old
	j := sort.SearchFloat64s(s, v)
	if j > i {
		copy(s[i:j-1], s[i+1:j])
		s[j-1] = v
	} else {
		copy(s[j+1:i+1], s[j:i])
		s[j] = v
	}
}

func (q *quantile) p(f float64) float64 {
	if len(q.sorted) == 0 {
		return 0
	}
	idx := int(f*float64(len(q.sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(q.sorted) {
		idx = len(q.sorted) - 1
	}
	return q.sorted[idx]
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
