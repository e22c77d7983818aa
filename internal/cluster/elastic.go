package cluster

import (
	"slices"
	"time"

	"grouter/internal/autoscale"
	"grouter/internal/fabric"
	"grouter/internal/faults"
	"grouter/internal/scheduler"
	"grouter/internal/sim"
	"grouter/internal/workflow"
)

// Instance pools. Every stage instance of an app serves from a pool of
// replicas: Deploy seeds each pool with the stage instance's placement, and
// EnableElastic adds the controller that resizes the GPU stages' pools — a
// pluggable Autoscaler strategy (internal/autoscale) evaluated on a
// virtual-time interval, min/max bounds, per-direction cooldowns, scale-in
// with cordon/drain (a draining replica takes no new picks and is torn down
// only once its in-flight requests complete), crash health tracking fed by
// faults.Injector, and provisioning that pays the cold-start machinery's
// latency. A pool holds only its live members, so the controller's cost per
// tick follows the live replica count, not the pool's history; each member
// carries its own warmth (coldstart.go) and in-flight count, and a pick hands
// the activation the member itself. The routable slice handed to instanceFor
// and the Route hook is refilled in place on every membership change and
// announced through App.OnPoolChange so the front-door router can refresh.
// A scale event allocates nothing once the pools have warmed: torn-down
// members and spent provisioning and recovery timers return to free lists on
// their ElasticPools, and a generation count keeps a timer that outlives its
// member from acting on the member's next incarnation.

// memberPhase is one pool replica's lifecycle state.
type memberPhase int8

const (
	// memberActive replicas are routable (when healthy).
	memberActive memberPhase = iota
	// memberProvisioning replicas are paying their provisioning delay; they
	// take no picks until it elapses (pre-warmed scale-out).
	memberProvisioning
	// memberDraining replicas are cordoned: no new picks, in-flight requests
	// complete, then teardown.
	memberDraining
	// memberGone replicas are torn down and out of the pool, waiting on
	// their ElasticPools' free list for reuse.
	memberGone
)

// poolMember is one replica of one stage's instance pool.
type poolMember struct {
	id       int
	loc      fabric.Location
	phase    memberPhase
	healthy  bool
	inflight int
	// since is the provisioning instant; GPU-seconds accrue from here until
	// teardown (capacity is paid for while it provisions).
	since time.Duration
	// warm and lastUsed are the replica's cold-start state (coldstart.go).
	warm     bool
	lastUsed time.Duration
	// gen counts the incarnations of this member's storage: finalize bumps it
	// as the torn-down member goes to its ElasticPools' free list.
	gen uint64
}

// poolState is one stage instance's pool of replicas.
type poolState struct {
	si    scheduler.StageInst
	stage *workflow.Stage
	// home is the stage's base placement node — scale-out prefers it.
	home int
	// need is the memory a replica must find free on its GPU: weights plus
	// the working set at the app's deployed batch.
	need int64
	// members holds the live (active, provisioning, draining) members in
	// provisioning order; finalize removes a torn-down one in place. nextID
	// numbers them, and an id is never reused, though a member's storage is.
	// slots is the routable view of members and locs their locations: the
	// pool instanceFor and the Route hook pick from, refilled in place by
	// rebuild.
	members []*poolMember
	nextID  int
	slots   []*poolMember
	locs    []fabric.Location
	// lastOut/lastIn are the last scale events; they gate the scale-in
	// cooldown.
	lastOut, lastIn time.Duration
	// hist holds the last historyWindow load observations, oldest first,
	// for predictive strategies; observe shifts it in place.
	hist []float64
	// gpuSeconds accumulates departed members' active time.
	gpuSeconds time.Duration
}

// newPool builds the one-member pool of stage instance si placed at loc.
func newPool(si scheduler.StageInst, s *workflow.Stage, loc fabric.Location, batch int, now time.Duration) *poolState {
	m := &poolMember{loc: loc, phase: memberActive, healthy: true, since: now}
	return &poolState{
		si:      si,
		stage:   s,
		home:    loc.Node,
		need:    s.Model.WeightsBytes + s.Model.InBytes(batch) + s.Model.OutBytes(batch),
		members: []*poolMember{m},
		nextID:  1,
		slots:   []*poolMember{m},
		locs:    []fabric.Location{loc},
	}
}

// pool returns one stage instance's pool, or nil for an unknown instance.
func (a *App) pool(si scheduler.StageInst) *poolState {
	for _, ps := range a.pools {
		if ps.si == si {
			return ps
		}
	}
	return nil
}

// ElasticConfig tunes the elastic pool layer.
type ElasticConfig struct {
	// Scaler is the scaling strategy (default Reactive{ScaleOutDepth: 2,
	// ScaleIn: true}).
	Scaler autoscale.Autoscaler
	// Min and Max bound each pool's desired active replica count. Min is
	// clamped to >= 1: a stage always keeps one routable instance (its base
	// placement); scale-to-zero of *warmth* is the cold-start policy's
	// KeepAlive job. Defaults: Min 1, Max 4.
	Min, Max int
	// Interval is the controller's evaluation period (default 250ms).
	Interval time.Duration
	// ScaleInCooldown suppresses a scale-in within the window after any
	// scale event (so freshly ordered capacity is not immediately shed).
	// Zero, the default, lets every interval act.
	ScaleInCooldown time.Duration
}

// RecoverAfter is how long a crashed GPU stays out of routing after a fault
// injector's crash signal: elastic pool members leave the routable set for
// this long (ElasticPools.WatchFaults), and the router blacklists the
// worker for as long.
const RecoverAfter = 500 * time.Millisecond

// DefaultElastic returns a responsive, scale-in-capable configuration.
func DefaultElastic() ElasticConfig {
	return ElasticConfig{
		Scaler:          autoscale.Reactive{ScaleOutDepth: 2, ScaleIn: true},
		Min:             1,
		Max:             4,
		Interval:        250 * time.Millisecond,
		ScaleInCooldown: 500 * time.Millisecond,
	}
}

// ElasticStats counts elastic controller activity, all in virtual time.
type ElasticStats struct {
	// ScaleOuts and ScaleIns count ordered provisions and cordons; Drained
	// counts completed teardowns (every ScaleIn eventually drains).
	ScaleOuts int64
	ScaleIns  int64
	Drained   int64
	// Crashes counts members blacklisted by fault signals; Recoveries counts
	// members returned to the routable set.
	Crashes    int64
	Recoveries int64
}

// ElasticPools is the handle EnableElastic returns: controller statistics,
// fault wiring, and the GPU-seconds cost axis of the ext-elastic experiment.
type ElasticPools struct {
	app *App
	cfg ElasticConfig
	// order holds the GPU stages' pools in the app's stage order, the
	// controller's deterministic evaluation order.
	order []*poolState
	// free holds torn-down members for scale-out to reuse, and timers the
	// spent provisioning and recovery timers.
	free   []*poolMember
	timers []*memberTimer

	Stats ElasticStats
}

// memberTimer is one armed provisioning or crash-recovery timer of a pool
// member. Spent timers return to ElasticPools.timers, and fire is bound once,
// when a timer is made, so arming one allocates nothing. gen is the member's
// incarnation when the timer was armed: a timer that outlives its member must
// not act on the member's next incarnation, whose phase and health can pass
// the timer's own checks.
type memberTimer struct {
	ep       *ElasticPools
	ps       *poolState
	m        *poolMember
	gen      uint64
	recovery bool
	fire     func()
}

// arm schedules a timer for member m of pool ps, d from now: a recovery
// timer returns the crash-blacklisted member to the routable set, any other
// ends the member's provisioning.
func (ep *ElasticPools) arm(d time.Duration, ps *poolState, m *poolMember, recovery bool) {
	var t *memberTimer
	if n := len(ep.timers); n > 0 {
		t = ep.timers[n-1]
		ep.timers = ep.timers[:n-1]
	} else {
		t = &memberTimer{ep: ep}
		t.fire = t.run
	}
	t.ps, t.m, t.gen, t.recovery = ps, m, m.gen, recovery
	ep.app.C.Engine.ScheduleDaemon(d, t.fire)
}

// run is a timer's event: it returns the timer to the free list, then acts
// if the member is still the incarnation the timer was armed for.
func (t *memberTimer) run() {
	ep, ps, m, gen, recovery := t.ep, t.ps, t.m, t.gen, t.recovery
	t.ps, t.m = nil, nil
	ep.timers = append(ep.timers, t)
	if m.gen != gen {
		return
	}
	if recovery {
		if !m.healthy {
			m.healthy = true
			ep.Stats.Recoveries++
			ep.app.rebuild(ps)
		}
		return
	}
	if m.phase == memberProvisioning {
		m.phase = memberActive
		ep.markWarm(m)
		ep.app.rebuild(ps)
	}
}

// EnableElastic starts the elastic pool controller over the app's GPU stage
// pools; GPU-seconds accrue from the call. Call at most once per app, before
// the first request.
func (a *App) EnableElastic(cfg ElasticConfig) *ElasticPools {
	if a.elastic != nil {
		panic("cluster: elastic pools already enabled")
	}
	if cfg.Scaler == nil {
		cfg.Scaler = autoscale.Reactive{ScaleOutDepth: 2, ScaleIn: true}
	}
	if cfg.Min < 1 {
		cfg.Min = 1
	}
	if cfg.Max < cfg.Min {
		cfg.Max = cfg.Min
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 250 * time.Millisecond
	}
	ep := &ElasticPools{app: a, cfg: cfg}
	now := a.C.Engine.Now()
	for _, ps := range a.pools {
		if !ps.stage.IsGPU() {
			continue
		}
		for _, m := range ps.members {
			m.since = now
		}
		ep.order = append(ep.order, ps)
	}
	a.elastic = ep
	a.C.Engine.GoDaemon("elastic-"+a.WF.Name, func(p *sim.Proc) {
		for {
			p.Sleep(cfg.Interval)
			ep.step()
		}
	})
	return ep
}

// provisionDelay is the scale-out latency a new member pays before
// serving: the container launch of a cold start, or nothing without them.
func (ep *ElasticPools) provisionDelay() time.Duration {
	if ep.app.Cold.Enabled {
		return ep.app.Cold.ContainerLatency
	}
	return 0
}

// historyWindow bounds the per-pool load history handed to predictive
// strategies.
const historyWindow = 8

// observe builds one pool's metrics snapshot and pushes the load history.
func (ep *ElasticPools) observe(ps *poolState) autoscale.PoolMetrics {
	m := autoscale.PoolMetrics{}
	for _, mem := range ps.members {
		switch mem.phase {
		case memberActive:
			if !mem.healthy {
				m.Unhealthy++
				continue
			}
			m.Active++
			r := ep.app.C.resourceAt(mem.loc)
			m.Queue += r.QueueLen()
			m.Busy += r.InUse()
		case memberProvisioning:
			m.Provisioning++
		case memberDraining:
			m.Draining++
		}
	}
	m.Load = float64(m.Queue + m.Busy)
	// Attainment is the router's predicted per-class SLO attainment; -1
	// (unknown) without an installed SLO probe, so strategies can fall back
	// to load signals instead of misreading "no signal" as "0% attained".
	m.Attainment = -1
	if ep.app.SLOAttainment != nil {
		low, high := ep.app.SLOAttainment()
		m.Attainment = low
		if high < low {
			m.Attainment = high
		}
	}
	if len(ps.hist) == historyWindow {
		ps.hist = ps.hist[:copy(ps.hist, ps.hist[1:])]
	}
	ps.hist = append(ps.hist, m.Load)
	m.History = ps.hist
	return m
}

// step runs one controller evaluation over every pool.
func (ep *ElasticPools) step() {
	now := ep.app.C.Engine.Now()
	for _, ps := range ep.order {
		m := ep.observe(ps)
		want := ep.cfg.Scaler.Desired(m)
		if want < ep.cfg.Min {
			want = ep.cfg.Min
		}
		if want > ep.cfg.Max {
			want = ep.cfg.Max
		}
		// Provisioning members count as ordered capacity: repeated ticks
		// inside the provisioning delay must not re-order it.
		live := m.Active + m.Provisioning
		switch {
		case want > live:
			for i := live; i < want; i++ {
				ep.scaleOut(ps, now)
			}
			ps.lastOut = now
		case want < m.Active:
			last := ps.lastOut
			if ps.lastIn > last {
				last = ps.lastIn
			}
			if ep.cfg.ScaleInCooldown > 0 && last > 0 && now-last < ep.cfg.ScaleInCooldown {
				continue
			}
			ep.scaleIn(ps, m.Active-want, now)
			ps.lastIn = now
		}
	}
}

// scaleOut provisions one new member for the pool. The member pays the
// provisioning delay in the background and turns routable already warm, so
// no request is charged its cold start; without cold starts it is routable
// at once.
func (ep *ElasticPools) scaleOut(ps *poolState, now time.Duration) {
	a := ep.app
	loc := a.C.Placer.PlaceSingleFit(ps.home, ps.need, func(l fabric.Location) int64 {
		return a.C.Fabric.Mem(l).Free()
	})
	m := ep.newMember()
	*m = poolMember{id: ps.nextID, loc: loc, healthy: true, since: now, gen: m.gen}
	ps.nextID++
	ps.members = append(ps.members, m)
	ep.Stats.ScaleOuts++
	if delay := ep.provisionDelay(); delay > 0 {
		// Background provisioning: routable after the delay, already warm.
		m.phase = memberProvisioning
		ep.arm(delay, ps, m, false)
		return
	}
	m.phase = memberActive
	ep.markWarm(m)
	a.rebuild(ps)
}

// newMember takes a torn-down member off the free list, or allocates one
// when the list is empty. The caller overwrites every field but gen.
func (ep *ElasticPools) newMember() *poolMember {
	if n := len(ep.free); n > 0 {
		m := ep.free[n-1]
		ep.free[n-1] = nil
		ep.free = ep.free[:n-1]
		return m
	}
	return new(poolMember)
}

// markWarm records a pre-warmed member's warmth so its first request is not
// charged a cold start.
func (ep *ElasticPools) markWarm(m *poolMember) {
	m.warm, m.lastUsed = true, ep.app.C.Engine.Now()
}

// scaleIn cordons n members: unhealthy ones first, then newest (highest id),
// never touching draining/provisioning members or the last active one.
func (ep *ElasticPools) scaleIn(ps *poolState, n int, now time.Duration) {
	for ; n > 0; n-- {
		var victim *poolMember
		active := 0
		for _, m := range ps.members {
			if m.phase != memberActive {
				continue
			}
			active++
			if victim == nil {
				victim = m
				continue
			}
			// Unhealthy beats healthy; within a class, highest id (newest).
			if (!m.healthy && victim.healthy) || (m.healthy == victim.healthy && m.id > victim.id) {
				victim = m
			}
		}
		if victim == nil || active <= 1 {
			return
		}
		victim.phase = memberDraining
		ep.Stats.ScaleIns++
		ep.app.rebuild(ps)
		if victim.inflight <= 0 {
			ep.finalize(ps, victim, now)
		}
	}
}

// finalize tears down a fully drained member and removes it from the pool,
// keeping the survivors' order. The member goes to the free list with a new
// generation, so nothing may use it afterwards but a timer's generation check.
func (ep *ElasticPools) finalize(ps *poolState, m *poolMember, now time.Duration) {
	ps.gpuSeconds += now - m.since
	ep.app.C.Placer.Unplace(m.loc)
	i := slices.Index(ps.members, m)
	ps.members = slices.Delete(ps.members, i, i+1)
	ep.Stats.Drained++
	m.phase = memberGone
	m.gen++
	ep.free = append(ep.free, m)
}

// rebuild refills the pool's routable view in place from member phases and
// health, and announces the change. The locations it announces are ps.locs
// itself, valid until the next rebuild.
func (a *App) rebuild(ps *poolState) {
	slots := ps.slots[:0]
	for _, m := range ps.members {
		if m.phase == memberActive && m.healthy {
			slots = append(slots, m)
		}
	}
	if len(slots) == 0 {
		// Degraded: every active member is crash-blacklisted. Keep them
		// routable rather than emptying the pool — a request must always
		// have somewhere to run (the pre-elastic behavior under crashes).
		for _, m := range ps.members {
			if m.phase == memberActive {
				slots = append(slots, m)
			}
		}
	}
	if len(slots) == 0 {
		panic("cluster: pool " + ps.si.String() + " has no active members")
	}
	locs := ps.locs[:0]
	for _, m := range slots {
		locs = append(locs, m.loc)
	}
	ps.slots = slots
	ps.locs = locs
	if a.OnPoolChange != nil {
		a.OnPoolChange(ps.si, locs)
	}
}

// WatchFaults subscribes the pools to the injector's GPU crash signals:
// members on a crashed GPU leave the routable set and return after
// RecoverAfter (their stored warmth is not touched — the data plane already
// models re-materialization).
func (ep *ElasticPools) WatchFaults(in *faults.Injector) {
	in.OnGPUCrash(func(node, gpu int) {
		for _, ps := range ep.order {
			changed := false
			for _, m := range ps.members {
				if m.loc.Node != node || m.loc.GPU != gpu || !m.healthy {
					continue
				}
				m.healthy = false
				ep.Stats.Crashes++
				changed = true
				ep.arm(RecoverAfter, ps, m, true)
			}
			if changed {
				ep.app.rebuild(ps)
			}
		}
	})
}

// GPUSeconds returns the fleet's accumulated GPU cost: every member's active
// lifetime (provisioning included — capacity is paid for while it boots),
// departed members at their teardown instant, live members up to now. The
// ext-elastic experiment's cost axis.
func (ep *ElasticPools) GPUSeconds() float64 {
	now := ep.app.C.Engine.Now()
	var total time.Duration
	for _, ps := range ep.order {
		total += ps.gpuSeconds
		for _, m := range ps.members {
			total += now - m.since
		}
	}
	return total.Seconds()
}

// Replicas reports one pool's live member count (active + provisioning +
// draining), for tests and diagnostics.
func (ep *ElasticPools) Replicas(stage string, replica int) (active, provisioning, draining int) {
	ps := ep.app.pool(scheduler.StageInst{Stage: stage, Replica: replica})
	if ps == nil {
		return 0, 0, 0
	}
	for _, m := range ps.members {
		switch m.phase {
		case memberActive:
			active++
		case memberProvisioning:
			provisioning++
		case memberDraining:
			draining++
		}
	}
	return active, provisioning, draining
}

// ForEachPoolMember calls fn for every member of every routable pool: pools
// in stage declaration order (replicas ascending), members in routable order.
func (a *App) ForEachPoolMember(fn func(si scheduler.StageInst, loc fabric.Location)) {
	for _, ps := range a.pools {
		for _, loc := range ps.locs {
			fn(ps.si, loc)
		}
	}
}

// instanceFor picks the pool member serving one request's stage activation:
// the Route hook when one is installed (falling back on a declined pick),
// round-robin otherwise. It counts the pick in flight and returns the
// member; the caller must retire the pick with poolDone once the activation
// ends.
func (a *App) instanceFor(ps *poolState, ri RouteInfo) *poolMember {
	pool := ps.locs
	idx, ok := -1, false
	if a.Route != nil {
		idx, ok = a.Route(ps.si, ri, pool)
	}
	if !ok || idx < 0 || idx >= len(pool) {
		// Modulo in int64 before narrowing: int(seq) % len(pool) overflows on
		// 32-bit ints past seq 2^31 and yields a negative index (panic). The
		// clamp keeps the pick total for negative seq too.
		idx = int(ri.Seq % int64(len(pool)))
		if idx < 0 {
			idx += len(pool)
		}
	}
	m := ps.slots[idx]
	m.inflight++
	return m
}

// poolDone retires one pick of member m; the last in-flight request of a
// draining member triggers its teardown.
func (a *App) poolDone(ps *poolState, m *poolMember) {
	m.inflight--
	if m.phase == memberDraining && m.inflight <= 0 {
		// Only the elastic controller cordons members.
		a.elastic.finalize(ps, m, a.C.Engine.Now())
	}
}
