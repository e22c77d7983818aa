package cluster

import (
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
// latency. Pool members carry stable ids so warmth state (coldstart.go) and
// in-flight accounting survive membership churn; the routable slice handed to
// instanceFor and the Route hook is rebuilt on every membership change and
// announced through App.OnPoolChange so the front-door router can refresh.

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
	// memberGone replicas are torn down; the id is never reused.
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
	// members is append-only (gone members stay, phase memberGone), so a
	// member's id is its index. slots is the routable view of members and
	// locs their locations: the pool instanceFor and the Route hook pick from.
	members []*poolMember
	slots   []*poolMember
	locs    []fabric.Location
	// lastOut/lastIn gate the per-direction cooldowns.
	lastOut, lastIn time.Duration
	// hist holds recent load observations for predictive strategies.
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
	// ScaleOutCooldown suppresses a scale-out within the window after the
	// previous one; ScaleInCooldown suppresses a scale-in within the window
	// after any scale event (so freshly ordered capacity is not immediately
	// shed). Both default to zero — every interval may act.
	ScaleOutCooldown time.Duration
	ScaleInCooldown  time.Duration
	// HistoryWindow bounds the per-pool load history handed to predictive
	// strategies (default 8 observations).
	HistoryWindow int
	// Prewarm provisions scaled-out replicas in the background: the new
	// member becomes routable only after ProvisionDelay, already warm, so no
	// request is charged its cold start. False (the default) makes the new
	// member routable immediately and the first routed request pays the
	// ColdStartPolicy latency.
	Prewarm bool
	// ProvisionDelay is the scale-out provisioning latency; zero defaults to
	// the app's ColdStartPolicy.ContainerLatency when cold starts are
	// enabled, else zero (instant).
	ProvisionDelay time.Duration
	// RecoverAfter is how long a crashed member stays out of the routable
	// set after a WatchFaults GPU-crash signal (default 500ms).
	RecoverAfter time.Duration
}

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

	Stats ElasticStats
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
	if cfg.HistoryWindow < 2 {
		cfg.HistoryWindow = 8
	}
	if cfg.RecoverAfter <= 0 {
		cfg.RecoverAfter = 500 * time.Millisecond
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

// provisionDelay is the scale-out latency a new member pays before serving.
func (ep *ElasticPools) provisionDelay() time.Duration {
	if ep.cfg.ProvisionDelay > 0 {
		return ep.cfg.ProvisionDelay
	}
	if ep.app.Cold.Enabled {
		return ep.app.Cold.ContainerLatency
	}
	return 0
}

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
	ps.hist = append(ps.hist, m.Load)
	if n := len(ps.hist) - ep.cfg.HistoryWindow; n > 0 {
		ps.hist = ps.hist[n:]
	}
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
			if ep.cfg.ScaleOutCooldown > 0 && ps.lastOut > 0 && now-ps.lastOut < ep.cfg.ScaleOutCooldown {
				continue
			}
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

// scaleOut provisions one new member for the pool.
func (ep *ElasticPools) scaleOut(ps *poolState, now time.Duration) {
	a := ep.app
	loc := a.C.Placer.PlaceSingleFit(ps.home, ps.need, func(l fabric.Location) int64 {
		return a.C.Fabric.Mem(l).Free()
	})
	m := &poolMember{id: len(ps.members), loc: loc, healthy: true, since: now}
	ps.members = append(ps.members, m)
	ep.Stats.ScaleOuts++
	delay := ep.provisionDelay()
	if ep.cfg.Prewarm && delay > 0 {
		// Background provisioning: routable after the delay, already warm.
		m.phase = memberProvisioning
		a.C.Engine.ScheduleDaemon(delay, func() {
			if m.phase != memberProvisioning {
				return
			}
			m.phase = memberActive
			ep.markWarm(ps.si, m)
			a.rebuild(ps)
		})
		return
	}
	m.phase = memberActive
	if ep.cfg.Prewarm {
		ep.markWarm(ps.si, m)
	}
	// Without Prewarm the member is routable now and its first routed
	// request pays the cold start (ensureWarm finds no warmth state).
	a.rebuild(ps)
}

// markWarm records a pre-warmed member's warmth so its first request is not
// charged a cold start.
func (ep *ElasticPools) markWarm(si scheduler.StageInst, m *poolMember) {
	a := ep.app
	if !a.Cold.Enabled || a.instances == nil {
		return
	}
	a.instances[instKey{si, m.id}] = &instanceState{warm: true, lastUsed: a.C.Engine.Now()}
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

// finalize tears down a fully drained member.
func (ep *ElasticPools) finalize(ps *poolState, m *poolMember, now time.Duration) {
	m.phase = memberGone
	ps.gpuSeconds += now - m.since
	ep.app.C.Placer.Unplace(m.loc)
	if ep.app.instances != nil {
		delete(ep.app.instances, instKey{ps.si, m.id})
	}
	ep.Stats.Drained++
}

// rebuild recomputes the pool's routable view from member phases and
// health, and announces the change.
func (a *App) rebuild(ps *poolState) {
	slots := make([]*poolMember, 0, len(ps.members))
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
	locs := make([]fabric.Location, len(slots))
	for i, m := range slots {
		locs[i] = m.loc
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
				if m.loc.Node != node || m.loc.GPU != gpu || !m.healthy || m.phase == memberGone {
					continue
				}
				m.healthy = false
				ep.Stats.Crashes++
				changed = true
				m := m
				ps := ps
				ep.app.C.Engine.ScheduleDaemon(ep.cfg.RecoverAfter, func() {
					if m.healthy || m.phase == memberGone {
						return
					}
					m.healthy = true
					ep.Stats.Recoveries++
					ep.app.rebuild(ps)
				})
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
			if m.phase != memberGone {
				total += now - m.since
			}
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
// member's location and stable id (the cold-start state key); the caller
// must retire the pick with poolDone once the activation ends.
func (a *App) instanceFor(ps *poolState, ri RouteInfo) (fabric.Location, int) {
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
	return m.loc, m.id
}

// poolDone retires one pick of member id (members are append-only, so the
// id indexes them); the last in-flight request of a draining member triggers
// its teardown.
func (a *App) poolDone(ps *poolState, id int) {
	m := ps.members[id]
	m.inflight--
	if m.phase == memberDraining && m.inflight <= 0 {
		// Only the elastic controller cordons members.
		a.elastic.finalize(ps, m, a.C.Engine.Now())
	}
}
