package router

import (
	"math/rand"
	"slices"
	"time"

	"grouter/internal/cluster"
	"grouter/internal/fabric"
	"grouter/internal/faults"
	"grouter/internal/obs"
	"grouter/internal/scheduler"
)

// Config tunes one Router.
type Config struct {
	// Weights are the worker-scoring coefficients.
	Weights Weights
	// TopK is the weighted-random candidate pool size (default 1; the
	// scored DefaultConfig uses 3 to spread near-ties).
	TopK int
	// Refresh is the snapshot cache period in virtual time: picks between
	// refreshes reuse the cached worker metrics (cached-metrics admission,
	// so a burst of picks costs one metrics sweep). Zero refreshes every
	// pick.
	Refresh time.Duration
	// Seed drives the weighted-random pick stream.
	Seed int64
	// AgingAfter, when positive, enables priority aging on the cluster's
	// GPU queues: a waiting request's effective QoS class rises one level
	// per period, so QoSHigh load cannot starve QoSLow requests.
	AgingAfter time.Duration
	// SLO configures per-class admission control; the zero value disables
	// it (no AdmitFn is installed — the launch path stays byte-identical to
	// the admission-free router).
	SLO SLOConfig
}

// affinityTTL is the staleness horizon of session-affinity pins: a pin's
// bias decays linearly from 1 to 0 over the TTL and the pin is dropped once
// fully decayed. Pins exist only with a positive Weights.Session.
const affinityTTL = 500 * time.Millisecond

// DefaultConfig returns the scored production configuration: queue depth
// dominates (it is the freshest congestion signal), latency EWMA second,
// free memory and utilization as slow-moving tie-breakers.
func DefaultConfig() Config {
	return Config{
		Weights:    Weights{FreeMem: 1, Queue: 4, Latency: 2, Util: 1},
		TopK:       3,
		Refresh:    2 * time.Millisecond,
		AgingAfter: 20 * time.Millisecond,
	}
}

// Uniform returns the degenerate configuration whose routing is provably
// identical to placement-only admission: zero weights score every worker
// equally and k=1 resolves the tie round-robin, reproducing the cluster's
// seq-mod-pool instance selection byte for byte (the differential oracle).
func Uniform() Config { return Config{TopK: 1} }

// Stats counts routing activity. All counters are deterministic in virtual
// time.
type Stats struct {
	// Decisions counts routed stage activations (scored picks served).
	Decisions int64
	// Refreshes counts metrics-snapshot rebuilds.
	Refreshes int64
	// Failovers counts decisions where at least one unhealthy candidate
	// was skipped; Retries counts the skipped candidates.
	Failovers int64
	Retries   int64
	// Fallbacks counts decisions with no healthy candidate (ErrNoWorker),
	// where admission fell back to the cluster's round-robin.
	Fallbacks int64
	// Crashes counts worker-down signals received from the fault injector.
	Crashes int64
	// PoolChanges counts elastic pool-membership announcements received;
	// Seeded counts workers whose zero EWMA was seeded from the pool mean on
	// arrival (see poolChanged).
	PoolChanges int64
	Seeded      int64
	// Admission-control counters (all zero without an SLO configuration).
	// Admits counts attempts that launched, Defers delay-queue parks, and
	// ShedLow/ShedHigh dropped requests per QoS class — together they
	// account for every admission decision: no request is dropped without
	// a shed counter recording it.
	Admits   int64
	Defers   int64
	ShedLow  int64
	ShedHigh int64
	// AffinityHits counts scored picks that landed on the session's pinned
	// worker; AffinityInvalidations counts pins dropped because their
	// worker crashed, was cordoned out of the stage's pool, or fully
	// decayed — whether the decayed pin was found by a lookup or by the
	// expiry sweep at snapshot refresh.
	AffinityHits          int64
	AffinityInvalidations int64
}

// Router scores a cluster's GPUs and routes one app's stage activations.
type Router struct {
	app *cluster.App
	c   *cluster.Cluster
	cfg Config
	rng *rand.Rand
	tr  *obs.Tracer

	numGPUs int
	// Per-worker accounting, indexed node*numGPUs+gpu.
	ewma      []time.Duration
	busy      []time.Duration
	lastBusy  []time.Duration
	downUntil []time.Duration
	// pending counts picks routed to a worker since the last snapshot
	// refresh. Added to the cached queue depth, it keeps a burst of picks
	// inside one refresh window from herding onto the same stale-best
	// worker — the pending discount of cached-metrics routing.
	pending []int

	snap   []WorkerState
	snapAt time.Duration
	fresh  bool
	// cstates is the per-pick candidate scratch buffer, pickBuf the scratch
	// the pick itself is computed in, and astates the per-admission
	// effective-snapshot scratch buffer.
	cstates []WorkerState
	pickBuf pickBuf
	astates []WorkerState

	// sessions holds per-(session, stage) affinity pins; nil until the
	// first pinned pick (sessionless traffic allocates nothing). pinLog
	// lists the pin writes the expiry sweep has not reached, in time order,
	// so a snapshot refresh drops expired pins without scanning the map.
	sessions map[sessionKey]sessionPin
	pinLog   pinRing

	// poolStages holds, per current routable stage pool, the snapshot
	// indices of its GPU workers — the per-stage worker sets admission
	// predicts over (the global snapshot also covers GPUs the app cannot
	// route to, whose idleness must not veto a shed; and one pool's idle
	// workers must not hide another pool's queue). Rebuilt lazily after
	// every pool change. agroups is the matching per-admission scratch.
	poolStages      [][]int
	poolStagesValid bool
	agroups         [][]WorkerState

	// attain holds the per-class predicted-attainment rings feeding the
	// autoscaler (QoSLow, QoSHigh order).
	attain [2]attainRing

	Stats Stats
}

// sessionKey identifies one session's pin for one stage instance: requests
// traverse every stage, so affinity is per (session, stage) — one shared pin
// would thrash across the workflow's pools.
type sessionKey struct {
	sid int64
	si  scheduler.StageInst
}

// sessionPin records where a session's state last landed and when.
type sessionPin struct {
	w  int
	at time.Duration
}

// pinWrite is one pinLog entry: the pin written for k at time at.
type pinWrite struct {
	k  sessionKey
	at time.Duration
}

// pinRing is a FIFO ring of pin writes. It grows only when every slot holds
// a write, to twice its size, so its array stays within twice the most
// writes it ever held at once (or its 16-slot minimum).
type pinRing struct {
	buf  []pinWrite
	head int // index of the oldest write
	n    int // writes held
}

func (q *pinRing) push(w pinWrite) {
	if q.n == len(q.buf) {
		grown := make([]pinWrite, max(2*q.n, 16))
		copy(grown, q.buf[q.head:])
		copy(grown[len(q.buf)-q.head:], q.buf[:q.head])
		q.buf, q.head = grown, 0
	}
	q.buf[(q.head+q.n)%len(q.buf)] = w
	q.n++
}

// pop drops the oldest write.
func (q *pinRing) pop() {
	q.head = (q.head + 1) % len(q.buf)
	q.n--
}

// attainWindow is how many recent admission decisions of one class the
// predicted-attainment feedback to the autoscaler averages over.
const attainWindow = 64

// attainRing is a fixed-window ring of admission outcomes: true samples were
// predicted to meet their class budget. Its mean is the predicted SLO
// attainment fed back to the autoscaler; an empty ring reads 1 (no evidence
// of misses).
type attainRing struct {
	meets [attainWindow]bool
	idx   int
	n     int
	hits  int
}

func (r *attainRing) push(meet bool) {
	if r.n < attainWindow {
		r.n++
	} else if r.meets[r.idx] {
		r.hits--
	}
	r.meets[r.idx] = meet
	if meet {
		r.hits++
	}
	r.idx = (r.idx + 1) % attainWindow
}

func (r *attainRing) value() float64 {
	if r.n == 0 {
		return 1
	}
	return float64(r.hits) / float64(r.n)
}

// New builds a router over the app's cluster and installs it as the app's
// Route hook, taking over the cluster's OnGPUService accounting hook. With a
// positive AgingAfter it also enables priority aging on the cluster's GPU
// queues. One router per cluster.
func New(app *cluster.App, cfg Config) *Router {
	c := app.C
	n := c.Fabric.NumNodes() * c.Spec().NumGPUs
	r := &Router{
		app:       app,
		c:         c,
		cfg:       cfg,
		rng:       rand.New(rand.NewSource(cfg.Seed + 101)),
		tr:        obs.TracerOf(c.Engine),
		numGPUs:   c.Spec().NumGPUs,
		ewma:      make([]time.Duration, n),
		busy:      make([]time.Duration, n),
		lastBusy:  make([]time.Duration, n),
		downUntil: make([]time.Duration, n),
		pending:   make([]int, n),
		snap:      make([]WorkerState, n),
	}
	c.OnGPUService = r.onService
	if cfg.AgingAfter > 0 {
		c.SetQueueAging(cfg.AgingAfter)
	}
	app.Route = r.route
	app.OnPoolChange = r.poolChanged
	if cfg.SLO.Enabled() {
		app.Admit = r.admit
		app.SLOAttainment = r.attainment
	}
	return r
}

// Attainment returns the router's predicted SLO attainment for one QoS
// class: the fraction of the last attainWindow (64) admission attempts of
// that class predicted to meet their budget (1 with no samples, or without
// an SLO configuration).
func (r *Router) Attainment(q cluster.QoS) float64 {
	if q == cluster.QoSHigh {
		return r.attain[1].value()
	}
	return r.attain[0].value()
}

// attainment is the App.SLOAttainment hook feeding PoolMetrics.
func (r *Router) attainment() (low, high float64) {
	return r.attain[0].value(), r.attain[1].value()
}

// admit is the App.Admit hook: it folds the pending-pick discount into the
// cached snapshot, groups it by the stage pools the app actually routes to,
// and delegates the decision to the pure AdmitPipeline. Classes without a
// budget bypass the predictor and record no attainment sample.
func (r *Router) admit(req cluster.Request, waited time.Duration) (cluster.AdmitAction, time.Duration) {
	if r.cfg.SLO.Class(req.QoS).Budget <= 0 {
		return cluster.AdmitRun, 0
	}
	snap := r.Snapshot()
	stages := r.stageGroups()
	total := 0
	for _, g := range stages {
		total += len(g)
	}
	if total == 0 {
		// No routable GPU pool (host-only workflow): nothing to predict
		// over, so admission cannot justify a drop.
		return cluster.AdmitRun, 0
	}
	// Pre-size the flat scratch so the per-stage subslices below never span
	// a reallocation.
	if cap(r.astates) < total {
		r.astates = make([]WorkerState, 0, total)
	}
	r.astates = r.astates[:0]
	r.agroups = r.agroups[:0]
	for _, g := range stages {
		start := len(r.astates)
		for _, i := range g {
			ws := snap[i]
			ws.QueueDepth += r.pending[i]
			r.astates = append(r.astates, ws)
		}
		r.agroups = append(r.agroups, r.astates[start:len(r.astates)])
	}
	action, delay := AdmitPipeline(r.agroups, r.cfg.SLO, req.QoS, waited)
	ci := 0
	if req.QoS == cluster.QoSHigh {
		ci = 1
	}
	r.attain[ci].push(action == cluster.AdmitRun)
	switch action {
	case cluster.AdmitDefer:
		r.Stats.Defers++
	case cluster.AdmitShed:
		if ci == 1 {
			r.Stats.ShedHigh++
		} else {
			r.Stats.ShedLow++
		}
	default:
		r.Stats.Admits++
	}
	return action, delay
}

// stageGroups returns (rebuilding lazily after pool changes) the snapshot
// indices of every current routable stage pool's GPU workers, in the app's
// stage order. A rebuild refills the groups in place, reusing each one's
// array from the rebuild before.
func (r *Router) stageGroups() [][]int {
	if !r.poolStagesValid {
		r.poolStages = r.poolStages[:0]
		var cur scheduler.StageInst
		r.app.ForEachPoolMember(func(si scheduler.StageInst, loc fabric.Location) {
			if loc.IsHost() {
				return
			}
			// Pools are visited one after another, so a new stage instance
			// starts a new group.
			if len(r.poolStages) == 0 || si != cur {
				g := len(r.poolStages)
				r.poolStages = slices.Grow(r.poolStages, 1)[:g+1]
				r.poolStages[g] = r.poolStages[g][:0]
				cur = si
			}
			g := len(r.poolStages) - 1
			r.poolStages[g] = append(r.poolStages[g], r.widx(loc.Node, loc.GPU))
		})
		r.poolStagesValid = true
	}
	return r.poolStages
}

// widx flattens a worker location.
func (r *Router) widx(node, gpu int) int { return node*r.numGPUs + gpu }

// ewmaAlpha smooths the per-worker service-latency EWMA.
const ewmaAlpha = 0.2

// onService folds one compute-slot hold into the worker's EWMA service
// latency and cumulative busy time.
func (r *Router) onService(node, gpu int, held time.Duration) {
	i := r.widx(node, gpu)
	if r.ewma[i] == 0 {
		r.ewma[i] = held
	} else {
		r.ewma[i] = time.Duration(ewmaAlpha*float64(held) + (1-ewmaAlpha)*float64(r.ewma[i]))
	}
	r.busy[i] += held
}

// MarkDown blacklists a worker until cluster.RecoverAfter elapses (the fault
// injector's crash signal lands here via WatchFaults). Session pins on the
// crashed worker are invalidated: its KV/replica state is gone, so steering
// the session back to it after recovery would be affinity to nothing.
func (r *Router) MarkDown(node, gpu int) {
	w := r.widx(node, gpu)
	r.downUntil[w] = r.c.Engine.Now() + cluster.RecoverAfter
	// Health must be visible to the next pick even inside a refresh window.
	r.fresh = false
	for k, pin := range r.sessions {
		if pin.w == w {
			delete(r.sessions, k)
			r.Stats.AffinityInvalidations++
		}
	}
}

// WatchFaults subscribes the router to the injector's GPU crash signals, so
// picks fail over away from crashed workers while they re-materialize.
func (r *Router) WatchFaults(in *faults.Injector) {
	in.OnGPUCrash(func(node, gpu int) {
		r.Stats.Crashes++
		r.MarkDown(node, gpu)
	})
}

// poolChanged is the App.OnPoolChange hook: an elastic pool grew, shrank, or
// failed over. The cached snapshot is invalidated so the next pick sees the
// new membership, and workers arriving with no service history get their
// EWMA seeded from the mean of the pool's seasoned workers — a zero EWMA
// scores as infinitely fast and would aim the whole burst that triggered the
// scale-out at the cold replica.
func (r *Router) poolChanged(si scheduler.StageInst, pool []fabric.Location) {
	r.Stats.PoolChanges++
	// The announcement must invalidate caches even for a host pool: the old
	// code returned from inside the seeding loop on the first host location,
	// leaving the snapshot marked fresh — a pick inside the refresh window
	// could then race the stale EWMA/membership view against the change.
	r.fresh = false
	r.poolStagesValid = false
	host := false
	var sum time.Duration
	n := 0
	for _, loc := range pool {
		if loc.IsHost() {
			host = true
			break
		}
		if e := r.ewma[r.widx(loc.Node, loc.GPU)]; e > 0 {
			sum += e
			n++
		}
	}
	if !host && n > 0 {
		mean := sum / time.Duration(n)
		for _, loc := range pool {
			if i := r.widx(loc.Node, loc.GPU); r.ewma[i] == 0 {
				r.ewma[i] = mean
				r.Stats.Seeded++
			}
		}
	}
	// Drop this stage's session pins to workers that left the pool: a
	// cordoned (draining) or failed-over worker must not keep receiving
	// affinity-pinned picks through a stale pin.
	if len(r.sessions) > 0 {
		for k, pin := range r.sessions {
			if k.si != si {
				continue
			}
			present := false
			for _, loc := range pool {
				if !loc.IsHost() && r.widx(loc.Node, loc.GPU) == pin.w {
					present = true
					break
				}
			}
			if !present {
				delete(r.sessions, k)
				r.Stats.AffinityInvalidations++
			}
		}
	}
}

// Snapshot returns the current cached worker states, refreshing if stale
// (exported for tests).
func (r *Router) Snapshot() []WorkerState {
	now := r.c.Engine.Now()
	if r.fresh && now-r.snapAt < r.cfg.Refresh {
		return r.snap
	}
	elapsed := now - r.snapAt
	for node := 0; node < r.c.Fabric.NumNodes(); node++ {
		for gpu := 0; gpu < r.numGPUs; gpu++ {
			i := r.widx(node, gpu)
			waiting, held := r.c.GPULoad(node, gpu)
			util := 0.0
			if elapsed > 0 {
				util = float64(r.busy[i]-r.lastBusy[i]) / float64(elapsed)
				if util > 1 {
					util = 1
				}
			}
			r.lastBusy[i] = r.busy[i]
			r.pending[i] = 0
			r.snap[i] = WorkerState{
				Node:        node,
				GPU:         gpu,
				Healthy:     r.downUntil[i] <= now,
				FreeMem:     r.c.Fabric.Mem(fabric.Location{Node: node, GPU: gpu}).Free(),
				QueueDepth:  waiting + held,
				EWMALatency: r.ewma[i],
				Utilization: util,
			}
		}
	}
	r.snapAt = now
	r.fresh = true
	r.Stats.Refreshes++
	r.dropExpiredPins(now)
	return r.snap
}

// dropExpiredPins deletes every pin that has fully decayed by now, so the
// map holds only pins that can still bias a pick even when their sessions
// never return. It drops exactly the pins sessionBias would drop on lookup,
// so routing decisions do not change; each drop counts as an affinity
// invalidation. pinLog is in time order, so the sweep stops at the first
// entry still within the TTL.
func (r *Router) dropExpiredPins(now time.Duration) {
	q := &r.pinLog
	for q.n > 0 {
		w := q.buf[q.head]
		if now-w.at < affinityTTL {
			break
		}
		q.pop()
		// A later write for the same key superseded this one, or an
		// invalidation removed the pin already.
		if pin, ok := r.sessions[w.k]; ok && pin.at == w.at {
			delete(r.sessions, w.k)
			r.Stats.AffinityInvalidations++
		}
	}
}

// route is the App.Route hook: it maps the stage's instance pool onto worker
// states and makes the pick with RouteRequest's code on the router's own
// scratch, so an untraced pick allocates nothing. Host pools (cFns) and
// no-healthy-worker picks decline, falling back to round-robin — a
// simulation must still run every request, so total failure degrades to the
// placement-only path and is counted in Stats.Fallbacks.
//
// With a positive Weights.Session, a session-carrying request biases the
// pick toward the worker holding the session's state: the pin's decayed
// affinity lands in the candidate's WorkerState.Affinity and the scorer
// weighs it against load. The bias applies only to candidates present in
// the stage's current pool — a cordoned or crashed worker is absent from it
// (or unhealthy), so stale pins cannot steer picks to it — and every scored
// pick re-pins the session where it actually landed.
func (r *Router) route(si scheduler.StageInst, ri cluster.RouteInfo, pool []fabric.Location) (int, bool) {
	snap := r.Snapshot()
	useAff := ri.Session != 0 && saneWeight(r.cfg.Weights.Session) > 0
	pinned := -1
	aff := 0.0
	if useAff {
		pinned, aff = r.sessionBias(sessionKey{ri.Session, si})
	}
	r.cstates = r.cstates[:0]
	unhealthy := 0
	for _, loc := range pool {
		if loc.IsHost() {
			return 0, false
		}
		w := r.widx(loc.Node, loc.GPU)
		ws := snap[w]
		ws.QueueDepth += r.pending[w]
		if w == pinned && ws.Healthy {
			ws.Affinity = aff
		}
		if !ws.Healthy {
			unhealthy++
		}
		r.cstates = append(r.cstates, ws)
	}
	r.Stats.Decisions++
	if unhealthy > 0 {
		r.Stats.Failovers++
		r.Stats.Retries += int64(unhealthy)
	}
	idx, err := r.pickBuf.pick(r.cstates, r.cfg, ri.Seq, r.rng)
	if err != nil {
		r.Stats.Fallbacks++
		return 0, false
	}
	picked := r.widx(pool[idx].Node, pool[idx].GPU)
	r.pending[picked]++
	if useAff {
		if picked == pinned {
			r.Stats.AffinityHits++
		}
		if r.sessions == nil {
			r.sessions = make(map[sessionKey]sessionPin)
		}
		k, now := sessionKey{ri.Session, si}, r.c.Engine.Now()
		r.sessions[k] = sessionPin{w: picked, at: now}
		r.pinLog.push(pinWrite{k: k, at: now})
	}
	if r.tr != nil {
		ev := r.tr.InstantOn(obs.TrackSched, obs.CatPlace, "route:"+si.Stage)
		r.tr.SetAttrInt(ev, "seq", ri.Seq)
		r.tr.SetAttrInt(ev, "node", int64(pool[idx].Node))
		r.tr.SetAttrInt(ev, "gpu", int64(pool[idx].GPU))
		r.tr.SetAttrInt(ev, "queue", int64(r.cstates[idx].QueueDepth))
	}
	return idx, true
}

// sessionBias resolves one session pin: the pinned worker index and its
// staleness-decayed affinity (1 just after use, linear to 0 at affinityTTL).
// Fully decayed and crash-blacklisted pins are dropped; absent pins return
// (-1, 0).
func (r *Router) sessionBias(k sessionKey) (int, float64) {
	pin, ok := r.sessions[k]
	if !ok {
		return -1, 0
	}
	now := r.c.Engine.Now()
	if r.downUntil[pin.w] > now {
		delete(r.sessions, k)
		r.Stats.AffinityInvalidations++
		return -1, 0
	}
	age := now - pin.at
	if age >= affinityTTL {
		delete(r.sessions, k)
		r.Stats.AffinityInvalidations++
		return -1, 0
	}
	return pin.w, 1 - float64(age)/float64(affinityTTL)
}
