package cluster

import (
	"math/rand"
	"time"

	"grouter/internal/dataplane"
	"grouter/internal/fabric"
	"grouter/internal/harvest"
	"grouter/internal/obs"
	"grouter/internal/scheduler"
	"grouter/internal/sim"
	"grouter/internal/workflow"
)

// Request fast path. The old per-request path rebuilt the request's entire
// working set per call — future/refcount maps keyed by StageInst, a closure
// and formatted process name per stage instance, and a seeded RNG even for
// workflows with no probabilistic stages. At replay scale (10^5..10^6
// requests) that allocation traffic dominated. The plan below precomputes
// everything request-invariant once per app (instance order, input wiring,
// consumer refcounts, edge kinds, process/function names, per-batch
// latencies), and per-request state lives in pooled reqState values whose
// activations are handed to the engine as sim.Runner values — a request
// allocates nothing on the steady path. Event ordering is identical to the
// original per-request code, so simulations remain byte-for-byte
// deterministic across the rewrite.

// planInput wires one input edge of a stage instance: the producer's index
// in invokePlan.insts plus the edge classification for latency attribution.
type planInput struct {
	prod int
	kind EdgeKind
}

// planInst is the request-invariant description of one stage instance.
type planInst struct {
	si    scheduler.StageInst
	stage *workflow.Stage
	// name is the engine process name; fn the data-plane function name.
	name string
	fn   string
	// inputs lists producer edges; the instance's resolved input refs live
	// at reqState.inRefs[inOff : inOff+len(inputs)].
	inputs []planInput
	inOff  int
	// refs is how many consumer instances read this instance's output.
	refs int
	// ingress marks a GPU source stage that fetches its request payload from
	// host memory.
	ingress bool
	// hasOut marks an instance whose output is published to the data plane.
	hasOut  bool
	putKind EdgeKind
	// pool is the instance's replica pool.
	pool *poolState
}

// instCost caches the per-batch model costs of one instance.
type instCost struct {
	lat      time.Duration
	slack    time.Duration // FnCtx.Slack: the stage's SLO less lat
	inBytes  int64
	outBytes int64
}

// invokePlan is the request-invariant execution plan of one app.
type invokePlan struct {
	insts []planInst
	// inTotal is the summed input count (size of reqState.inRefs).
	inTotal int
	// hasProb marks a workflow with at least one probabilistic stage; only
	// those need the per-request seeded RNG (a skip draw against probability
	// one can never skip, so prob-free workflows elide the RNG entirely).
	hasProb bool
	// ingressFn is the shared data-plane name for ingress Puts.
	ingressFn string
	// costs caches per-batch instance costs, keyed by batch size.
	costs map[int][]instCost
}

// plan returns the app's execution plan, building it on first use.
func (a *App) plan() *invokePlan {
	if a.reqPlan != nil {
		return a.reqPlan
	}
	pl := &invokePlan{
		ingressFn: a.WF.Name + "/ingress",
		costs:     map[int][]instCost{},
	}
	idx := map[scheduler.StageInst]int{}
	for _, s := range a.WF.Stages {
		for r := 0; r < s.ReplicaCount(); r++ {
			si := scheduler.StageInst{Stage: s.Name, Replica: r}
			idx[si] = len(pl.insts)
			pl.insts = append(pl.insts, planInst{
				si:      si,
				stage:   s,
				name:    a.WF.Name + "/" + si.String(),
				fn:      a.WF.Name + "/" + s.Name,
				ingress: len(s.Deps) == 0 && s.IsGPU(),
				hasOut:  len(a.WF.Consumers(s)) > 0,
				putKind: a.putKind(s),
				pool:    a.pool(si),
			})
			if s.ProbOrOne() < 1 {
				pl.hasProb = true
			}
		}
	}
	for i := range pl.insts {
		pi := &pl.insts[i]
		pi.inOff = pl.inTotal
		for _, in := range a.inputsOf(pi.stage, pi.si.Replica) {
			j := idx[in.prod]
			pi.inputs = append(pi.inputs, planInput{prod: j, kind: in.kind})
			pl.insts[j].refs++
			pl.inTotal++
		}
	}
	a.reqPlan = pl
	return pl
}

// costsFor returns (caching) the per-instance model costs at one batch size.
func (pl *invokePlan) costsFor(a *App, batch int) []instCost {
	if c, ok := pl.costs[batch]; ok {
		return c
	}
	c := make([]instCost, len(pl.insts))
	for i := range pl.insts {
		s := pl.insts[i].stage
		lat := s.Model.Latency(a.C.Class, batch)
		c[i] = instCost{
			lat:      lat,
			slack:    harvest.Slack(a.WF.StageSLO(s, a.C.Class, batch), lat),
			inBytes:  s.Model.InBytes(batch),
			outBytes: s.Model.OutBytes(batch),
		}
	}
	pl.costs[batch] = c
	return c
}

// outSlot is one instance's output: a reusable signal plus the resolved ref
// and the remaining consumer count for Free.
type outSlot struct {
	sig  sim.Signal
	val  dataplane.DataRef
	refs int
}

// activation is one stage instance's execution of one request. It implements
// sim.Runner so spawning it allocates nothing, and embeds the FnCtx values
// passed to the data plane (valid for the request's duration; the state pool
// recycles them only after every process of the request has finished).
type activation struct {
	st  *reqState
	idx int32
	// queued marks an activation parked at the top waiting for its compute
	// slot: the wake that runs it again hands it the slot, so Run goes
	// straight to serve.
	queued bool
	// member is the pool member serving the activation, from its pick until
	// poolDone retires it.
	member *poolMember
	ctx    dataplane.FnCtx
	ictx   dataplane.FnCtx
}

// reqState is the pooled per-request working state.
type reqState struct {
	app   *App
	seq   int64
	batch int
	qos   QoS
	start time.Duration
	// deferWait is the request's cumulative admission-deferral time; the
	// breakdown charges it to CatDeferWait so bucket sums still tile E2E.
	deferWait time.Duration
	remaining int
	// done fires at request completion; nil when the submitter doesn't wait
	// (trace replays), eliding the per-request signal.
	done *sim.Signal
	// rng draws the probabilistic stages' skips. It is built on the state's
	// first launch and reseeded at every later one; it stays nil when the
	// workflow has no probabilistic stage.
	rng     *rand.Rand
	reqSpan obs.SpanID
	costs   []instCost

	xferGPU, xferHost, compute time.Duration

	slots  []outSlot
	acts   []activation
	inRefs []dataplane.DataRef
	// insts holds breakdown working state; nil while breakdown is disabled.
	insts []instTrace
}

// takeReqState pops a recycled request state or builds a fresh one.
func (a *App) takeReqState() *reqState {
	if n := len(a.freeStates); n > 0 {
		st := a.freeStates[n-1]
		a.freeStates[n-1] = nil
		a.freeStates = a.freeStates[:n-1]
		return st
	}
	pl := a.plan()
	st := &reqState{
		app:    a,
		slots:  make([]outSlot, len(pl.insts)),
		acts:   make([]activation, len(pl.insts)),
		inRefs: make([]dataplane.DataRef, pl.inTotal),
	}
	for i := range st.acts {
		st.acts[i].st = st
		st.acts[i].idx = int32(i)
	}
	return st
}

// releaseReqState rearms the state and returns it to the pool. It must only
// run once every process of the request has finished with it — i.e. from the
// last instance, after stats are recorded.
func (a *App) releaseReqState(st *reqState) {
	for i := range st.slots {
		st.slots[i].sig.Reset()
		st.slots[i].val = dataplane.DataRef{}
	}
	st.done = nil
	st.costs = nil
	st.qos = QoSLow
	st.deferWait = 0
	st.xferGPU, st.xferHost, st.compute = 0, 0, 0
	a.freeStates = append(a.freeStates, st)
}

// startReq admits one request described by the typed descriptor — the
// single entry point every submission (Submit, trace replays, sharded
// replays, throughput loops) funnels into. The descriptor is trusted here;
// Submit validates, replays assume well-formed requests. done may be nil
// when no submitter waits on completion. With an Admit hook installed the
// request passes
// through SLO admission control first; the return reports a synchronous
// shed (Submit surfaces it as ErrSLOShed). Without a hook the request
// launches immediately — the pre-admission fast path, byte-identical.
func (a *App) startReq(req Request, done *sim.Signal) bool {
	if a.Admit == nil {
		a.launchReq(req, done, a.C.Engine.Now(), 0)
		return false
	}
	return a.admitReq(req, done, a.C.Engine.Now(), 0)
}

// launchReq launches one admitted request. t0 is its submission instant and
// waited its cumulative admission-deferral time (zero on the un-gated path);
// the request's end-to-end latency spans t0 to completion, so deferral is
// part of the measured latency and tiles the breakdown as CatDeferWait.
func (a *App) launchReq(req Request, done *sim.Signal, t0, waited time.Duration) {
	batch := req.Batch
	if batch <= 0 {
		batch = a.Batch
	}
	qos := req.QoS
	c := a.C
	pl := a.plan()
	c.seq++
	seq := c.seq
	st := a.takeReqState()
	st.seq = seq
	st.batch = batch
	st.qos = qos
	st.start = t0
	st.deferWait = waited
	st.done = done
	st.remaining = len(pl.insts)
	st.costs = pl.costsFor(a, batch)
	if pl.hasProb {
		if st.rng == nil {
			st.rng = rand.New(rand.NewSource(a.seedBase + seq))
		} else {
			st.rng.Seed(a.seedBase + seq)
		}
	}

	tr := obs.TracerOf(c.Engine)
	st.reqSpan = tr.BeginOn(obs.ReqTrack(seq), obs.CatRequest, a.WF.Name)
	tr.SetAttrInt(st.reqSpan, "seq", seq)
	tr.SetAttrInt(st.reqSpan, "batch", int64(batch))
	if a.Breakdown != nil {
		if st.insts == nil {
			st.insts = make([]instTrace, len(pl.insts))
			for i := range st.insts {
				st.insts[i].buckets = obs.NewBuckets()
			}
		}
		for i := range st.insts {
			it := &st.insts[i]
			it.buckets.Reset()
			it.readyAt, it.doneAt = 0, 0
			it.crit, it.hasCrit = 0, false
		}
	}

	ri := RouteInfo{Seq: seq, QoS: qos, Session: req.Session}
	for i := range pl.insts {
		pi := &pl.insts[i]
		st.slots[i].refs = pi.refs
		ac := &st.acts[i]
		ac.member = a.instanceFor(pi.pool, ri)
		c.Engine.GoRun(pi.name, ac)
	}
}

// Run executes one stage instance for one request. It parks at the top
// while it waits for an input (Signal.Await) or for its compute slot
// (Resource.TryAcquirePri), so a waiting instance holds no goroutine, and
// each wake runs it again from the top: begin re-reads the inputs that have
// already resolved, and a queued activation goes straight to serve. Every
// engine interaction happens at the same (time, seq) as when the instance
// held its goroutine through both waits.
func (ac *activation) Run(p *sim.Proc) {
	if ac.queued {
		ac.queued = false
	} else if !ac.begin(p) {
		return
	}
	ac.finish(p, ac.serve(p))
}

// begin runs the instance up to its compute slot: it waits for every input,
// draws the skip, publishes the ingress payload and queues for the slot. It
// reports whether the instance holds the slot; false means it parked at the
// top or was skipped and has finished.
func (ac *activation) begin(p *sim.Proc) bool {
	st := ac.st
	a := st.app
	c := a.C
	pl := a.reqPlan
	pi := &pl.insts[ac.idx]
	s := pi.stage

	// Wait for every input future; the resolved refs land in this
	// instance's window of the flat scratch buffer. After a wake the inputs
	// before the one it waited on have fired, so their Awaits return true.
	inputs := st.inRefs[pi.inOff : pi.inOff+len(pi.inputs)]
	for k := range pi.inputs {
		sl := &st.slots[pi.inputs[k].prod]
		if !sl.sig.Await(p) {
			return false
		}
		inputs[k] = sl.val
	}
	var it *instTrace
	if st.insts != nil {
		// All input futures have resolved, so every producer's doneAt is
		// final; the one that resolved last is this instance's critical
		// predecessor.
		it = &st.insts[ac.idx]
		it.readyAt = p.Now()
		for _, in := range pi.inputs {
			if !it.hasCrit || st.insts[in.prod].doneAt > st.insts[it.crit].doneAt {
				it.crit, it.hasCrit = in.prod, true
			}
		}
		obs.UseBuckets(p, it.buckets)
	}
	skipped := false
	if pl.hasProb {
		skipped = st.rng.Float64() >= s.ProbOrOne()
	}

	// GPU source stages fetch their request payload from host memory (I/O
	// lands in the host-side store): the gFn-host ingress pattern of §2.2.
	// An ingress instance has no inputs, and its consumers read its output
	// slot only once it fires, so until then the slot holds the payload's
	// ref for serve.
	if pi.ingress && !skipped {
		ac.ictx = dataplane.FnCtx{
			Fn: pl.ingressFn, Workflow: a.WF.Name,
			Loc:         fabric.Location{Node: ac.member.loc.Node, GPU: fabric.HostGPU},
			ConsumerSeq: st.seq,
		}
		ref, err := c.Plane.Put(p, &ac.ictx, st.costs[ac.idx].inBytes)
		if err != nil {
			panic(err)
		}
		st.slots[ac.idx].val = ref
	}
	ac.ctx = dataplane.FnCtx{
		Fn:          pi.fn,
		Workflow:    a.WF.Name,
		Loc:         ac.member.loc,
		Slack:       st.costs[ac.idx].slack,
		ConsumerSeq: st.seq,
	}
	if skipped {
		ac.finish(p, dataplane.DataRef{})
		return false
	}

	// A function instance occupies its compute slot for its whole
	// activation — pulling inputs, computing, and publishing its output —
	// matching time-multiplexed serverless GPU sharing, where a container's
	// transfers run within its execution turn. Input futures are awaited
	// *before* acquisition, so there is no hold-and-wait cycle.
	if it != nil {
		it.queuedAt = p.Now()
	}
	if !c.resourceAt(ac.member.loc).TryAcquirePri(p, int32(st.qos)) {
		ac.queued = true
		return false
	}
	return true
}

// serve runs the instance on its compute slot: it pulls the ingress payload
// and the inputs, computes, publishes the output, releases the slot and
// returns the output's ref.
func (ac *activation) serve(p *sim.Proc) dataplane.DataRef {
	st := ac.st
	a := st.app
	c := a.C
	pi := &a.reqPlan.insts[ac.idx]
	cost := &st.costs[ac.idx]
	heldAt := p.Now()
	if st.insts != nil {
		obs.Account(p, obs.CatQueue, heldAt-st.insts[ac.idx].queuedAt)
	}
	a.ensureWarm(p, pi.si, ac.member, pi.stage.Model.WeightsBytes)
	obs.Account(p, obs.CatSetup, p.Now()-heldAt)
	if ingress := st.slots[ac.idx].val; ingress.Bytes > 0 {
		t0 := p.Now()
		if err := c.Plane.Get(p, &ac.ctx, ingress); err != nil {
			panic(err)
		}
		st.xferHost += p.Now() - t0
		c.Plane.Free(ingress)
	}
	inputs := st.inRefs[pi.inOff : pi.inOff+len(pi.inputs)]
	for k := range pi.inputs {
		if inputs[k].Bytes == 0 {
			continue
		}
		t0 := p.Now()
		if err := c.Plane.Get(p, &ac.ctx, inputs[k]); err != nil {
			panic(err)
		}
		dt := p.Now() - t0
		switch pi.inputs[k].kind {
		case EdgeGPUGPU:
			st.xferGPU += dt
		case EdgeGPUHost:
			st.xferHost += dt
		}
	}
	tr := obs.TracerOf(c.Engine)
	cs := tr.BeginOn(obs.ReqTrack(st.seq), obs.CatCompute, pi.stage.Name)
	p.Sleep(cost.lat)
	tr.End(cs)
	obs.Account(p, obs.CatCompute, cost.lat)
	st.compute += cost.lat
	out := dataplane.DataRef{}
	if pi.hasOut {
		t0 := p.Now()
		ref, err := c.Plane.Put(p, &ac.ctx, cost.outBytes)
		if err != nil {
			panic(err)
		}
		dt := p.Now() - t0
		switch pi.putKind {
		case EdgeGPUGPU:
			st.xferGPU += dt
		case EdgeGPUHost:
			st.xferHost += dt
		}
		out = ref
	}
	c.resourceAt(ac.member.loc).Release()
	if loc := ac.member.loc; c.OnGPUService != nil && !loc.IsHost() {
		c.OnGPUService(loc.Node, loc.GPU, p.Now()-heldAt)
	}
	return out
}

// finish retires the instance, served or skipped: it lets go of its pool
// member and its inputs, resolves its output future with out and, as the
// request's last instance, records the request and recycles its state.
func (ac *activation) finish(p *sim.Proc, out dataplane.DataRef) {
	st := ac.st
	a := st.app
	c := a.C
	pi := &a.reqPlan.insts[ac.idx]
	// Retire the pool pick (in-flight accounting for cordon/drain) whether
	// the activation ran or was probabilistically skipped. The retirement may
	// tear the member down and free it for reuse, so the pooled activation
	// lets go of it.
	a.poolDone(pi.pool, ac.member)
	ac.member = nil
	// Release inputs whether consumed or skipped.
	inputs := st.inRefs[pi.inOff : pi.inOff+len(pi.inputs)]
	for k := range pi.inputs {
		sl := &st.slots[pi.inputs[k].prod]
		sl.refs--
		if sl.refs == 0 && inputs[k].Bytes > 0 {
			c.Plane.Free(inputs[k])
		}
	}
	if st.insts != nil {
		// doneAt must be final before the future resolves: a consumer woken
		// by the fire reads it when picking its critical predecessor.
		st.insts[ac.idx].doneAt = p.Now()
		obs.UseBuckets(p, nil)
	}
	sl := &st.slots[ac.idx]
	sl.val = out
	sl.sig.Fire()
	st.remaining--
	if st.remaining == 0 {
		end := p.Now()
		a.E2EClass[qosIndex(st.qos)].Add(end - st.start)
		a.XferGPU.Add(st.xferGPU)
		a.XferHost.Add(st.xferHost)
		a.Compute.Add(st.compute)
		a.Completed++
		if a.OnComplete != nil {
			a.OnComplete(st.seq, end, end-st.start)
		}
		obs.TracerOf(c.Engine).End(st.reqSpan)
		if st.insts != nil {
			a.Breakdown.record(st, int(ac.idx), end)
		}
		if st.done != nil {
			st.done.Fire()
		}
		a.releaseReqState(st)
	}
}
