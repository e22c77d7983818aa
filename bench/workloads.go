package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"grouter/internal/autoscale"
	"grouter/internal/cluster"
	"grouter/internal/core"
	"grouter/internal/dataplane"
	"grouter/internal/fabric"
	"grouter/internal/metrics"
	"grouter/internal/router"
	"grouter/internal/scheduler"
	"grouter/internal/sim"
	"grouter/internal/topology"
	"grouter/internal/trace"
	"grouter/internal/workflow"
)

// The modelled system is the same for every -seed: only the generated inputs
// (arrival traces, exchange shapes) change with it.
const (
	// quantum is the replay admission window, as in ext-scale and ext-slo.
	quantum = 10 * time.Millisecond
	// systemSeed is core.Config.Seed for every plane.
	systemSeed = 42
	// fleetShards is the engine shard count of fleet-bursty (= nproc of the
	// 2-core box the sizes were chosen on).
	fleetShards = 2
)

// workload is one traffic mix the benchmark runs. n is the full-size request
// (or exchange) count; the inputs always hold exactly n items, whatever the
// seed. BENCHMARK.json and README.md give the reason for each workload.
type workload struct {
	name string
	n    int
	// limit describes the latency limit behind slo_attain and goodput_rps.
	limit string
	setup func(o runOpts) instance
}

// runOpts sizes and seeds one instance.
type runOpts struct {
	seed   int64
	n      int
	shards int  // fleet-bursty engine shards
	traced bool // install the observers of the traced run
}

// outcome is what one run produced, in virtual time.
type outcome struct {
	sent, completed, shed, errored int
	lats                           []*metrics.Latency // completed-request latencies, per pod
	met                            int                // completions within the latency limit
	span                           time.Duration      // first arrival to last completion
	gpuSec                         float64
}

// instance is one built system with its generated inputs, ready to run once.
type instance interface {
	// run drives the workload until the simulation drains.
	run() outcome
	// layers adds the per-layer counters of the finished run to l.
	layers(l *layerStats)
	// check returns the correctness checks the finished run failed.
	check() []string
	// genTime is the host time spent generating the inputs.
	genTime() time.Duration
	close()
}

var workloads = []workload{
	{
		name: "replay-sporadic",
		// 600k rather than 300k: p99.9 here is set by rare scale-in/scale-out
		// churn, and at 300k it differed by 15% between seeds (6% at 600k).
		n:     600_000,
		limit: "100 ms",
		setup: func(o runOpts) instance {
			return newReplay(o, trace.Sporadic, 400, [2]time.Duration{100 * time.Millisecond, 100 * time.Millisecond}, podCfg{}, nil)
		},
	},
	{
		name:  "routed-slo",
		n:     300_000,
		limit: "25 ms high class, 150 ms low class",
		setup: func(o runOpts) instance {
			rc := router.DefaultConfig()
			rc.SLO = router.SLOConfig{
				High: router.SLOClass{Budget: 25 * time.Millisecond, MaxDelay: 4 * time.Millisecond},
				Low:  router.SLOClass{Budget: 150 * time.Millisecond, MaxDelay: 20 * time.Millisecond},
			}
			rc.Weights.Session = 2
			cfg := podCfg{scaler: autoscale.SLOAware{ScaleIn: true}, router: &rc}
			return newReplay(o, trace.Periodic, 500, [2]time.Duration{150 * time.Millisecond, 25 * time.Millisecond}, cfg,
				func(i int) cluster.Request {
					req := cluster.Request{Session: int64(i%64) + 1}
					if (i+1)%5 == 0 {
						req.QoS = cluster.QoSHigh
					}
					return req
				})
		},
	},
	{
		name:  "datapass-fanout",
		n:     150_000,
		limit: "50 ms",
		setup: newFanout,
	},
	{
		name:  "fleet-bursty",
		n:     300_000,
		limit: "150 ms",
		setup: newFleet,
	},
}

// workloadByName returns the named workload, or nil.
func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// arrivalsFor generates a trace long enough to hold n arrivals and keeps the
// first n, so the request count is the same for every seed.
func arrivalsFor(p trace.Pattern, rps float64, n int, seed int64) []time.Duration {
	dur := time.Duration(1.25 * float64(n) / rps * float64(time.Second))
	for {
		if a := trace.Generate(trace.Spec{Pattern: p, Duration: dur, MeanRPS: rps, Seed: seed}); len(a) >= n {
			return a[:n]
		}
		dur = dur * 3 / 2
	}
}

// Shape of trace.Bursty's defaults: bursts at 4x the mean rate over a 0.2x
// baseline, burst and gap lengths exponential with means 5 s and 18.75 s, so
// the long-run mean rate is 1x.
const (
	burstFactor = 4.0
	burstBase   = 0.2
	burstSecs   = 5.0
)

// balancedBursty draws n arrivals shaped like trace.Bursty at mean rate rps,
// except that the burst and gap lengths are rescaled to total exactly their
// expected shares of n/rps seconds. trace.Bursty's own mean rate over 300k
// arrivals differs by ±25% between seeds, because burst lengths are
// exponential; every rate metric follows it. Stretching the trace to fix the
// mean rate changes the burst peak instead, and p99 then differs by ±35%.
// Fixing the total burst time keeps both the mean rate and the peak.
func balancedBursty(rps float64, n int, seed int64) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	total := float64(n) / rps
	gapSecs := burstSecs * (burstFactor - 1) / (1 - burstBase)
	cycles := int(math.Max(1, math.Round(total/(burstSecs+gapSecs))))
	type segment struct{ secs, rate float64 }
	segs := make([]segment, 0, 2*cycles)
	var gaps, bursts float64
	for k := 0; k < cycles; k++ {
		g, b := rng.ExpFloat64()*gapSecs, rng.ExpFloat64()*burstSecs
		segs = append(segs, segment{g, burstBase * rps}, segment{b, burstFactor * rps})
		gaps += g
		bursts += b
	}
	burstTotal := total * burstSecs / (burstSecs + gapSecs)
	for i := range segs {
		if i%2 == 0 {
			segs[i].secs *= (total - burstTotal) / gaps
		} else {
			segs[i].secs *= burstTotal / bursts
		}
	}
	// n arrivals of this piecewise-constant-rate Poisson process, given their
	// count: sorted uniform points of its cumulative intensity, mapped back
	// to time.
	var mass float64
	for _, s := range segs {
		mass += s.secs * s.rate
	}
	us := make([]float64, n)
	for i := range us {
		us[i] = rng.Float64() * mass
	}
	sort.Float64s(us)
	a := make([]time.Duration, n)
	k, start, cum := 0, 0.0, 0.0
	for i, u := range us {
		for k < len(segs)-1 && u >= cum+segs[k].secs*segs[k].rate {
			cum += segs[k].secs * segs[k].rate
			start += segs[k].secs
			k++
		}
		a[i] = time.Duration((start + (u-cum)/segs[k].rate) * float64(time.Second))
	}
	return a
}

// podCfg is what differs between the serving pods of the cluster workloads.
type podCfg struct {
	scaler autoscale.Autoscaler // nil keeps DefaultElastic's Reactive scaler
	router *router.Config       // nil runs without a front-door router
}

// pod is one deployed serving cluster: the driving workflow at batch 1 on a
// 2-node DGX-V100 with the full GROUTER plane and elastic pools.
type pod struct {
	app   *cluster.App
	plane *core.Plane
	ep    *cluster.ElasticPools
	rt    *router.Router
	pr    *probe // nil outside the traced run

	// lat holds completed-request latencies timed from the due time, by QoS
	// class; last is the latest completion and unmatched counts completions
	// not matched to an arrival.
	lat       [2]metrics.Latency
	last      time.Duration
	unmatched int

	// gpuLeft counts down the GPU compute-slot releases left until the pod's
	// last request completes; gpuSec is the elastic GPU-seconds read then.
	gpuLeft int
	gpuSec  float64
}

// timeFromDue installs the completion hook that times each request from when
// it was due in the trace a, so the admission-window wait counts. arrivalOf
// maps a completed request (seq, submission instant) to its index in a, or
// -1; class gives an arrival's QoS class.
func (p *pod) timeFromDue(a []time.Duration, class func(int) cluster.QoS, arrivalOf func(seq int64, t0 time.Duration) int) {
	next := p.app.OnComplete
	p.app.OnComplete = func(seq int64, at, e2e time.Duration) {
		if i := arrivalOf(seq, at-e2e); i >= 0 {
			p.lat[class(i)].Add(at - a[i])
		} else {
			p.unmatched++
		}
		p.last = at
		if next != nil {
			next(seq, at, e2e)
		}
	}
}

func deployPod(e *sim.Engine, cfg podCfg, pr *probe) *pod {
	p := &pod{pr: pr}
	c := cluster.New(e, topology.DGXV100(), 2, func(f *fabric.Fabric) dataplane.Plane {
		pc := core.FullConfig()
		pc.Seed = systemSeed
		p.plane = core.New(f, pc)
		if pr != nil {
			return &tracedPlane{Plane: p.plane, pr: pr}
		}
		return p.plane
	})
	p.app = c.Deploy(workflow.Driving(), 1, scheduler.Options{Node: 0, SplitAcrossNodes: true})
	ec := cluster.DefaultElastic()
	if cfg.scaler != nil {
		ec.Scaler = cfg.scaler
	}
	if pr != nil {
		ec.Scaler = timedScaler{Autoscaler: ec.Scaler, pr: pr}
	}
	p.ep = p.app.EnableElastic(ec)
	if cfg.router != nil {
		p.rt = router.New(p.app, *cfg.router)
	}
	if pr != nil {
		pr.attach(p.app)
	}
	return p
}

// gpuReleasesPerRequest is how many GPU compute slots one request of the
// app holds and releases: one per GPU stage instance. Workflows with
// probabilistic stages have no fixed count.
func gpuReleasesPerRequest(a *cluster.App) int {
	n := 0
	for _, s := range a.WF.Stages {
		if s.ProbOrOne() < 1 {
			panic("bench: probabilistic stage " + s.Name)
		}
		if s.IsGPU() {
			n += s.ReplicaCount()
		}
	}
	return n
}

// readGPUSecondsAtLastRequest arms the countdown that reads the pod's
// GPU-seconds when its last request (of requests) releases its last GPU
// slot. A fleet's shard engines keep ticking idle pods' elastic controllers
// until the slowest pod on the shard drains, so GPU-seconds read after the
// run would depend on the shard layout.
func (p *pod) readGPUSecondsAtLastRequest(requests int) {
	p.gpuLeft = requests * gpuReleasesPerRequest(p.app)
	inner := p.app.C.OnGPUService
	p.app.C.OnGPUService = func(node, gpu int, held time.Duration) {
		if inner != nil {
			inner(node, gpu, held)
		}
		if p.gpuLeft--; p.gpuLeft == 0 {
			p.gpuSec = p.ep.GPUSeconds()
		}
	}
}

// admittedAt is when a replay admits the arrival due at a: at the close of
// its admission window.
func admittedAt(a time.Duration) time.Duration { return (a/quantum + 1) * quantum }

// admitLag is the mean wait from an arrival's due time to its admission: how
// late the open-loop generator runs.
func admitLag(arrivals []time.Duration) time.Duration {
	if len(arrivals) == 0 {
		return 0
	}
	var sum time.Duration
	for _, a := range arrivals {
		sum += admittedAt(a) - a
	}
	return sum / time.Duration(len(arrivals))
}

// within counts the samples of l at or below limit.
func within(l *metrics.Latency, limit time.Duration) int {
	return int(math.Round(l.FractionUnder(limit) * float64(l.Count())))
}

// podChecks verifies the conservation laws of a drained pod: every sent
// request completed or was shed, every completion was matched to its arrival,
// the router's shed decisions match the app's shed count, and the plane's
// stores hold no live bytes.
func podChecks(pods []*pod, sent []int) []string {
	var bad []string
	for i, p := range pods {
		a := p.app
		if a.Completed+a.Shed != sent[i] {
			bad = append(bad, fmt.Sprintf("requests-balance: pod %d sent %d, completed %d + shed %d", i, sent[i], a.Completed, a.Shed))
		}
		if n := p.lat[0].Count() + p.lat[1].Count(); n != a.Completed || p.unmatched != 0 {
			bad = append(bad, fmt.Sprintf("due-time: pod %d timed %d of %d completions, %d not matched to an arrival", i, n, a.Completed, p.unmatched))
		}
		if p.rt != nil {
			if s := p.rt.Stats.ShedLow + p.rt.Stats.ShedHigh; s != int64(a.Shed) {
				bad = append(bad, fmt.Sprintf("requests-balance: pod %d router shed %d, app shed %d", i, s, a.Shed))
			}
		}
		for n := 0; n < a.C.Fabric.NumNodes(); n++ {
			if u := p.plane.Store(n).TotalUsed(); u != 0 {
				bad = append(bad, fmt.Sprintf("memory-balance: pod %d node %d store holds %d bytes at drain", i, n, u))
			}
		}
		if p.pr != nil {
			bad = append(bad, p.pr.check(i)...)
		}
	}
	return bad
}

// podsOutcome folds the pods' completions into one outcome. lim is the
// latency limit per QoS class.
func podsOutcome(pods []*pod, sent int, lim [2]time.Duration) outcome {
	o := outcome{sent: sent}
	for _, p := range pods {
		o.completed += p.app.Completed
		o.shed += p.app.Shed
		for c := range p.lat {
			o.met += within(&p.lat[c], lim[c])
			o.lats = append(o.lats, &p.lat[c])
		}
		o.gpuSec += p.gpuSec
		if p.last > o.span {
			o.span = p.last
		}
	}
	return o
}

// replayRun is an open-loop replay through one cluster (replay-sporadic,
// routed-slo).
type replayRun struct {
	arrivals []time.Duration
	gen      time.Duration
	lim      [2]time.Duration
	e        *sim.Engine
	pod      *pod
	spec     cluster.ReplaySpec
}

func newReplay(o runOpts, pat trace.Pattern, rps float64, lim [2]time.Duration, cfg podCfg, reqAt func(int) cluster.Request) *replayRun {
	r := &replayRun{lim: lim, e: sim.NewEngine()}
	t0 := time.Now()
	r.arrivals = arrivalsFor(pat, rps, o.n, o.seed)
	r.gen = time.Since(t0)
	var pr *probe
	if o.traced {
		pr = newProbe(0, r.e, spanHorizon(r.arrivals), spanRequests)
	}
	p := deployPod(r.e, cfg, pr)
	r.pod = p
	r.spec = cluster.ReplaySpec{Quantum: quantum, RequestAt: reqAt}
	a := r.arrivals
	class := func(int) cluster.QoS { return cluster.QoSLow }
	if reqAt != nil {
		class = func(i int) cluster.QoS { return reqAt(i).QoS }
	}
	if p.rt == nil {
		// Without admission control requests launch in arrival order, so
		// request seq k is arrival k-1.
		p.timeFromDue(a, class, func(seq int64, t0 time.Duration) int {
			if i := int(seq - 1); i < len(a) && admittedAt(a[i]) == t0 {
				return i
			}
			return -1
		})
		return r
	}
	// Deferred requests launch out of arrival order. A request's session,
	// seen by the router at launch, picks it out among the arrivals of its
	// admission window: sessions rotate over more arrivals than one window
	// holds.
	var sessions []int64
	route := p.app.Route
	p.app.Route = func(si scheduler.StageInst, ri cluster.RouteInfo, pool []fabric.Location) (int, bool) {
		for int64(len(sessions)) <= ri.Seq {
			sessions = append(sessions, 0)
		}
		sessions[ri.Seq] = ri.Session
		return route(si, ri, pool)
	}
	p.timeFromDue(a, class, func(seq int64, t0 time.Duration) int {
		if seq >= int64(len(sessions)) {
			return -1
		}
		match := -1
		for i := sort.Search(len(a), func(i int) bool { return admittedAt(a[i]) >= t0 }); i < len(a) && admittedAt(a[i]) == t0; i++ {
			if reqAt(i).Session == sessions[seq] {
				if match >= 0 {
					return -1 // ambiguous
				}
				match = i
			}
		}
		return match
	})
	return r
}

func (r *replayRun) run() outcome {
	if _, err := r.pod.app.Replay(r.arrivals, r.spec); err != nil {
		panic(err) // a non-nil trace and a positive quantum cannot be rejected
	}
	// The engine drains at the last request event, so this is the pod's
	// GPU-seconds at its last request.
	r.pod.gpuSec = r.pod.ep.GPUSeconds()
	return podsOutcome([]*pod{r.pod}, len(r.arrivals), r.lim)
}

func (r *replayRun) layers(l *layerStats) {
	l.events += r.e.Executed()
	l.admitLag = admitLag(r.arrivals)
	l.addPod(r.pod)
}

func (r *replayRun) check() []string {
	return podChecks([]*pod{r.pod}, []int{len(r.arrivals)})
}

func (r *replayRun) genTime() time.Duration { return r.gen }

func (r *replayRun) close() { r.e.Close() }

// fleetRouteLatency is the fleet front door's feeder-to-pod delay (and the
// shard lookahead).
const fleetRouteLatency = 10 * time.Millisecond

// fleetRun is the bursty replay over cluster.ShardedReplay's 8-pod fleet.
// The pods are built inside ShardedReplay, on its shard engines, so their
// construction is part of the timed run.
type fleetRun struct {
	arrivals []time.Duration
	gen      time.Duration
	shards   int
	traced   bool
	pods     []*pod
	util     []sim.ShardUtil
}

func newFleet(o runOpts) instance {
	r := &fleetRun{shards: o.shards, traced: o.traced}
	t0 := time.Now()
	r.arrivals = balancedBursty(500, o.n, o.seed)
	r.gen = time.Since(t0)
	return r
}

// podRequests splits the trace the way ShardedReplay's front door does:
// request i goes to pod i mod pods.
func podRequests(total, pods int) []int {
	per := make([]int, pods)
	for i := 0; i < total; i++ {
		per[i%pods]++
	}
	return per
}

func (r *fleetRun) run() outcome {
	pods := cluster.DefaultPods
	per := podRequests(len(r.arrivals), pods)
	horizon := spanHorizon(r.arrivals)
	a := r.arrivals
	low := func(int) cluster.QoS { return cluster.QoSLow }
	opts := cluster.ShardedOptions{Pods: pods, Shards: r.shards, Quantum: quantum, RouteLatency: fleetRouteLatency}
	st := cluster.ShardedReplay(a, opts, func(j int, e *sim.Engine) *cluster.App {
		var pr *probe
		if r.traced {
			pr = newProbe(j, e, horizon, spanRequests/int64(pods))
		}
		p := deployPod(e, podCfg{}, pr)
		p.readGPUSecondsAtLastRequest(per[j])
		// Pod j's k-th request (seq k) is arrival j + pods*(k-1), admitted
		// one route latency after its window closes.
		arrivalOf := func(seq int64, t0 time.Duration) int {
			if i := j + pods*int(seq-1); i < len(a) && admittedAt(a[i])+fleetRouteLatency == t0 {
				return i
			}
			return -1
		}
		// ShardedReplay installs its own OnComplete on the pod after build
		// returns; a daemon event at time zero chains ours in front of it
		// once the run starts.
		e.ScheduleDaemon(0, func() { p.timeFromDue(a, low, arrivalOf) })
		r.pods = append(r.pods, p)
		return p.app
	})
	r.util = st.Util
	return podsOutcome(r.pods, len(a), [2]time.Duration{150 * time.Millisecond, 150 * time.Millisecond})
}

func (r *fleetRun) layers(l *layerStats) {
	for _, p := range r.pods {
		l.addPod(p)
	}
	l.shards = r.util
	for _, u := range r.util {
		l.events += u.Events
	}
	l.admitLag = admitLag(r.arrivals)
}

func (r *fleetRun) check() []string {
	return podChecks(r.pods, podRequests(len(r.arrivals), cluster.DefaultPods))
}

func (r *fleetRun) genTime() time.Duration { return r.gen }

func (r *fleetRun) close() {}

// exchange is one data-passing exchange of datapass-fanout: a producer Puts
// bytes, holds the object, then every consumer Gets it concurrently.
type exchange struct {
	at    time.Duration
	bytes int64
	hold  time.Duration
	prod  fabric.Location
	cons  []fabric.Location
}

// Exchange shapes: object sizes and consumer counts are drawn uniformly from
// these lists, so a third of the Gets belong to 8-way fan-outs.
var (
	exchangeBytes  = []int64{4 << 20, 16 << 20, 64 << 20, 256 << 20}
	exchangeFanout = []int{1, 1, 2, 4, 8}
)

const (
	exchangeRate = 200                    // exchanges per second, Poisson
	exchangeHold = 300 * time.Millisecond // mean of the exponential hold
	gpuFreeBytes = 1 << 30                // GPU memory left free on every GPU
	fanoutLimit  = 50 * time.Millisecond
)

// genExchanges draws n exchanges over a 2-node DGX-V100 from seed.
func genExchanges(n int, seed int64) []exchange {
	rng := rand.New(rand.NewSource(seed))
	gpus := topology.DGXV100().NumGPUs
	loc := func() fabric.Location { return fabric.Location{Node: rng.Intn(2), GPU: rng.Intn(gpus)} }
	xs := make([]exchange, n)
	t := 0.0
	for i := range xs {
		t += rng.ExpFloat64() / exchangeRate
		x := &xs[i]
		x.at = time.Duration(t * float64(time.Second))
		x.bytes = exchangeBytes[rng.Intn(len(exchangeBytes))]
		x.hold = time.Duration(rng.ExpFloat64() * float64(exchangeHold))
		x.prod = loc()
		x.cons = make([]fabric.Location, exchangeFanout[rng.Intn(len(exchangeFanout))])
		for j := range x.cons {
			x.cons[j] = loc()
		}
	}
	return xs
}

// fanoutRun drives exchanges straight through a coalescing GROUTER plane.
type fanoutRun struct {
	xs    []exchange
	gen   time.Duration
	e     *sim.Engine
	f     *fabric.Fabric
	plane *core.Plane
	pl    dataplane.Plane // plane, or its traced wrapper
	pr    *probe

	lat            metrics.Latency
	last           time.Duration
	done, errored  int
	puts, putsDone int
	gets, getsDone int
}

func newFanout(o runOpts) instance {
	r := &fanoutRun{e: sim.NewEngine()}
	t0 := time.Now()
	r.xs = genExchanges(o.n, o.seed)
	r.gen = time.Since(t0)
	r.f = fabric.New(r.e, topology.DGXV100(), 2)
	cfg := core.FullConfig()
	cfg.Coalesce = true
	cfg.Seed = systemSeed
	r.plane = core.New(r.f, cfg)
	r.pl = r.plane
	if o.traced {
		horizon := time.Duration(1<<63 - 1)
		if len(r.xs) > spanRequests {
			horizon = r.xs[spanRequests].at
		}
		r.pr = newProbe(0, r.e, horizon, spanRequests)
		r.pl = &tracedPlane{Plane: r.plane, pr: r.pr}
	}
	for _, nf := range r.f.Nodes {
		for _, dev := range nf.GPUs {
			if _, err := dev.Alloc(dev.Free() - gpuFreeBytes); err != nil {
				panic(err) // every DGX-V100 GPU has more than 1 GiB
			}
		}
	}
	return r
}

func (r *fanoutRun) run() outcome {
	e := r.e
	e.Go("exchange-feeder", func(p *sim.Proc) {
		for i := range r.xs {
			x, seq := &r.xs[i], int64(i+1)
			p.Sleep(x.at - p.Now())
			e.Go("exchange", func(p *sim.Proc) { r.exchange(p, x, seq) })
		}
	})
	e.Run(0)
	o := outcome{sent: len(r.xs), completed: r.done, errored: r.errored, lats: []*metrics.Latency{&r.lat}, span: r.last}
	o.met = within(&r.lat, fanoutLimit)
	// No elastic pools here: every GPU of the fabric is held for the run.
	o.gpuSec = float64(r.f.NumNodes()*r.f.Spec().NumGPUs) * r.last.Seconds()
	return o
}

// exchange runs one exchange; its latency is the Put latency plus the
// slowest Get latency, excluding the hold.
func (r *fanoutRun) exchange(p *sim.Proc, x *exchange, seq int64) {
	pc := &dataplane.FnCtx{Fn: "producer", Workflow: "fanout", Loc: x.prod, ConsumerSeq: seq}
	t0 := p.Now() // the feeder starts every exchange when it is due
	r.puts++
	ref, err := r.pl.Put(p, pc, x.bytes)
	r.putsDone++
	if err != nil {
		r.errored++
		return
	}
	put := p.Now() - t0
	p.Sleep(x.hold)
	done := sim.NewSignal(r.e)
	left := len(x.cons)
	failed := false
	var slowest time.Duration
	for _, loc := range x.cons {
		cc := &dataplane.FnCtx{Fn: "consumer", Workflow: "fanout", Loc: loc, ConsumerSeq: seq}
		r.e.Go("get", func(cp *sim.Proc) {
			g0 := cp.Now()
			r.gets++
			if err := r.pl.Get(cp, cc, ref); err != nil {
				failed = true
			}
			r.getsDone++
			if d := cp.Now() - g0; d > slowest {
				slowest = d
			}
			if left--; left == 0 {
				done.Fire()
			}
		})
	}
	done.Wait(p)
	r.pl.Free(ref)
	if failed {
		r.errored++
		return
	}
	r.done++
	r.lat.Add(put + slowest)
	r.last = p.Now()
	if r.pr != nil {
		r.pr.span(laneRequest, "exchange", t0, p.Now(), 0, seq)
	}
}

func (r *fanoutRun) layers(l *layerStats) {
	l.events += r.e.Executed()
	l.addPlane(r.plane, r.f, r.pr)
}

func (r *fanoutRun) check() []string {
	var bad []string
	if r.done+r.errored != len(r.xs) {
		bad = append(bad, fmt.Sprintf("requests-balance: sent %d, completed %d + errored %d", len(r.xs), r.done, r.errored))
	}
	if r.putsDone != r.puts || r.getsDone != r.gets {
		bad = append(bad, fmt.Sprintf("ops-return: %d of %d Puts and %d of %d Gets returned", r.putsDone, r.puts, r.getsDone, r.gets))
	}
	for n := 0; n < r.f.NumNodes(); n++ {
		if u := r.plane.Store(n).TotalUsed(); u != 0 {
			bad = append(bad, fmt.Sprintf("memory-balance: node %d store holds %d bytes at drain", n, u))
		}
	}
	if r.pr != nil {
		bad = append(bad, r.pr.check(0)...)
	}
	return bad
}

// genTime is the exchange generation time. Exchanges start exactly when due,
// so the generator never lags (admitLag stays 0).
func (r *fanoutRun) genTime() time.Duration { return r.gen }

func (r *fanoutRun) close() { r.e.Close() }
