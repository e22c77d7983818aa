package cluster

import (
	"time"

	"grouter/internal/metrics"
	"grouter/internal/obs"
	"grouter/internal/sim"
)

// Sharded trace replay: the scale-out execution mode behind the 10^6-request
// ext-scale cells.
//
// The simulated system is a fleet of `Pods` independent serving pods — each
// a complete cluster (fabric, netsim allocator, data plane, deployed app)
// built by the caller's build function — behind a front-door feeder that
// routes request i to pod i mod Pods and admits arrivals in Quantum windows
// with a fixed RouteLatency admission delay. Pods are grouped onto `Shards`
// shard event loops (pod j lives on shard j mod Shards), each owning one
// typed event heap and running on its own goroutine under the conservative
// lookahead protocol of sim.ShardGroup; the feeder's admissions are the
// cross-shard events, carried by per-pod ordered mailboxes whose
// RouteLatency is the lookahead bound. Every pod's netsim allocator state is
// shard-local by construction: a pod's fabric is its own connected
// component, owned entirely by the shard hosting the pod.
//
// Because pods interact only through the feeder's latency-bounded mailboxes,
// the fleet result — every pod's completions and every statistic derived
// from them — is a pure function of the trace and the pod layout. The shard
// count and the parallel/sequential execution mode change wall-clock time
// only: a replay at 1, 2, 4, or 8 shards, parallel or sequential, is
// byte-identical.
// ShardedReplay with Shards=1 (every pod on one event loop) is the retained
// single-shard determinism oracle.

// DefaultPods is the canonical scale-out fleet width. It is a fixed layout
// constant — results depend on it, so changing it changes the simulated
// system — chosen so every shard count in {1,2,4,8} divides it evenly.
const DefaultPods = 8

// ShardedOptions configures ShardedReplay.
type ShardedOptions struct {
	// Pods is the number of independent serving pods (default DefaultPods).
	// The trace is routed round-robin across pods, so Pods is part of the
	// simulated system, not an execution knob.
	Pods int
	// Shards is the number of shard event loops the pods are grouped onto
	// (default 1). Pure execution knob: results are byte-identical across
	// shard counts.
	Shards int
	// Sequential forces the single-goroutine oracle scheduler even for
	// Shards > 1 (differential tests compare it against the parallel run).
	Sequential bool
	// Quantum is the feeder's admission window (default 10ms): arrivals
	// inside a window are admitted together at its closing edge, mirroring
	// ReplaySpec.Quantum.
	Quantum time.Duration
	// RouteLatency is the front-door routing delay between the feeder and a
	// pod (default 10ms). It is also the cross-shard lookahead bound, so
	// smaller values mean more barriers per simulated second.
	RouteLatency time.Duration
	// Trace attaches a shard-tagged span tracer to every shard event loop;
	// the tracers are returned in ShardedStats.Tracers and merge into one
	// coherent trace with obs.ExportMerged.
	Trace bool
}

func (o *ShardedOptions) defaults() {
	if o.Pods <= 0 {
		o.Pods = DefaultPods
	}
	if o.Shards <= 0 {
		o.Shards = 1
	}
	if o.Shards > o.Pods {
		o.Shards = o.Pods
	}
	if o.Quantum <= 0 {
		o.Quantum = 10 * time.Millisecond
	}
	if o.RouteLatency <= 0 {
		o.RouteLatency = 10 * time.Millisecond
	}
}

// PodReplay summarizes one pod's share of a sharded replay.
type PodReplay struct {
	Pod       int
	Shard     int
	Requests  int
	Completed int
	P50, P99  time.Duration
}

// ShardedStats reports a sharded replay. The embedded ReplayStats and PerPod
// are virtual-time results: byte-identical across runs, shard counts, and
// scheduling modes. The fleet P50/P99 merge the pods' E2E distributions, so
// they are exact up to metrics.DistCap completions fleet-wide and within
// 2^-10 above the pooled exact value past that, like each pod's own. Util
// and Wall are wall-clock observations of this run only and vary run to run.
type ShardedStats struct {
	ReplayStats
	Pods   int
	Shards int
	PerPod []PodReplay
	// Util is per-shard wall-clock busy/barrier-wait utilization; Wall is
	// the whole run's wall-clock time.
	Util []sim.ShardUtil
	Wall time.Duration
	// Tracers holds one shard-tagged tracer per shard when Trace was set.
	Tracers []*obs.Tracer
}

// ShardedReplay replays arrivals (sorted offsets, as for App.Replay) over a
// fleet of opt.Pods independent pods executed on opt.Shards shard event
// loops. build constructs pod `pod` on the given engine and returns its
// deployed app; it is called in pod order and must build each pod
// identically given the same index (pods must not share mutable state — each
// needs its own workflow, spec, and plane). An OnComplete hook that build
// installs keeps firing.
func ShardedReplay(arrivals []time.Duration, opt ShardedOptions, build func(pod int, e *sim.Engine) *App) ShardedStats {
	opt.defaults()
	g := sim.NewShardGroup(opt.Shards)
	defer g.Close()

	if opt.Trace {
		for i := 0; i < g.Shards(); i++ {
			obs.Attach(g.Shard(i).Engine()).SetShard(int32(i))
		}
	}

	// Build pods in index order; pod j lives on shard j mod Shards, so the
	// construction sequence on any one engine is the same whatever the
	// shard count.
	podShard := func(pod int) int { return pod % opt.Shards }
	apps := make([]*App, opt.Pods)
	lastAt := make([]time.Duration, opt.Pods) // each pod's last completion
	for j := range apps {
		j := j
		apps[j] = build(j, g.Shard(podShard(j)).Engine())
		apps[j].C.Fabric.Net.SetShard(int32(podShard(j)))
		next := apps[j].OnComplete
		apps[j].OnComplete = func(seq int64, at, e2e time.Duration) {
			lastAt[j] = at
			if next != nil {
				next(seq, at, e2e)
			}
		}
	}

	// The feeder lives on shard 0 and admits arrivals through one ordered
	// mailbox per pod. A mailbox to a pod on shard 0 itself would be a
	// same-shard edge, which the group rejects; those pods are admitted by
	// scheduling directly on the shared engine with the same latency, which
	// is delivery-order-equivalent because the feeder fires before any
	// admission at the same instant.
	driver := g.Shard(0)
	boxes := make([]*sim.Mailbox, opt.Pods)
	admit := func(app *App) func(payload any) {
		return func(payload any) {
			for n := payload.(int); n > 0; n-- {
				app.startReq(Request{}, nil)
			}
		}
	}
	for j := range apps {
		if sh := g.Shard(podShard(j)); sh != driver {
			boxes[j] = g.NewMailbox(driver, sh, opt.RouteLatency, admit(apps[j]))
		}
	}

	requests := make([]int, opt.Pods)
	for i := range arrivals {
		requests[i%opt.Pods]++
	}

	if len(arrivals) > 0 {
		q, lat := opt.Quantum, opt.RouteLatency
		counts := make([]int, opt.Pods)
		driver.Engine().Go("shard-feeder", func(p *sim.Proc) {
			i := 0
			for i < len(arrivals) {
				win := (arrivals[i]/q + 1) * q
				if wait := win - p.Now(); wait > 0 {
					p.Sleep(wait)
				}
				for j := range counts {
					counts[j] = 0
				}
				for i < len(arrivals) && arrivals[i] < win {
					counts[i%opt.Pods]++
					i++
				}
				for j, n := range counts {
					if n == 0 {
						continue
					}
					if boxes[j] != nil {
						boxes[j].Send(n)
					} else {
						app, n := apps[j], n
						p.Engine().Schedule(lat, func() {
							for ; n > 0; n-- {
								app.startReq(Request{}, nil)
							}
						})
					}
				}
			}
			for _, b := range boxes {
				if b != nil {
					b.Close()
				}
			}
		})
	} else {
		for _, b := range boxes {
			if b != nil {
				b.Close()
			}
		}
	}

	if opt.Sequential || opt.Shards == 1 {
		g.RunSequential()
	} else {
		g.Run()
	}

	st := ShardedStats{
		Pods:   opt.Pods,
		Shards: opt.Shards,
	}
	st.Requests = len(arrivals)

	// The fleet percentiles merge the pods' distributions: a merged Dist
	// answers as one fed every pod's samples, in any order. The replay
	// horizon is the latest pod's last completion.
	var fleet metrics.Dist
	for j, app := range apps {
		fleet.Merge(&app.E2E)
		st.Duration = max(st.Duration, lastAt[j])
	}
	st.Completed = fleet.Count()
	st.P50 = fleet.P(0.5)
	st.P99 = fleet.P(0.99)
	if st.Duration > 0 {
		st.Throughput = float64(st.Completed) / st.Duration.Seconds()
	}

	for j, app := range apps {
		st.PerPod = append(st.PerPod, PodReplay{
			Pod: j, Shard: podShard(j),
			Requests:  requests[j],
			Completed: app.Completed,
			P50:       app.E2E.P(0.5),
			P99:       app.E2E.P(0.99),
		})
	}
	if opt.Trace {
		for i := 0; i < g.Shards(); i++ {
			st.Tracers = append(st.Tracers, obs.TracerOf(g.Shard(i).Engine()))
		}
	}
	st.Util = g.Util()
	st.Wall = g.Wall()
	return st
}
