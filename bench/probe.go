package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"time"

	"grouter/internal/autoscale"
	"grouter/internal/cluster"
	"grouter/internal/dataplane"
	"grouter/internal/fabric"
	"grouter/internal/metrics"
	"grouter/internal/obs"
	"grouter/internal/scheduler"
	"grouter/internal/sim"
)

// The traced run observes each layer from outside, through hooks the layers
// already expose. Every wrapper only reads: it wraps hooks that are already
// set (Route, Admit) or hooks that only observe (OnGPUService, the Plane,
// the Scaler), so the traced run's virtual metrics must equal the untraced
// run's. Counters cover the whole run; spans cover the first spanRequests
// requests and are written as a Chrome trace when the run ends.

// spanRequests is how many requests (per workload) carry spans.
const spanRequests = 20_000

// Chrome-trace lanes (thread ids) inside one pod's process; GPU g of node n
// is lane laneGPU + n*GPUs per node + g.
const (
	laneRequest = iota
	laneRoute
	laneAdmit
	laneScaler
	lanePut
	laneGet
	laneGPU
)

var laneNames = [...]string{"requests", "route", "admit", "scaler", "put", "get"}

// span is one traced hook call. start and end are virtual; hostNs is the
// host time of a synchronous hook; seq is the request sequence number where
// the hook exposes one (0 otherwise).
type span struct {
	lane       int
	name       string
	start, end time.Duration
	hostNs     int64
	seq        int64
}

// probe holds the observations of one pod. In a sharded fleet each pod has
// its own probe, touched only by the goroutine of the pod's shard; the
// probes are merged after the run.
type probe struct {
	pod     int
	e       *sim.Engine
	horizon time.Duration // seq-less spans start before this
	maxSeq  int64         // spans with a seq carry at most this one
	spans   []span
	gpus    int // GPUs per node, for GPU lanes
	bd      *cluster.Breakdown

	puts, putsDone, gets, getsDone, errors int64
	putLat, getLat                         metrics.Latency

	routeCalls, routeDeclined, routeNs int64
	admitCalls, admitNs                int64
	admitActs                          [len(admitNames)]int64 // indexed by cluster.AdmitAction
	scalerCalls, scalerNs              int64
	gpuBusy                            time.Duration
}

// newProbe observes pod on engine e. Spans cover the requests due before
// horizon; maxSeq bounds the per-pod request sequence numbers that carry
// spans.
func newProbe(pod int, e *sim.Engine, horizon time.Duration, maxSeq int64) *probe {
	return &probe{pod: pod, e: e, horizon: horizon, maxSeq: maxSeq}
}

// spanHorizon is the due time of the first request past the span window.
func spanHorizon(arrivals []time.Duration) time.Duration {
	if len(arrivals) <= spanRequests {
		return time.Duration(1<<63 - 1)
	}
	return arrivals[spanRequests]
}

func (pr *probe) span(lane int, name string, start, end time.Duration, hostNs, seq int64) {
	if seq > 0 && seq > pr.maxSeq || seq <= 0 && start >= pr.horizon {
		return
	}
	pr.spans = append(pr.spans, span{lane: lane, name: name, start: start, end: end, hostNs: hostNs, seq: seq})
}

// attach wraps the app's hooks and turns on the critical-path breakdown.
func (pr *probe) attach(a *cluster.App) {
	pr.bd = a.EnableBreakdown()
	c := a.C
	pr.gpus = c.Spec().NumGPUs
	if route := a.Route; route != nil {
		a.Route = func(si scheduler.StageInst, ri cluster.RouteInfo, pool []fabric.Location) (int, bool) {
			t0 := time.Now()
			idx, ok := route(si, ri, pool)
			ns := time.Since(t0).Nanoseconds()
			pr.routeCalls++
			pr.routeNs += ns
			if !ok {
				pr.routeDeclined++
			}
			if ri.Seq <= pr.maxSeq {
				now := pr.e.Now()
				pr.span(laneRoute, "route:"+si.Stage, now, now, ns, ri.Seq)
			}
			return idx, ok
		}
	}
	if admit := a.Admit; admit != nil {
		a.Admit = func(req cluster.Request, waited time.Duration) (cluster.AdmitAction, time.Duration) {
			t0 := time.Now()
			act, delay := admit(req, waited)
			ns := time.Since(t0).Nanoseconds()
			pr.admitCalls++
			pr.admitNs += ns
			if act >= 0 && int(act) < len(admitNames) {
				pr.admitActs[act]++
				now := pr.e.Now()
				pr.span(laneAdmit, admitNames[act], now, now, ns, 0)
			}
			return act, delay
		}
	}
	svc := c.OnGPUService
	c.OnGPUService = func(node, gpu int, held time.Duration) {
		pr.gpuBusy += held
		now := pr.e.Now()
		pr.span(laneGPU+node*pr.gpus+gpu, "gpu", now-held, now, 0, 0)
		if svc != nil {
			svc(node, gpu, held)
		}
	}
}

// admitNames are the span names of cluster.AdmitRun, AdmitDefer and AdmitShed.
var admitNames = [...]string{"admit:run", "admit:defer", "admit:shed"}

// check returns the failed checks of the observed pod: every Put and Get
// returned without error, and every breakdown record tiles its latency.
func (pr *probe) check(pod int) []string {
	var bad []string
	if pr.putsDone != pr.puts || pr.getsDone != pr.gets || pr.errors != 0 {
		bad = append(bad, fmt.Sprintf("ops-return: pod %d: %d of %d Puts and %d of %d Gets returned, %d errors",
			pod, pr.putsDone, pr.puts, pr.getsDone, pr.gets, pr.errors))
	}
	if pr.bd != nil {
		for i := range pr.bd.Requests {
			if rb := &pr.bd.Requests[i]; rb.Sum() != rb.E2E() {
				bad = append(bad, fmt.Sprintf("breakdown-tiles: pod %d request %d: buckets sum to %v, latency %v",
					pod, rb.Seq, rb.Sum(), rb.E2E()))
				break
			}
		}
	}
	return bad
}

// tracedPlane times every Put and Get of the plane it wraps.
type tracedPlane struct {
	dataplane.Plane
	pr *probe
}

func (t *tracedPlane) Put(p *sim.Proc, ctx *dataplane.FnCtx, bytes int64) (dataplane.DataRef, error) {
	pr := t.pr
	pr.puts++
	t0 := p.Now()
	ref, err := t.Plane.Put(p, ctx, bytes)
	pr.putsDone++
	if err != nil {
		pr.errors++
	}
	pr.putLat.Add(p.Now() - t0)
	pr.span(lanePut, "put", t0, p.Now(), 0, ctx.ConsumerSeq)
	return ref, err
}

func (t *tracedPlane) Get(p *sim.Proc, ctx *dataplane.FnCtx, ref dataplane.DataRef) error {
	pr := t.pr
	pr.gets++
	t0 := p.Now()
	err := t.Plane.Get(p, ctx, ref)
	pr.getsDone++
	if err != nil {
		pr.errors++
	}
	pr.getLat.Add(p.Now() - t0)
	pr.span(laneGet, "get", t0, p.Now(), 0, ctx.ConsumerSeq)
	return err
}

// timedScaler times every Desired call of the scaler it wraps.
type timedScaler struct {
	autoscale.Autoscaler
	pr *probe
}

func (s timedScaler) Desired(m autoscale.PoolMetrics) int {
	t0 := time.Now()
	d := s.Autoscaler.Desired(m)
	ns := time.Since(t0).Nanoseconds()
	s.pr.scalerCalls++
	s.pr.scalerNs += ns
	now := s.pr.e.Now()
	s.pr.span(laneScaler, "scaler", now, now, ns, 0)
	return d
}

// writeChromeTrace writes the probes' spans, plus one span per breakdown
// record in the window, as Chrome-trace JSON: one process per pod.
func writeChromeTrace(path string, probes []*probe) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	w.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`)
	first := true
	event := func(s string) {
		if !first {
			w.WriteByte(',')
		}
		first = false
		w.WriteString("\n")
		w.WriteString(s)
	}
	us := func(d time.Duration) string { return strconv.FormatFloat(float64(d)/1e3, 'f', 3, 64) }
	write := func(pod int, s span) {
		args := ""
		if s.seq > 0 {
			args = fmt.Sprintf(`"seq":%d`, s.seq)
		}
		if s.hostNs > 0 {
			if args != "" {
				args += ","
			}
			args += fmt.Sprintf(`"host_ns":%d`, s.hostNs)
		}
		event(fmt.Sprintf(`{"name":%q,"ph":"X","pid":%d,"tid":%d,"ts":%s,"dur":%s,"args":{%s}}`,
			s.name, pod, s.lane, us(s.start), us(s.end-s.start), args))
	}
	for _, pr := range probes {
		for lane, name := range laneNames {
			event(fmt.Sprintf(`{"name":"thread_name","ph":"M","pid":%d,"tid":%d,"args":{"name":%q}}`, pr.pod, lane, name))
		}
		if pr.bd != nil {
			for i := range pr.bd.Requests {
				rb := &pr.bd.Requests[i]
				if rb.Seq > pr.maxSeq {
					continue
				}
				name := "request"
				if rb.Buckets[obs.CatShed] > 0 {
					name = "shed"
				}
				write(pr.pod, span{lane: laneRequest, name: name, start: rb.Start, end: rb.End, seq: rb.Seq})
			}
		}
		for _, s := range pr.spans {
			write(pr.pod, s)
		}
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
