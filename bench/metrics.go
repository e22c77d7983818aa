package main

import (
	"time"

	"grouter/internal/core"
	"grouter/internal/fabric"
	"grouter/internal/metrics"
	"grouter/internal/obs"
	"grouter/internal/sim"
)

// metricDef names one reported metric. End-to-end metrics name their clock:
// host is the simulator's own wall-clock and allocation cost, virtual the
// modelled serving system's time. Per-layer metrics name their layer.
type metricDef struct {
	name, unit, better string
	clock              string // end-to-end only
	layer              string // per-layer only
}

var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", clock: "host"},
	{name: "alloc_b_per_req", unit: "B", better: "lower", clock: "host"},
	{name: "heap_live_mib", unit: "MiB", better: "lower", clock: "host"},
	{name: "p50_ms", unit: "ms", better: "lower", clock: "virtual"},
	{name: "p99_ms", unit: "ms", better: "lower", clock: "virtual"},
	{name: "p999_ms", unit: "ms", better: "lower", clock: "virtual"},
	{name: "throughput_rps", unit: "1/s", better: "higher", clock: "virtual"},
	{name: "goodput_rps", unit: "1/s", better: "higher", clock: "virtual"},
	{name: "slo_attain", unit: "frac", better: "higher", clock: "virtual"},
	{name: "completed_frac", unit: "frac", better: "higher", clock: "virtual"},
	{name: "gpu_s_per_kreq", unit: "s", better: "lower", clock: "virtual"},
}

// cpuLayers are the layers CPU-profile samples are charged to: each
// grouter/internal package the workloads run, the benchmark itself, runtime
// (samples with no repo frame) and other (any other repo package).
var cpuLayers = []string{"sim", "netsim", "core", "xfer", "pathsel", "harvest", "store", "memsim",
	"cluster", "scheduler", "router", "autoscale", "metrics", "fabric", "obs", "bench", "runtime", "other"}

var perLayer = func() []metricDef {
	defs := []metricDef{
		// The whole simulator's speed. It is not an end-to-end metric because
		// its bound would gate nothing but the machine: on a 2-vCPU VM its
		// spread over ten runs reached 45%.
		{name: "host_req_per_s", unit: "1/s", better: "higher", layer: "sim"},
		{name: "sim.events_per_req", unit: "count", better: "lower", layer: "sim"},
		{name: "sim.ns_per_event", unit: "ns", better: "lower", layer: "sim"},
		{name: "shard.parallelism", unit: "x", better: "higher", layer: "sim"},
		{name: "shard.wait_frac", unit: "frac", better: "lower", layer: "sim"},
		{name: "shard.windows_per_kreq", unit: "count", better: "lower", layer: "sim"},
		{name: "netsim.recomputes_per_req", unit: "count", better: "lower", layer: "netsim"},
		{name: "netsim.flows_per_recompute", unit: "count", better: "lower", layer: "netsim"},
		{name: "netsim.waterfill_iters_per_recompute", unit: "count", better: "lower", layer: "netsim"},
		{name: "plane.put_p99_ms", unit: "ms", better: "lower", layer: "core"},
		{name: "plane.get_p50_ms", unit: "ms", better: "lower", layer: "core"},
		{name: "plane.get_p99_ms", unit: "ms", better: "lower", layer: "core"},
		{name: "plane.copies_per_get", unit: "count", better: "lower", layer: "core"},
		{name: "plane.bytes_per_req", unit: "B", better: "lower", layer: "core"},
		{name: "plane.control_ops_per_req", unit: "count", better: "lower", layer: "core"},
		{name: "plane.errors", unit: "count", better: "lower", layer: "core"},
		{name: "coalesce.hit_frac", unit: "frac", better: "higher", layer: "core"},
		{name: "coalesce.origin_byte_frac", unit: "frac", better: "lower", layer: "core"},
		{name: "bd.transfer_ms", unit: "ms", better: "lower", layer: "xfer"},
		{name: "bd.setup_ms", unit: "ms", better: "lower", layer: "xfer"},
		{name: "store.evictions_per_kput", unit: "count", better: "lower", layer: "store"},
		{name: "store.restores_per_kput", unit: "count", better: "lower", layer: "store"},
		{name: "store.spills_per_kput", unit: "count", better: "lower", layer: "store"},
		{name: "store.reserved_gib_peak", unit: "GiB", better: "lower", layer: "store"},
		{name: "bd.queue_ms", unit: "ms", better: "lower", layer: "cluster"},
		{name: "bd.compute_ms", unit: "ms", better: "lower", layer: "cluster"},
		{name: "bd.other_ms", unit: "ms", better: "lower", layer: "cluster"},
		{name: "gpu.busy_frac", unit: "frac", better: "higher", layer: "cluster"},
		{name: "router.pick_ns", unit: "ns", better: "lower", layer: "router"},
		{name: "router.picks_per_req", unit: "count", better: "lower", layer: "router"},
		{name: "router.fallback_frac", unit: "frac", better: "lower", layer: "router"},
		{name: "router.refreshes_per_kpick", unit: "count", better: "lower", layer: "router"},
		{name: "router.affinity_hit_frac", unit: "frac", better: "higher", layer: "router"},
		{name: "admit.ns", unit: "ns", better: "lower", layer: "admission"},
		{name: "admit.calls_per_req", unit: "count", better: "lower", layer: "admission"},
		{name: "admit.run_frac", unit: "frac", better: "higher", layer: "admission"},
		{name: "admit.defer_frac", unit: "frac", better: "lower", layer: "admission"},
		{name: "admit.shed_frac", unit: "frac", better: "lower", layer: "admission"},
		{name: "bd.defer_wait_ms", unit: "ms", better: "lower", layer: "admission"},
		{name: "scaler.ns", unit: "ns", better: "lower", layer: "autoscale"},
		{name: "scaler.calls", unit: "count", better: "lower", layer: "autoscale"},
		{name: "elastic.scale_outs", unit: "count", better: "lower", layer: "autoscale"},
		{name: "elastic.scale_ins", unit: "count", better: "lower", layer: "autoscale"},
		{name: "setup.trace_s", unit: "s", better: "lower", layer: "trace"},
		{name: "gen.admit_lag_ms", unit: "ms", better: "lower", layer: "trace"},
		{name: "report.pct_s", unit: "s", better: "lower", layer: "metrics"},
		{name: "bench.trace_overhead_frac", unit: "frac", better: "lower", layer: "bench"},
	}
	for _, l := range cpuLayers {
		defs = append(defs, metricDef{name: "cpu." + l, unit: "frac", better: "lower", layer: l})
	}
	return defs
}()

// layerStats gathers the per-layer counters of one finished run.
type layerStats struct {
	events   int64
	shards   []sim.ShardUtil // nil for single-engine workloads
	admitLag time.Duration
	gpus     int

	recomputes, flows, waterfill int64
	puts, gets, copies, bytes    int64
	controlOps                   int64
	hits, originBytes, replBytes int64
	evictions, restores, spills  int64
	reservedPeak                 float64

	routerDecisions, refreshes, affinityHits int64
	scaleOuts, scaleIns                      int64

	probes []*probe
}

func (l *layerStats) addPod(p *pod) {
	l.addPlane(p.plane, p.app.C.Fabric, p.pr)
	if p.rt != nil {
		l.routerDecisions += p.rt.Stats.Decisions
		l.refreshes += p.rt.Stats.Refreshes
		l.affinityHits += p.rt.Stats.AffinityHits
	}
	l.scaleOuts += p.ep.Stats.ScaleOuts
	l.scaleIns += p.ep.Stats.ScaleIns
}

func (l *layerStats) addPlane(pl *core.Plane, f *fabric.Fabric, pr *probe) {
	ns := f.Net.NetStats()
	l.recomputes += ns.Recomputes.Load()
	l.flows += ns.FlowsTouched.Load()
	l.waterfill += ns.WaterFillIters.Load()
	st := pl.Stats()
	l.puts += st.Puts
	l.gets += st.Gets
	l.copies += st.Copies
	l.bytes += st.BytesMoved
	l.controlOps += st.ControlOps
	co := st.Coalesce
	l.hits += co.Joined + co.Chained + co.ReplicaHits + co.LocalHits
	l.originBytes += co.OriginBytes
	l.replBytes += co.ReplicaBytes
	for n := range f.Nodes {
		s := pl.Store(n)
		l.evictions += s.Evictions.N
		l.restores += s.Restores.N
		l.spills += s.Spills.N
		l.reservedPeak += s.ReservedTL.Peak()
	}
	l.gpus += f.NumNodes() * f.Spec().NumGPUs
	if pr != nil {
		l.probes = append(l.probes, pr)
	}
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func toMs(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// mergeLatency pools the samples of several recorders.
func mergeLatency(ls []*metrics.Latency) *metrics.Latency {
	if len(ls) == 1 {
		return ls[0]
	}
	out := &metrics.Latency{}
	for _, l := range ls {
		for _, s := range l.Samples() {
			out.Add(s)
		}
	}
	return out
}

// layerMetrics derives the counter-based per-layer metrics of a run that
// sent requests over span of virtual time. The harness adds the host-time
// and CPU-profile ones.
func (l *layerStats) layerMetrics(sent int, span time.Duration) map[string]float64 {
	req := float64(sent)
	m := map[string]float64{
		"sim.events_per_req":                   ratio(float64(l.events), req),
		"shard.parallelism":                    1,
		"shard.wait_frac":                      0,
		"shard.windows_per_kreq":               0,
		"netsim.recomputes_per_req":            ratio(float64(l.recomputes), req),
		"netsim.flows_per_recompute":           ratio(float64(l.flows), float64(l.recomputes)),
		"netsim.waterfill_iters_per_recompute": ratio(float64(l.waterfill), float64(l.recomputes)),
		"plane.copies_per_get":                 ratio(float64(l.copies), float64(l.gets)),
		"plane.bytes_per_req":                  ratio(float64(l.bytes), req),
		"plane.control_ops_per_req":            ratio(float64(l.controlOps), req),
		"coalesce.hit_frac":                    ratio(float64(l.hits), float64(l.gets)),
		"coalesce.origin_byte_frac":            1,
		"store.evictions_per_kput":             ratio(float64(l.evictions), float64(l.puts)/1000),
		"store.restores_per_kput":              ratio(float64(l.restores), float64(l.puts)/1000),
		"store.spills_per_kput":                ratio(float64(l.spills), float64(l.puts)/1000),
		"store.reserved_gib_peak":              l.reservedPeak / (1 << 30),
		"router.refreshes_per_kpick":           ratio(float64(l.refreshes), float64(l.routerDecisions)/1000),
		"router.affinity_hit_frac":             ratio(float64(l.affinityHits), float64(l.routerDecisions)),
		"elastic.scale_outs":                   float64(l.scaleOuts),
		"elastic.scale_ins":                    float64(l.scaleIns),
		"gen.admit_lag_ms":                     toMs(l.admitLag),
	}
	// Without coalescing every byte comes from the object's origin.
	if l.originBytes+l.replBytes > 0 {
		m["coalesce.origin_byte_frac"] = ratio(float64(l.originBytes), float64(l.originBytes+l.replBytes))
	}
	if len(l.shards) > 0 {
		var busy, wait, maxBusy time.Duration
		for _, u := range l.shards {
			busy += u.Busy
			wait += u.Wait
			if u.Busy > maxBusy {
				maxBusy = u.Busy
			}
		}
		m["shard.parallelism"] = ratio(float64(busy), float64(maxBusy))
		m["shard.wait_frac"] = ratio(float64(wait), float64(busy+wait))
		m["shard.windows_per_kreq"] = ratio(float64(l.shards[0].Windows), req/1000)
	}

	var p probe
	var putLat, getLat []*metrics.Latency
	var bdSum [obs.NumBuckets]time.Duration
	completed := 0
	for _, pr := range l.probes {
		p.errors += pr.errors
		p.routeCalls += pr.routeCalls
		p.routeDeclined += pr.routeDeclined
		p.routeNs += pr.routeNs
		p.admitCalls += pr.admitCalls
		p.admitNs += pr.admitNs
		for i, n := range pr.admitActs {
			p.admitActs[i] += n
		}
		p.scalerCalls += pr.scalerCalls
		p.scalerNs += pr.scalerNs
		p.gpuBusy += pr.gpuBusy
		putLat = append(putLat, &pr.putLat)
		getLat = append(getLat, &pr.getLat)
		if pr.bd == nil {
			continue
		}
		for i := range pr.bd.Requests {
			rb := &pr.bd.Requests[i]
			if rb.Buckets[obs.CatShed] > 0 {
				continue
			}
			completed++
			for c, d := range rb.Buckets {
				bdSum[c] += d
			}
		}
	}
	bd := func(c obs.Category) float64 { return ratio(toMs(bdSum[c]), float64(completed)) }
	put, get := mergeLatency(putLat), mergeLatency(getLat)
	admits := float64(p.admitCalls)
	for k, v := range map[string]float64{
		"plane.put_p99_ms":     toMs(put.P(0.99)),
		"plane.get_p50_ms":     toMs(get.P(0.5)),
		"plane.get_p99_ms":     toMs(get.P(0.99)),
		"plane.errors":         float64(p.errors),
		"bd.transfer_ms":       bd(obs.CatTransfer),
		"bd.setup_ms":          bd(obs.CatSetup),
		"bd.queue_ms":          bd(obs.CatQueue),
		"bd.compute_ms":        bd(obs.CatCompute),
		"bd.other_ms":          bd(obs.CatOther),
		"bd.defer_wait_ms":     bd(obs.CatDeferWait),
		"gpu.busy_frac":        ratio(p.gpuBusy.Seconds(), float64(l.gpus)*span.Seconds()),
		"router.pick_ns":       ratio(float64(p.routeNs), float64(p.routeCalls)),
		"router.picks_per_req": ratio(float64(p.routeCalls), req),
		"router.fallback_frac": ratio(float64(p.routeDeclined), float64(p.routeCalls)),
		"admit.ns":             ratio(float64(p.admitNs), admits),
		"admit.calls_per_req":  ratio(admits, req),
		"admit.run_frac":       ratio(float64(p.admitActs[0]), admits),
		"admit.defer_frac":     ratio(float64(p.admitActs[1]), admits),
		"admit.shed_frac":      ratio(float64(p.admitActs[2]), admits),
		"scaler.ns":            ratio(float64(p.scalerNs), float64(p.scalerCalls)),
		"scaler.calls":         float64(p.scalerCalls),
	} {
		m[k] = v
	}
	return m
}

// virtualMetrics derives the virtual-clock end-to-end metrics of a run, and
// the host time its percentile queries took.
func virtualMetrics(o outcome) (map[string]float64, time.Duration) {
	t0 := time.Now()
	lat := mergeLatency(o.lats)
	p50, p99, p999 := lat.P(0.5), lat.P(0.99), lat.P(0.999)
	pct := time.Since(t0)
	secs := o.span.Seconds()
	sent := float64(o.sent)
	return map[string]float64{
		"p50_ms":         toMs(p50),
		"p99_ms":         toMs(p99),
		"p999_ms":        toMs(p999),
		"throughput_rps": ratio(float64(o.completed), secs),
		"goodput_rps":    ratio(float64(o.met), secs),
		"slo_attain":     ratio(float64(o.met), sent),
		"completed_frac": ratio(float64(o.completed), sent),
		"gpu_s_per_kreq": ratio(o.gpuSec, sent/1000),
	}, pct
}
