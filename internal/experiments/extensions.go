package experiments

import (
	"fmt"
	"time"

	"grouter/internal/cluster"
	"grouter/internal/faults"
	"grouter/internal/scheduler"
	"grouter/internal/sim"
	"grouter/internal/topology"
	"grouter/internal/trace"
	"grouter/internal/workflow"
)

// ExtColdStart quantifies what the pre-warming of §5 buys: the same
// sporadic workload with pre-warmed instances, cold starts with keep-alive,
// and cold starts without keep-alive reuse.
func ExtColdStart() *Table {
	t := &Table{
		ID:      "ext-coldstart",
		Title:   "Function pre-warming (extension): driving under a sporadic trace",
		Columns: []string{"policy", "cold starts", "p50(ms)", "p99(ms)"},
	}
	grouter := systems(29)[3]
	arrivals := trace.Generate(trace.Spec{
		Pattern: trace.Sporadic, Duration: 60 * time.Second, MeanRPS: 0.5, Seed: 29,
	})
	runPolicy := func(name string, pol cluster.ColdStartPolicy) {
		e := sim.NewEngine()
		c := cluster.New(e, topology.DGXV100(), 1, grouter.mk)
		app := c.Deploy(workflow.Driving(), 0, scheduler.Options{Node: 0})
		app.SetColdStart(pol)
		replay(app, arrivals, cluster.ReplaySpec{})
		e.Close()
		t.Rows = append(t.Rows, []string{name, fmt.Sprint(app.ColdStarts()),
			ms(app.E2E.P(0.5)), ms(app.E2E.P(0.99))})
	}
	runPolicy("pre-warmed (paper §5)", cluster.ColdStartPolicy{
		Enabled: true, ContainerLatency: 800 * time.Millisecond,
		KeepAlive: time.Minute, Prewarm: true,
	})
	runPolicy("cold + 30s keep-alive", cluster.ColdStartPolicy{
		Enabled: true, ContainerLatency: 800 * time.Millisecond,
		KeepAlive: 30 * time.Second,
	})
	runPolicy("cold + 1s keep-alive", cluster.ColdStartPolicy{
		Enabled: true, ContainerLatency: 800 * time.Millisecond,
		KeepAlive: time.Second,
	})
	t.Notes = append(t.Notes,
		"extension (not a paper figure): supports §5's choice to pre-warm functions and models",
		"container launch 800ms + model weights over PCIe per cold start")
	return t
}

// ExtSpatialSharing tests the §7 discussion claim: under MPS-style spatial
// GPU sharing, bandwidth/memory contention rises, making GROUTER's
// optimizations more — not less — valuable.
func ExtSpatialSharing() *Table {
	t := &Table{
		ID:      "ext-spatial",
		Title:   "Spatial GPU sharing (extension): traffic throughput, DGX-V100",
		Columns: []string{"gpu slots", "system", "throughput(req/s)", "grouter advantage"},
	}
	for _, slots := range []int{1, 2} {
		var grt, best float64
		rows := [][]string{}
		for _, sys := range []planeMaker{systems(31)[1], systems(31)[3]} { // nvshmem+, grouter
			e := sim.NewEngine()
			c := cluster.NewSpatial(e, topology.DGXV100(), 1, slots, sys.mk)
			app := c.Deploy(workflow.Traffic(), 0, scheduler.Options{Node: 0})
			tput := app.MeasureThroughput(24, 8*time.Second)
			e.Close()
			rows = append(rows, []string{fmt.Sprint(slots), sys.name, fmt.Sprintf("%.1f", tput), ""})
			if sys.name == "grouter" {
				grt = tput
			} else {
				best = tput
			}
		}
		adv := ratio(grt / best)
		for i := range rows {
			rows[i][3] = adv
		}
		t.Rows = append(t.Rows, rows...)
	}
	t.Notes = append(t.Notes,
		"extension (not a paper figure): §7 argues spatial sharing increases contention,",
		"so the GPU-centric data plane's advantage should hold or grow with more slots")
	return t
}

// ExtFaults measures graceful degradation under link faults: the traffic
// workflow on GROUTER, fault-free versus with the whole NVLink mesh flapping
// at a 10% duty cycle (down 15ms every 150ms). Transfers planned during an
// outage route around dead edges or degrade to PCIe; transfers caught
// mid-flight are killed by netsim, retried with backoff, and re-planned —
// so requests complete slower, not never.
func ExtFaults() *Table {
	t := &Table{
		ID:      "ext-faults",
		Title:   "Fault injection (extension): traffic under a 10% NVLink flap, DGX-V100",
		Columns: []string{"scenario", "p50(ms)", "p99(ms)", "retries", "replans", "degraded(MiB)", "slo met"},
	}
	grouter := systems(37)[3]
	arrivals := trace.Generate(trace.Spec{
		Pattern: trace.Sporadic, Duration: 30 * time.Second, MeanRPS: 8, Seed: 37,
	})
	run := func(name string, inject func(*faults.Injector, *cluster.Cluster)) {
		e := sim.NewEngine()
		c := cluster.New(e, topology.DGXV100(), 1, grouter.mk)
		app := c.Deploy(workflow.Traffic(), 0, scheduler.Options{Node: 0})
		if inject != nil {
			inject(faults.NewInjector(e, c.Fabric.Net), c)
		}
		replay(app, arrivals, cluster.ReplaySpec{})
		e.Close()
		fs := c.Fabric.Net.Faults()
		t.Rows = append(t.Rows, []string{name, ms(app.E2E.P(0.5)), ms(app.E2E.P(0.99)),
			fmt.Sprint(fs.Retries), fmt.Sprint(fs.Replans),
			mib(fs.DegradedBytes), pct(app.SLOCompliance())})
	}
	run("fault-free", nil)
	run("10% NVLink flap", func(in *faults.Injector, c *cluster.Cluster) {
		topo := c.Fabric.Topo(0)
		for i := 0; i < topo.Spec.NumGPUs; i++ {
			for j := 0; j < topo.Spec.NumGPUs; j++ {
				if topo.Spec.NVLinkBps(i, j) > 0 {
					in.FlapLink(topo.NVLinkTo(i, j),
						75*time.Millisecond, 15*time.Millisecond, 150*time.Millisecond, 30*time.Second)
				}
			}
		}
	})
	t.Notes = append(t.Notes,
		"extension (not a paper figure): transfers caught by an outage retry over PCIe",
		"degraded(MiB) counts bytes a transfer delivered on a retry attempt after its first plan failed")
	return t
}
