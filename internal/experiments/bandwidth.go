package experiments

import (
	"time"

	"grouter/internal/cluster"
	"grouter/internal/core"
	"grouter/internal/dataplane"
	"grouter/internal/fabric"
	"grouter/internal/scheduler"
	"grouter/internal/sim"
	"grouter/internal/topology"
	"grouter/internal/workflow"
)

// runPair deploys two apps on one shared cluster node and drives both with
// bursty traces concurrently, returning the two apps.
func runPair(mk planeMaker, wfA, wfB *workflow.Workflow, rpsA, rpsB float64, dur time.Duration) (*cluster.App, *cluster.App) {
	e := sim.NewEngine()
	defer e.Close()
	c := cluster.New(e, topology.DGXV100(), 1, mk.mk)
	appA := c.Deploy(wfA, 0, scheduler.Options{Node: 0})
	appB := c.Deploy(wfB, 0, scheduler.Options{Node: 0})
	for _, at := range burstyTrace(rpsA, dur, 71) {
		at := at
		e.Schedule(at, func() { appA.Submit(cluster.Request{}) })
	}
	for _, at := range burstyTrace(rpsB, dur, 72) {
		at := at
		e.Schedule(at, func() { appB.Submit(cluster.Request{}) })
	}
	e.Run(0)
	return appA, appB
}

// Fig5bInterference reproduces Fig. 5(b): parallel-PCIe transfers without
// bandwidth partitioning (NVSHMEM+ with DeepPlan-style loading) suffer heavy
// interference when a latency-critical workflow is colocated with a
// transfer-intensive one.
func Fig5bInterference() *Table {
	dp := systems(13)[2] // deepplan+
	dur := 12 * time.Second
	t := &Table{
		ID:      "fig5b",
		Title:   "gFn-host latency (ms) with DeepPlan-style parallel PCIe, alone vs colocated",
		Columns: []string{"workload", "alone", "together", "slowdown"},
	}
	aloneD := runWorkload(dp, topology.DGXV100(), 1, workflow.Driving(), 0,
		scheduler.Options{Node: 0}, burstyTrace(6, dur, 71))
	aloneV := runWorkload(dp, topology.DGXV100(), 1, workflow.Video(), 0,
		scheduler.Options{Node: 0}, burstyTrace(24, dur, 72))
	togetherD, togetherV := runPair(dp, workflow.Driving(), workflow.Video(), 6, 24, dur)
	rowFor := func(name string, alone, together *cluster.App) {
		a := alone.XferHost.Mean()
		b := together.XferHost.Mean()
		t.Rows = append(t.Rows, []string{name, ms(a), ms(b), ratio(b.Seconds() / a.Seconds())})
	}
	rowFor("driving", aloneD, togetherD)
	rowFor("video", aloneV, togetherV)
	t.Notes = append(t.Notes,
		"paper: colocating the I/O-intensive video workflow inflates driving's gFn-host latency 3.65x")
	return t
}

// Fig17Partitioning reproduces Fig. 17: SLO-aware bandwidth partitioning
// protects a latency-critical workflow from a transfer-intensive neighbour
// (high contention) while adding no overhead when contention is low.
func Fig17Partitioning() *Table {
	dur := 12 * time.Second
	t := &Table{
		ID:      "fig17",
		Title:   "Bandwidth partitioning: driving latency and SLO compliance",
		Columns: []string{"pair", "system", "driving-p99", "gfn-host(ms)", "slo-compliance"},
	}
	full := planeMaker{"grouter", func(f *fabric.Fabric) dataplane.Plane {
		return core.New(f, core.FullConfig())
	}}
	noPart := planeMaker{"grouter-BH", func(f *fabric.Fabric) dataplane.Plane {
		cfg := core.FullConfig()
		cfg.NoRateControl = true
		return core.New(f, cfg)
	}}
	for _, pair := range []struct {
		label string
		other *workflow.Workflow
		rps   float64
	}{
		{"driving+video (high contention)", workflow.Video(), 24},
		{"driving+image (low contention)", workflow.Image(), 6},
	} {
		for _, sys := range []planeMaker{full, noPart} {
			drv, _ := runPair(sys, workflow.Driving(), pair.other, 6, pair.rps, dur)
			t.Rows = append(t.Rows, []string{
				pair.label, sys.name, ms(drv.E2E().P(0.99)), ms(drv.XferHost.Mean()), pct(drv.SLOCompliance()),
			})
		}
	}
	t.Notes = append(t.Notes,
		"paper: partitioning cuts driving latency 32% under high contention and is free under low contention",
		"SLO = 1.5x standalone execution, as in GPUlet")
	return t
}
