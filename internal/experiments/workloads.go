package experiments

import (
	"fmt"
	"time"

	"grouter/internal/cluster"
	"grouter/internal/core"
	"grouter/internal/dataplane"
	"grouter/internal/fabric"
	"grouter/internal/scheduler"
	"grouter/internal/sim"
	"grouter/internal/topology"
	"grouter/internal/trace"
	"grouter/internal/workflow"
)

// runWorkload deploys wf on a fresh cluster with the given plane and drives
// it with a trace; it returns the app with populated metrics.
func runWorkload(mk planeMaker, spec *topology.Spec, nodes int, wf *workflow.Workflow, batch int,
	opt scheduler.Options, arrivals []time.Duration) *cluster.App {
	e := sim.NewEngine()
	defer e.Close()
	c := cluster.New(e, spec, nodes, mk.mk)
	app := c.Deploy(wf, batch, opt)
	replay(app, arrivals, cluster.ReplaySpec{})
	return app
}

// replay runs the trace through app's typed-request replay until the engine
// drains. An empty generated trace is a valid no-op replay.
func replay(app *cluster.App, arrivals []time.Duration, spec cluster.ReplaySpec) cluster.ReplayStats {
	if arrivals == nil {
		arrivals = []time.Duration{}
	}
	st, err := app.Replay(arrivals, spec)
	if err != nil {
		panic(err)
	}
	return st
}

// burstyTrace is the shared workload driver (Azure-like bursty pattern).
func burstyTrace(rps float64, dur time.Duration, seed int64) []time.Duration {
	return trace.Generate(trace.Spec{Pattern: trace.Bursty, Duration: dur, MeanRPS: rps, Seed: seed})
}

// Fig3Breakdown reproduces Fig. 3: the latency breakdown of host-centric
// data passing on INFless+ — per workflow, and for Traffic across batch
// sizes.
func Fig3Breakdown() *Table {
	t := &Table{
		ID:      "fig3",
		Title:   "Host-centric (INFless+) latency breakdown on DGX-V100",
		Columns: []string{"workload", "batch", "gfn-host", "gfn-gfn", "compute", "passing-share"},
	}
	infless := systems(1)[0]
	addRow := func(wf *workflow.Workflow, batch int) {
		app := runWorkload(infless, topology.DGXV100(), 1, wf, batch,
			scheduler.Options{Node: -1}, burstyTrace(4, 10*time.Second, 21))
		host := app.XferHost.Mean()
		gpu := app.XferGPU.Mean()
		comp := app.Compute.Mean()
		total := host + gpu + comp
		share := 0.0
		if total > 0 {
			share = (host + gpu).Seconds() / total.Seconds()
		}
		b := batch
		if b <= 0 {
			b = wf.Batch
		}
		t.Rows = append(t.Rows, []string{wf.Name, fmt.Sprint(b), ms(host), ms(gpu), ms(comp), pct(share)})
	}
	for _, wf := range workflow.Suite() {
		addRow(wf, 0)
	}
	for _, batch := range []int{1, 16, 32, 64} {
		addRow(workflow.Traffic(), batch)
	}
	t.Notes = append(t.Notes,
		"paper: data passing accounts for up to 92% of end-to-end latency (63% gFn-gFn, 29% gFn-host)",
		"columns are per-request mean sums; passing-share = passing/(passing+compute)")
	return t
}

// Fig14EndToEnd reproduces Fig. 14: P99 end-to-end latency of the workflow
// suite on both testbeds across all four systems.
func Fig14EndToEnd() *Table {
	t := &Table{
		ID:      "fig14",
		Title:   "End-to-end P99 latency (ms) under a bursty Azure-like trace",
		Columns: []string{"testbed", "workload", "infless+", "nvshmem+", "deepplan+", "grouter", "reduction"},
	}
	for _, spec := range []*topology.Spec{topology.DGXV100(), topology.DGXA100()} {
		for _, wf := range workflow.Suite() {
			row := []string{spec.Name, wf.Name}
			var best, grt time.Duration
			for _, sys := range systems(7) {
				app := runWorkload(sys, spec, 1, wf, 0,
					scheduler.Options{Node: -1}, burstyTrace(6, 15*time.Second, 33))
				p99 := app.E2E().P(0.99)
				row = append(row, ms(p99))
				if sys.name == "grouter" {
					grt = p99
				} else if best == 0 || p99 < best {
					best = p99
				}
			}
			row = append(row, pct(1-grt.Seconds()/best.Seconds()))
			t.Rows = append(t.Rows, row)
		}
	}
	t.Notes = append(t.Notes,
		"paper: GROUTER cuts P99 by 48-61% (V100) and 30-53% (A100) vs baselines",
		"reduction compares GROUTER with the best baseline per row")
	return t
}

// Fig15Throughput reproduces Fig. 15: maximum sustained throughput with
// functions colocated on one node and split across two nodes.
func Fig15Throughput() *Table {
	t := &Table{
		ID:      "fig15",
		Title:   "Max throughput (req/s) on DGX-V100, closed loop",
		Columns: []string{"placement", "workload", "infless+", "nvshmem+", "deepplan+", "grouter", "speedup"},
	}
	for _, split := range []bool{false, true} {
		placement := "same-node"
		nodes := 1
		if split {
			placement = "cross-node"
			nodes = 2
		}
		for _, wf := range workflow.Suite() {
			row := []string{placement, wf.Name}
			var best, grt float64
			for _, sys := range systems(9) {
				e := sim.NewEngine()
				c := cluster.New(e, topology.DGXV100(), nodes, sys.mk)
				app := c.Deploy(wf, 0, scheduler.Options{Node: -1, SplitAcrossNodes: split})
				tput := app.MeasureThroughput(24, 10*time.Second)
				e.Close()
				row = append(row, fmt.Sprintf("%.1f", tput))
				if sys.name == "grouter" {
					grt = tput
				} else if tput > best {
					best = tput
				}
			}
			row = append(row, ratio(grt/best))
			t.Rows = append(t.Rows, row)
		}
	}
	t.Notes = append(t.Notes,
		"paper: same-node speedups 1.37-2.1x, cross-node 1.39-2.73x vs baselines",
		"speedup compares GROUTER with the best baseline per row")
	return t
}

// Fig16Ablation reproduces Fig. 16: disabling GROUTER's optimizations one by
// one (cumulative, in the paper's order ES → TA → BH → UF) and measuring the
// average data-passing latency under a bursty workload.
func Fig16Ablation() *Table {
	variants := []struct {
		name string
		cfg  core.Config
	}{
		{"grouter", core.FullConfig()},
		{"-ES", core.Config{UnifiedFramework: true, BandwidthHarvest: true, TopoAware: true}},
		{"-ES-TA", core.Config{UnifiedFramework: true, BandwidthHarvest: true}},
		{"-ES-TA-BH", core.Config{UnifiedFramework: true}},
		{"-ES-TA-BH-UF", core.Config{}},
	}
	t := &Table{
		ID:      "fig16",
		Title:   "Ablation: avg data-passing latency (ms) per request, bursty workload",
		Columns: []string{"testbed", "variant", "passing(ms)", "vs grouter"},
	}
	for _, spec := range []*topology.Spec{topology.DGXV100(), topology.DGXA100()} {
		var baseline time.Duration
		for _, v := range variants {
			v := v
			spec := spec
			mk := planeMaker{name: v.name, mk: func(f *fabric.Fabric) dataplane.Plane {
				cfg := v.cfg
				// Static pools are conventionally sized at a fixed fraction
				// of device memory.
				cfg.StaticReserve = spec.GPUMemBytes / 8
				return core.New(f, cfg)
			}}
			e := sim.NewEngine()
			c := cluster.New(e, spec, 1, mk.mk)
			// Co-resident models leave 20% of GPU memory free: real
			// multi-tenant pressure, so the storage policies matter.
			c.SqueezeGPUMemory(spec.GPUMemBytes / 4)
			app := c.Deploy(workflow.Traffic(), 16, scheduler.Options{Node: -1})
			app.MeasureThroughput(48, 10*time.Second)
			e.Close()
			passing := app.XferGPU.Mean() + app.XferHost.Mean()
			if v.name == "grouter" {
				baseline = passing
			}
			t.Rows = append(t.Rows, []string{spec.Name, v.name, ms(passing), ratio(passing.Seconds() / baseline.Seconds())})
		}
	}
	t.Notes = append(t.Notes,
		"paper: removing everything raises latency 1.57-1.82x (V100) and 1.30-1.61x (A100)")
	return t
}
