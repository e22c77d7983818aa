package experiments

import (
	"fmt"
	"time"

	"grouter/internal/baselines"
	"grouter/internal/cluster"
	"grouter/internal/core"
	"grouter/internal/dataplane"
	"grouter/internal/fabric"
	"grouter/internal/scheduler"
	"grouter/internal/sim"
	"grouter/internal/store"
	"grouter/internal/topology"
	"grouter/internal/workflow"
)

// Fig7aMemoryTimeline reproduces Fig. 7(a): GPU memory behaviour of the
// storage layer while the driving workflow runs under an Azure-like bursty
// trace on 16 GB GPUs.
func Fig7aMemoryTimeline() *Table {
	e := sim.NewEngine()
	var plane *core.Plane
	c := cluster.New(e, topology.DGXV100(), 1, func(f *fabric.Fabric) dataplane.Plane {
		plane = core.New(f, core.FullConfig())
		return plane
	})
	app := c.Deploy(workflow.Driving(), 0, scheduler.Options{Node: 0})
	replay(app, burstyTrace(10, 30*time.Second, 77), cluster.ReplaySpec{})
	end := e.Now() // run horizon: the last sample holds until here
	e.Close()

	st := plane.Store(0)
	t := &Table{
		ID:      "fig7a",
		Title:   "Storage memory behaviour, driving workflow, bursty trace (30s)",
		Columns: []string{"metric", "value"},
	}
	t.Rows = append(t.Rows,
		[]string{"requests completed", fmt.Sprint(app.Completed)},
		[]string{"peak storage used (MiB)", mib(int64(st.UsedTL.Peak()))},
		[]string{"peak storage reserved (MiB)", mib(int64(st.ReservedTL.Peak()))},
		[]string{"mean storage used (MiB)", mib(int64(st.UsedTL.MeanUntil(end)))},
		[]string{"mean storage reserved (MiB)", mib(int64(st.ReservedTL.MeanUntil(end)))},
		[]string{"timeline samples", fmt.Sprint(st.UsedTL.Len())},
	)
	t.Notes = append(t.Notes,
		"paper: idle GPU memory fluctuates with the trace; elastic storage tracks actual demand",
		"reserved = demand-driven reservations floored at the 300 MB/GPU minimum pool (§4.4.1);",
		"compare fig20c, where static/symmetric pools hold the full static reserve regardless of demand")
	return t
}

// fig18Systems are the four storage strategies of Fig. 18.
func fig18Systems() []planeMaker {
	mkPolicy := func(name string, pol store.Policy) planeMaker {
		return planeMaker{name, func(f *fabric.Fabric) dataplane.Plane {
			cfg := core.FullConfig()
			cfg.StoreOverride = &store.Config{Elastic: true, Policy: pol}
			return core.New(f, cfg)
		}}
	}
	return []planeMaker{
		{"infless+", func(f *fabric.Fabric) dataplane.Plane { return baselines.NewINFless(f) }},
		mkPolicy("lru", store.PolicyLRU),
		mkPolicy("rq", store.PolicyRQ),
		mkPolicy("grouter", store.PolicyRQProactive),
	}
}

// runSqueezed runs traffic with GPU memory squeezed so the storage budget is
// ratio × GPU capacity, under a closed loop deep enough to accumulate
// intermediate data (the paper's data-accumulation condition of Fig. 7/18).
func runSqueezed(mk planeMaker, ratio float64) *cluster.App {
	e := sim.NewEngine()
	defer e.Close()
	c := cluster.New(e, topology.DGXV100(), 1, mk.mk)
	// Storage limit = 0.5 × free memory (the store's free fraction), so leave 2×ratio×cap
	// free to budget ratio×cap for storage.
	leave := int64(2 * ratio * float64(c.Spec().GPUMemBytes))
	c.SqueezeGPUMemory(leave)
	app := c.Deploy(workflow.Traffic(), 16, scheduler.Options{Node: 0})
	app.MeasureThroughput(48, 10*time.Second)
	return app
}

// Fig18ElasticStorage reproduces Fig. 18: latency under constrained GPU
// memory for INFless+, LRU, RQ, and full GROUTER (RQ + proactive
// migration).
func Fig18ElasticStorage() *Table {
	t := &Table{
		ID:      "fig18",
		Title:   "Elastic storage under memory pressure (traffic, bursty)",
		Columns: []string{"mem-ratio", "system", "p50(ms)", "p99(ms)", "avg gfn-gfn passing(ms)"},
	}
	// (a)+(c): detailed comparison at 10% memory.
	for _, sys := range fig18Systems() {
		app := runSqueezed(sys, 0.10)
		t.Rows = append(t.Rows, []string{"10%", sys.name,
			ms(app.E2E().P(0.5)), ms(app.E2E().P(0.99)), ms(app.XferGPU.Mean())})
	}
	// (b): GROUTER-policy P99 across availability ratios.
	for _, ratio := range []float64{0.01, 0.05, 0.25, 0.50} {
		for _, sys := range fig18Systems() {
			if sys.name == "rq" {
				continue // keep the sweep compact: paper highlights the extremes
			}
			app := runSqueezed(sys, ratio)
			t.Rows = append(t.Rows, []string{pct(ratio), sys.name,
				ms(app.E2E().P(0.5)), ms(app.E2E().P(0.99)), ms(app.XferGPU.Mean())})
		}
	}
	t.Notes = append(t.Notes,
		"paper (10%): GROUTER cuts tail latency 46%/27%/7% vs INFless+/LRU/RQ",
		"paper (1%): 24%/14%/9% e2e reduction; passing latency down 83%/72%/49%")
	return t
}

// Fig20cMemoryOverhead reproduces Fig. 20(c): GPU memory consumed by the
// storage layer under identical load for NVSHMEM+ symmetric allocation, a
// static pool, and GROUTER's elastic storage.
func Fig20cMemoryOverhead() *Table {
	type probe struct {
		name     string
		mk       func(f *fabric.Fabric) dataplane.Plane
		reserved func() int64
		used     func() int64
	}
	var probes []*probe
	mkGrouter := func(name string, elastic bool) *probe {
		pr := &probe{name: name}
		pr.mk = func(f *fabric.Fabric) dataplane.Plane {
			cfg := core.FullConfig()
			cfg.ElasticStore = elastic
			pl := core.New(f, cfg)
			pr.reserved = func() int64 { return int64(pl.Store(0).ReservedTL.Peak()) }
			pr.used = func() int64 { return int64(pl.Store(0).UsedTL.Peak()) }
			return pl
		}
		return pr
	}
	nv := &probe{name: "nvshmem+ (symmetric)"}
	nv.mk = func(f *fabric.Fabric) dataplane.Plane {
		pl := baselines.NewNVShmem(f, 17)
		nv.reserved = func() int64 { return int64(pl.Store(0).ReservedTL.Peak()) }
		nv.used = func() int64 { return int64(pl.Store(0).UsedTL.Peak()) }
		return pl
	}
	probes = append(probes, nv, mkGrouter("static pool", false), mkGrouter("grouter (elastic)", true))

	t := &Table{
		ID:      "fig20c",
		Title:   "Peak storage reservation vs actual demand (driving, bursty)",
		Columns: []string{"system", "peak reserved (MiB)", "peak used (MiB)", "overprovision"},
	}
	for _, pr := range probes {
		e := sim.NewEngine()
		c := cluster.New(e, topology.DGXV100(), 1, pr.mk)
		app := c.Deploy(workflow.Driving(), 16, scheduler.Options{Node: 0})
		replay(app, burstyTrace(30, 15*time.Second, 91), cluster.ReplaySpec{})
		e.Close()
		res, used := pr.reserved(), pr.used()
		over := "-"
		if used > 0 {
			over = ratio(float64(res) / float64(used))
		}
		t.Rows = append(t.Rows, []string{pr.name, mib(res), mib(used), over})
	}
	t.Notes = append(t.Notes,
		"paper: NVSHMEM symmetric allocation wastes the most; static pools hold ~4x demand; GROUTER scales to need")
	return t
}
