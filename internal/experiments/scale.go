package experiments

import (
	"fmt"
	"time"

	"grouter/internal/autoscale"
	"grouter/internal/cluster"
	"grouter/internal/obs"
	"grouter/internal/scheduler"
	"grouter/internal/sim"
	"grouter/internal/topology"
	"grouter/internal/trace"
	"grouter/internal/workflow"
)

// ScaleQuantum is the admission window the scale replays batch arrivals into
// (ReplaySpec.Quantum): at the 500 req/s trace mean it folds a handful of
// arrivals into each window, which is enough to amortize per-request control
// work without distorting the arrival process at the latency scales measured.
const ScaleQuantum = 10 * time.Millisecond

// scaleOut is the pool configuration of the replay experiments: a GPU
// stage's pool grows by one replica whenever its mean per-replica queue
// reaches 2, up to 4 replicas, and never shrinks.
var scaleOut = cluster.ElasticConfig{Scaler: autoscale.Reactive{ScaleOutDepth: 2}, Max: 4}

// ScaleTable replays generated traces through the driving workflow on a
// 2-node cluster and reports throughput, latency percentiles, and the
// aggregate critical-path shares per (pattern × system × scale) cell. Each
// pattern runs infless+ and grouter at requests/10 and grouter again at the
// full request count; a final bursty row moves grouter to H800 hardware.
// Everything is measured in virtual time, so the table is byte-identical
// across runs of the same build.
func ScaleTable(requests int) *Table {
	t := &Table{
		ID:    "ext-scale",
		Title: "Trace replay at scale (extension): driving workflow, batched admission",
		Columns: []string{"pattern", "system", "topology", "requests",
			"tput(req/s)", "p50(ms)", "p99(ms)", "queue", "xfer", "compute"},
	}
	small := requests / 10
	if small < 1 {
		small = 1
	}
	sys := systems(42)
	infless, grouter := sys[0], sys[3]
	type run struct {
		pattern trace.Pattern
		sys     planeMaker
		spec    *topology.Spec
		topo    string
		n       int
	}
	var runs []run
	for _, p := range []trace.Pattern{trace.Sporadic, trace.Periodic, trace.Bursty} {
		runs = append(runs,
			run{p, infless, topology.DGXV100(), "dgx-v100 x2", small},
			run{p, grouter, topology.DGXV100(), "dgx-v100 x2", small},
			run{p, grouter, topology.DGXV100(), "dgx-v100 x2", requests},
		)
	}
	runs = append(runs, run{trace.Bursty, grouter, topology.H800x8(), "h800 x2", requests})
	for _, r := range runs {
		arrivals := trace.Generate(trace.Spec{
			Pattern:  r.pattern,
			Duration: time.Duration(float64(r.n) / 500 * float64(time.Second)),
			MeanRPS:  500,
			Seed:     42,
		})
		e := sim.NewEngine()
		c := cluster.New(e, r.spec, 2, r.sys.mk)
		app := c.Deploy(workflow.Driving(), 1, scheduler.Options{Node: 0, SplitAcrossNodes: true})
		app.EnableElastic(scaleOut)
		bd := app.EnableBreakdown()
		st := replay(app, arrivals, cluster.ReplaySpec{Quantum: ScaleQuantum})
		e.Close()
		queue, xfer, compute := breakdownShares(bd)
		t.Rows = append(t.Rows, []string{
			r.pattern.String(), r.sys.name, r.topo, fmt.Sprint(st.Requests),
			fmt.Sprintf("%.1f", st.Throughput), ms(st.P50), ms(st.P99),
			pct(queue), pct(xfer), pct(compute),
		})
	}
	t.Notes = append(t.Notes,
		"extension (not a paper figure): the replay scale experiment behind BenchmarkScaleReplay",
		fmt.Sprintf("arrivals admitted in %v windows (Replay batched admission); autoscaler on", ScaleQuantum),
		"queue/xfer/compute are critical-path shares aggregated over all completed requests")
	return t
}

// breakdownShares aggregates a Breakdown into critical-path time shares:
// queueing, data passing (setup + transfer + retry + migration), and compute.
func breakdownShares(b *cluster.Breakdown) (queue, xfer, compute float64) {
	var tot [obs.NumBuckets]time.Duration
	var sum time.Duration
	for i := range b.Requests {
		for c, d := range b.Requests[i].Buckets {
			tot[c] += d
			sum += d
		}
	}
	if sum <= 0 {
		return 0, 0, 0
	}
	x := tot[obs.CatSetup] + tot[obs.CatTransfer] + tot[obs.CatRetry] + tot[obs.CatMigrate]
	s := sum.Seconds()
	return tot[obs.CatQueue].Seconds() / s, x.Seconds() / s, tot[obs.CatCompute].Seconds() / s
}
