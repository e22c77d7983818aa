package experiments

import (
	"fmt"
	"time"

	"grouter/internal/autoscale"
	"grouter/internal/cluster"
	"grouter/internal/scheduler"
	"grouter/internal/sim"
	"grouter/internal/topology"
	"grouter/internal/trace"
	"grouter/internal/workflow"
)

// elasticStrategy is one fleet-sizing policy of the ext-elastic comparison.
type elasticStrategy struct {
	name string
	cfg  cluster.ElasticConfig
}

// elasticStrategies returns the compared policies: a peak-provisioned fixed
// fleet (Min = Max = 4, the capacity the reactive policy may grow into) and
// three elastic policies that pay for capacity only while load demands it.
func elasticStrategies() []elasticStrategy {
	const (
		maxReplicas = 4
		interval    = 100 * time.Millisecond
		inCooldown  = 500 * time.Millisecond
	)
	return []elasticStrategy{
		{"fixed", cluster.ElasticConfig{
			Scaler: autoscale.Fixed{Replicas: maxReplicas},
			Min:    maxReplicas, Max: maxReplicas, Interval: interval,
		}},
		{"reactive", cluster.ElasticConfig{
			Scaler: autoscale.Reactive{ScaleOutDepth: 2, ScaleIn: true},
			Min:    1, Max: maxReplicas, Interval: interval,
			ScaleInCooldown: inCooldown,
		}},
		{"target-util", cluster.ElasticConfig{
			Scaler: autoscale.TargetUtilization{PerInstance: 1.5},
			Min:    1, Max: maxReplicas, Interval: interval,
			ScaleInCooldown: inCooldown,
		}},
		{"predictive", cluster.ElasticConfig{
			Scaler: autoscale.Predictive{PerInstance: 1.5, Lead: 2},
			Min:    1, Max: maxReplicas, Interval: interval,
			ScaleInCooldown: inCooldown,
		}},
	}
}

// elasticResult is one strategy's replay outcome.
type elasticResult struct {
	st         cluster.ReplayStats
	es         cluster.ElasticStats
	gpuSeconds float64
	coldStarts int64
}

// elasticReplay replays one generated trace through the driving workflow on
// a 2-node DGX-V100 cluster under one elastic configuration. Cold starts are
// on (200 ms container latency, pre-warmed base instances) and scale-out
// provisions in the background, so elasticity pays realistic provisioning
// latency. A one-second settling window before the replay lets each strategy
// reach its declared floor — the fixed fleet is fully provisioned when the
// first request arrives, exactly the peak-provisioned baseline it models.
func elasticReplay(pattern trace.Pattern, requests int, cfg cluster.ElasticConfig) elasticResult {
	arrivals := trace.Generate(trace.Spec{
		Pattern:  pattern,
		Duration: time.Duration(float64(requests) / 500 * float64(time.Second)),
		MeanRPS:  500,
		Seed:     42,
	})
	e := sim.NewEngine()
	defer e.Close()
	c := cluster.New(e, topology.DGXV100(), 2, systems(42)[3].mk)
	app := c.Deploy(workflow.Driving(), 1, scheduler.Options{Node: 0, SplitAcrossNodes: true})
	app.SetColdStart(cluster.ColdStartPolicy{
		Enabled:          true,
		ContainerLatency: 200 * time.Millisecond,
		KeepAlive:        30 * time.Second,
		Prewarm:          true,
	})
	ep := app.EnableElastic(cfg)
	e.Run(time.Second)
	st := replay(app, arrivals, cluster.ReplaySpec{Quantum: ScaleQuantum})
	return elasticResult{
		st:         st,
		es:         ep.Stats,
		gpuSeconds: ep.GPUSeconds(),
		coldStarts: app.ColdStarts(),
	}
}

// ElasticTable compares fleet-sizing strategies on the same replayed traces:
// per pattern, the identical arrival trace under a peak-provisioned fixed
// fleet and the three autoscalers, reporting the GPU-seconds each fleet
// consumed against the latency it delivered. Everything is measured in
// virtual time, so the table is byte-identical across runs of the same
// build.
func ElasticTable(requests int) *Table {
	t := &Table{
		ID:    "ext-elastic",
		Title: "Elastic pools (extension): GPU-seconds vs p99 per autoscale strategy, driving workflow",
		Columns: []string{"pattern", "strategy", "requests", "gpu-sec",
			"tput(req/s)", "p50(ms)", "p99(ms)", "scale-out", "scale-in", "cold"},
	}
	for _, p := range []trace.Pattern{trace.Sporadic, trace.Periodic, trace.Bursty} {
		for _, s := range elasticStrategies() {
			r := elasticReplay(p, requests, s.cfg)
			t.Rows = append(t.Rows, []string{
				p.String(), s.name, fmt.Sprint(r.st.Requests),
				fmt.Sprintf("%.1f", r.gpuSeconds),
				fmt.Sprintf("%.1f", r.st.Throughput), ms(r.st.P50), ms(r.st.P99),
				fmt.Sprint(r.es.ScaleOuts), fmt.Sprint(r.es.ScaleIns),
				fmt.Sprint(r.coldStarts),
			})
		}
	}
	t.Notes = append(t.Notes,
		"extension (not a paper figure): pluggable autoscalers over per-stage instance pools",
		"fixed = peak-provisioned fleet (4 replicas per GPU stage); elastic strategies bound [1, 4]",
		"cold starts on (200 ms container latency), scale-out pre-warms in the background",
		fmt.Sprintf("same traces for every strategy (seed 42, 500 req/s mean, %v admission windows)", ScaleQuantum))
	return t
}
