package experiments

import (
	"fmt"
	"time"

	"grouter/internal/cluster"
	"grouter/internal/router"
	"grouter/internal/sim"
	"grouter/internal/trace"
)

// SLO budgets for the driving workflow at the replay's 500 req/s on a
// 2-node DGX-V100: the high class targets a tight interactive budget just
// above the uncongested p50 (~9ms), the low class a looser one an order of
// magnitude up. Under the bursty pattern the pipeline predictor sees the
// bottleneck stage's queue during burst peaks and sheds, keeping admitted
// requests inside budget instead of letting the whole batch drag the tail
// past a second.
const (
	sloHighBudget = 25 * time.Millisecond
	sloLowBudget  = 150 * time.Millisecond
	sloHighDelay  = 4 * time.Millisecond
	sloLowDelay   = 20 * time.Millisecond
)

// sloMode selects one admission configuration of the comparison.
type sloMode int

const (
	sloBaseline sloMode = iota // PR 7 scored router, no SLO, no affinity
	sloAdmit                   // + per-class SLO admission control
	sloAffinity                // + session-affinity scoring term
)

func (m sloMode) String() string {
	switch m {
	case sloAdmit:
		return "slo"
	case sloAffinity:
		return "slo+affinity"
	}
	return "baseline"
}

// sloRun is one replay cell of the SLO comparison.
type sloRun struct {
	st      cluster.ReplayStats
	rs      router.Stats
	hiP99   time.Duration
	loP99   time.Duration
	hiAtt   float64 // fraction of completed high-class requests within budget
	goodput float64 // SLO-met completions per second of virtual time
}

// sloConfig returns the router configuration of one mode.
func sloConfig(m sloMode) router.Config {
	cfg := router.DefaultConfig()
	if m >= sloAdmit {
		cfg.SLO = router.SLOConfig{
			High: router.SLOClass{Budget: sloHighBudget, MaxDelay: sloHighDelay},
			Low:  router.SLOClass{Budget: sloLowBudget, MaxDelay: sloLowDelay},
		}
	}
	if m >= sloAffinity {
		cfg.Weights.Session = 2
	}
	return cfg
}

// sloReplay replays one generated trace through the driving workflow on a
// scale pod (a 2-node DGX-V100 cluster, autoscaler on, batched admission)
// behind a scored router in the given admission mode. Every 5th request is
// QoSHigh and every request carries one of 64 rotating session identities,
// so both the admission predictor and the affinity term see realistic
// traffic.
func sloReplay(pattern trace.Pattern, requests int, mode sloMode) sloRun {
	e := sim.NewEngine()
	defer e.Close()
	app := scalePod(0, e)
	rt := router.New(app, sloConfig(mode))
	st := replay(app, scaleArrivals(pattern, requests), cluster.ReplaySpec{
		Quantum: ScaleQuantum,
		RequestAt: func(i int) cluster.Request {
			req := cluster.Request{Session: int64(i%64) + 1}
			if (i+1)%5 == 0 {
				req.QoS = cluster.QoSHigh
			}
			return req
		},
	})
	r := sloRun{st: st, rs: rt.Stats}
	hi := &app.E2EClass[cluster.QoSHigh]
	lo := &app.E2EClass[cluster.QoSLow]
	r.hiP99 = hi.P(0.99)
	r.loP99 = lo.P(0.99)
	if hi.Count() > 0 {
		r.hiAtt = hi.FractionUnder(sloHighBudget)
	}
	// Goodput is SLO-met completions per virtual second — the standard
	// admission-control figure of merit. Under overload, shedding hopeless
	// requests trades raw completions for completions that arrive inside
	// their budget, so raw throughput alone would hide the win.
	if st.Duration > 0 {
		met := hi.FractionUnder(sloHighBudget)*float64(hi.Count()) +
			lo.FractionUnder(sloLowBudget)*float64(lo.Count())
		r.goodput = met / st.Duration.Seconds()
	}
	return r
}

// SLOTable compares the PR 7 scored router against SLO-aware admission
// control (and the session-affinity scoring term) on the same traces: per
// pattern, the identical arrival trace replayed per mode. Everything is
// measured in virtual time, so the table is byte-identical across runs of
// the same build.
func SLOTable(requests int) *Table {
	t := &Table{
		ID:    "ext-slo",
		Title: "SLO-aware admission + session affinity (extension): shed/defer vs baseline router, driving workflow",
		Columns: []string{"pattern", "admission", "requests", "completed",
			"shed", "deferred", "goodput(met/s)", "hi-p99(ms)", "hi-attain",
			"lo-p99(ms)", "aff-hits"},
	}
	for _, p := range []trace.Pattern{trace.Sporadic, trace.Periodic, trace.Bursty} {
		for _, m := range []sloMode{sloBaseline, sloAdmit, sloAffinity} {
			r := sloReplay(p, requests, m)
			t.Rows = append(t.Rows, []string{
				p.String(), m.String(), fmt.Sprint(r.st.Requests),
				fmt.Sprint(r.st.Completed), fmt.Sprint(r.st.Shed),
				fmt.Sprint(r.rs.Defers), fmt.Sprintf("%.1f", r.goodput),
				ms(r.hiP99), fmt.Sprintf("%.3f", r.hiAtt), ms(r.loP99),
				fmt.Sprint(r.rs.AffinityHits),
			})
		}
	}
	t.Notes = append(t.Notes,
		"extension (not a paper figure): per-class SLO admission (predicted completion = per-stage min of (queue+pending+1) x EWMA, summed over the pipeline) with bounded deferral and shedding",
		fmt.Sprintf("budgets: high %v (defer <= %v), low %v (defer <= %v); every 5th request QoSHigh; 64 rotating sessions", sloHighBudget, sloHighDelay, sloLowBudget, sloLowDelay),
		"hi-attain = fraction of completed high-class requests inside budget; goodput = SLO-met completions per virtual second (sheds counted separately)",
		fmt.Sprintf("same traces per mode (seed 42, 500 req/s mean, %v admission windows); autoscaler on", ScaleQuantum))
	return t
}
