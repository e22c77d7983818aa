// Command grouter-sim runs one serverless inference workflow on a simulated
// GPU cluster under a chosen data plane and trace, printing latency
// percentiles, the passing/compute breakdown, and data-plane statistics.
//
// Usage:
//
//	grouter-sim -workflow traffic -system grouter -spec dgx-v100
//	grouter-sim -workflow video -system infless+ -rps 12 -dur 30s
//	grouter-sim -workflow image -trace-file arrivals.txt
//	grouter-sim -workflow image -dot          # emit the DAG as Graphviz
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"time"

	"grouter/internal/baselines"
	"grouter/internal/cluster"
	"grouter/internal/core"
	"grouter/internal/dataplane"
	"grouter/internal/fabric"
	"grouter/internal/models"
	"grouter/internal/obs"
	"grouter/internal/router"
	"grouter/internal/scheduler"
	"grouter/internal/sim"
	"grouter/internal/topology"
	"grouter/internal/trace"
	"grouter/internal/workflow"
)

// simConfig holds one fully-resolved simulation run. Everything in here is
// deterministic: the same config produces byte-identical report output,
// which is what the golden-trace test pins.
type simConfig struct {
	wf       *workflow.Workflow
	system   string
	spec     *topology.Spec
	nodes    int
	slots    int
	batch    int
	split    bool
	pattern  trace.Pattern
	rps      float64
	dur      time.Duration
	seed     int64
	arrivals []time.Duration // non-nil overrides the generated trace
	traceOut io.Writer       // non-nil enables span tracing and receives the export
	sloHigh  time.Duration   // -slo-high: QoSHigh admission budget (0 = off)
	sloLow   time.Duration   // -slo-low: QoSLow admission budget (0 = off)
	sloDefer time.Duration   // -slo-defer: delay-queue bound before shedding
	pdModel  string          // -pd mode: the served LLM
}

func main() {
	wfName := flag.String("workflow", "traffic", "workflow: traffic, driving, video, image")
	wfFile := flag.String("workflow-file", "", "load a custom workflow definition (JSON) instead")
	system := flag.String("system", "grouter", "data plane: grouter, infless+, nvshmem+, deepplan+")
	specName := flag.String("spec", "dgx-v100", "topology: dgx-v100, dgx-a100, h800x8, quad-a10")
	nodes := flag.Int("nodes", 1, "node count")
	split := flag.Bool("split", false, "split stages across nodes")
	batch := flag.Int("batch", 0, "batch size (0 = workflow default)")
	pattern := flag.String("pattern", "bursty", "trace pattern: sporadic, periodic, bursty")
	rps := flag.Float64("rps", 8, "mean request rate")
	dur := flag.Duration("dur", 20*time.Second, "trace duration (virtual)")
	seed := flag.Int64("seed", 1, "random seed")
	slots := flag.Int("gpu-slots", 1, "concurrent functions per GPU (spatial sharing)")
	sloHigh := flag.Duration("slo-high", 0, "QoSHigh latency budget: attach a scored router with SLO admission control (0 = off); every 10th request is admitted QoSHigh")
	sloLow := flag.Duration("slo-low", 0, "QoSLow latency budget for SLO admission control (0 = no low-class budget)")
	sloDefer := flag.Duration("slo-defer", 5*time.Millisecond, "max delay-queue wait before a predicted SLO miss is shed")
	pd := flag.Bool("pd", false, "run LLM prefill/decode-disaggregated serving instead of a workflow (long prompts split across a PD pair, KV handoff over the data plane)")
	pdModel := flag.String("pd-model", "llama-7b", "with -pd: served model (llama-7b, llama-13b, qwen-32b, llama-70b)")
	traceFile := flag.String("trace-file", "", "read arrival offsets (one duration per line) instead of generating a trace")
	traceOut := flag.String("trace-out", "", "write a Chrome trace-event JSON of the run to this file (open in Perfetto)")
	dot := flag.Bool("dot", false, "print the workflow DAG as Graphviz and exit")
	flag.Parse()

	switch {
	case *rps < 0 || math.IsNaN(*rps) || math.IsInf(*rps, 0):
		fail("-rps must be a finite, non-negative rate, got %v", *rps)
	case *nodes < 1:
		fail("-nodes must be at least 1, got %d", *nodes)
	case *slots < 1:
		fail("-gpu-slots must be at least 1, got %d", *slots)
	case *batch < 0:
		fail("-batch must be non-negative (0 = workflow default), got %d", *batch)
	case *dur < 0:
		fail("-dur must be non-negative, got %v", *dur)
	case *sloHigh < 0:
		fail("-slo-high must be non-negative (0 = off), got %v", *sloHigh)
	case *sloLow < 0:
		fail("-slo-low must be non-negative (0 = no low-class budget), got %v", *sloLow)
	case *sloDefer < 0:
		fail("-slo-defer must be non-negative, got %v", *sloDefer)
	}
	var wf *workflow.Workflow
	if *wfFile != "" {
		loaded, err := workflow.LoadFile(*wfFile)
		if err != nil {
			fail("%v", err)
		}
		wf = loaded
	} else if wf = workflow.ByName(*wfName); wf == nil {
		fail("unknown workflow %q", *wfName)
	}
	if *dot {
		fmt.Print(wf.DOT())
		return
	}
	spec := topology.SpecByName(*specName)
	if spec == nil {
		fail("unknown topology %q", *specName)
	}
	pat, err := trace.ParsePattern(*pattern)
	if err != nil {
		fail("%v", err)
	}
	cfg := simConfig{
		wf: wf, system: *system, spec: spec,
		nodes: *nodes, slots: *slots, batch: *batch, split: *split,
		pattern: pat, rps: *rps, dur: *dur, seed: *seed,
		sloHigh: *sloHigh, sloLow: *sloLow, sloDefer: *sloDefer,
	}
	if *traceFile != "" {
		arrivals, err := loadTrace(*traceFile)
		if err != nil {
			fail("%v", err)
		}
		cfg.arrivals = arrivals
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fail("%v", err)
		}
		defer f.Close()
		cfg.traceOut = f
	}

	start := time.Now()
	if *pd {
		cfg.pdModel = *pdModel
	}
	if err := report(cfg, os.Stdout); err != nil {
		fail("%v", err)
	}
	// Wall-clock is the one non-deterministic line; it stays out of report
	// so the report above it is reproducible byte for byte.
	fmt.Printf("(sim ran in %v wall clock)\n", time.Since(start).Round(time.Millisecond))
}

// report runs the configured mode and writes its deterministic report to w:
// prefill/decode serving when cfg names a PD model (-pd), the workflow
// simulation otherwise.
func report(cfg simConfig, w io.Writer) error {
	if cfg.pdModel != "" {
		return runPD(cfg, w)
	}
	return runSim(cfg, w)
}

// runSim executes the configured simulation and writes the deterministic
// report to w.
func runSim(cfg simConfig, w io.Writer) error {
	mk, ok := planes(cfg.seed)[cfg.system]
	if !ok {
		return fmt.Errorf("unknown system %q", cfg.system)
	}
	engine := sim.NewEngine()
	defer engine.Close()
	var tracer *obs.Tracer
	if cfg.traceOut != nil {
		tracer = obs.Attach(engine)
	}
	c := cluster.NewSpatial(engine, cfg.spec, cfg.nodes, cfg.slots, mk)
	app := c.Deploy(cfg.wf, cfg.batch, scheduler.Options{Node: -1, SplitAcrossNodes: cfg.split, Seed: cfg.seed})
	arrivals, traceDesc := arrivalsOf(cfg)
	var rt *router.Router
	var reqAt func(int) cluster.Request
	if cfg.sloHigh > 0 || cfg.sloLow > 0 {
		// SLO admission needs the scored router: its cached worker snapshot
		// is what the completion predictor runs over.
		rcfg := router.DefaultConfig()
		rcfg.Seed = cfg.seed
		rcfg.SLO = router.SLOConfig{
			High: router.SLOClass{Budget: cfg.sloHigh, MaxDelay: cfg.sloDefer},
			Low:  router.SLOClass{Budget: cfg.sloLow, MaxDelay: cfg.sloDefer},
		}
		rt = router.New(app, rcfg)
		reqAt = func(i int) cluster.Request {
			if (i+1)%10 == 0 {
				return cluster.Request{QoS: cluster.QoSHigh}
			}
			return cluster.Request{}
		}
	}
	if _, err := app.Replay(arrivals, cluster.ReplaySpec{RequestAt: reqAt}); err != nil {
		return err
	}
	if cfg.traceOut != nil {
		if err := tracer.Export(cfg.traceOut); err != nil {
			return fmt.Errorf("trace export: %w", err)
		}
	}

	fmt.Fprintf(w, "workflow=%s system=%s spec=%s nodes=%d batch=%d trace=%s\n",
		cfg.wf.Name, cfg.system, cfg.spec.Name, cfg.nodes, app.Batch, traceDesc)
	fmt.Fprintf(w, "requests: %d completed\n", app.Completed)
	e2e := app.E2E()
	fmt.Fprintf(w, "latency:  p50=%s p90=%s p99=%s max=%s\n",
		mss(e2e.P(0.5)), mss(e2e.P(0.9)), mss(e2e.P(0.99)), mss(e2e.Max()))
	pass := app.XferGPU.Mean() + app.XferHost.Mean()
	comp := app.Compute.Mean()
	share := 0.0
	if pass+comp > 0 {
		share = pass.Seconds() / (pass + comp).Seconds()
	}
	fmt.Fprintf(w, "breakdown: gFn-gFn=%s gFn-host=%s compute=%s passing-share=%.0f%%\n",
		mss(app.XferGPU.Mean()), mss(app.XferHost.Mean()), mss(comp), share*100)
	fmt.Fprintf(w, "slo: %s, compliance %.0f%%\n", mss(app.SLO), app.SLOCompliance()*100)
	if rt != nil {
		rs := rt.Stats
		fmt.Fprintf(w, "admission: admits=%d defers=%d shed=%d (low=%d high=%d) attain-low=%.2f attain-high=%.2f\n",
			rs.Admits, rs.Defers, rs.ShedLow+rs.ShedHigh, rs.ShedLow, rs.ShedHigh,
			rt.Attainment(cluster.QoSLow), rt.Attainment(cluster.QoSHigh))
	}
	st := c.Plane.Stats()
	fmt.Fprintf(w, "data plane: %d puts, %d gets, %d copies, %.1f GiB moved, %d control ops\n",
		st.Puts, st.Gets, st.Copies, float64(st.BytesMoved)/float64(1<<30), st.ControlOps)
	return nil
}

// runPD executes the -pd mode: prefill/decode-disaggregated LLM serving on
// the configured cluster, with every 8th request a long-prompt (4096-token,
// session-tagged) request and the rest short interactive ones. Long prompts
// split across a prefill/decode pair with the KV cache handed off over the
// data plane; the report is deterministic byte for byte, like runSim's.
func runPD(cfg simConfig, w io.Writer) error {
	const (
		longPrompt  = 4096
		shortPrompt = 256
		outTokens   = 8
		longEvery   = 8
	)
	mk, ok := planes(cfg.seed)[cfg.system]
	if !ok {
		return fmt.Errorf("unknown system %q", cfg.system)
	}
	llm, err := models.LookupLLM(cfg.pdModel)
	if err != nil {
		return err
	}
	total := cfg.nodes * cfg.spec.NumGPUs
	if total < 3 {
		return fmt.Errorf("-pd needs at least 3 GPUs (1 prefill, 1 decode, 1 mixed), have %d", total)
	}
	engine := sim.NewEngine()
	defer engine.Close()
	var tracer *obs.Tracer
	if cfg.traceOut != nil {
		tracer = obs.Attach(engine)
	}
	c := cluster.NewSpatial(engine, cfg.spec, cfg.nodes, cfg.slots, mk)
	svc, err := c.DeployLLM(cluster.PDConfig{
		LLM:            llm,
		PrefillWorkers: 1, DecodeWorkers: 1, MixedWorkers: total - 2,
		DefaultOutTokens: outTokens,
	})
	if err != nil {
		return err
	}
	arrivals, traceDesc := arrivalsOf(cfg)
	st, err := svc.Replay(arrivals, cluster.ReplaySpec{RequestAt: func(i int) cluster.Request {
		req := cluster.Request{PromptTokens: shortPrompt, OutTokens: outTokens}
		if i%longEvery == 0 {
			req.PromptTokens = longPrompt
			req.Session = int64(i%16) + 1
		}
		return req
	}})
	if err != nil {
		return err
	}
	if cfg.traceOut != nil {
		if err := tracer.Export(cfg.traceOut); err != nil {
			return fmt.Errorf("trace export: %w", err)
		}
	}

	fmt.Fprintf(w, "pd-serving model=%s system=%s spec=%s nodes=%d pools=1/1/%d trace=%s\n",
		llm.Name, cfg.system, cfg.spec.Name, cfg.nodes, total-2, traceDesc)
	fmt.Fprintf(w, "mix: 1 in %d long (%d tokens, session-tagged), rest short (%d tokens), %d out\n",
		longEvery, longPrompt, shortPrompt, outTokens)
	fmt.Fprintf(w, "requests: %d completed\n", st.Completed)
	fmt.Fprintf(w, "latency:  p50=%s p99=%s ttft-p99=%s kv-xfer-mean=%s\n",
		mss(st.P50), mss(st.P99), mss(svc.TTFT.P(0.99)), mss(svc.KVXfer.Mean()))
	ps := svc.Stats
	fmt.Fprintf(w, "placement: colocated=%d disaggregated=%d overflows=%d\n",
		ps.Colocated, ps.Disaggregated, ps.Overflows)
	fmt.Fprintf(w, "handoff: kv-transfers=%d kv-moved=%.1f GiB recomputes=%d\n",
		ps.KVTransfers, float64(ps.KVBytes)/float64(1<<30), ps.Recomputes)
	fmt.Fprintf(w, "policy: decisions=%d long=%d short=%d affinity=%d\n",
		ps.Colocated+ps.Disaggregated, ps.Long, ps.Short, ps.Affinity)
	stp := c.Plane.Stats()
	fmt.Fprintf(w, "data plane: %d puts, %d gets, %d copies, %.1f GiB moved, %d control ops\n",
		stp.Puts, stp.Gets, stp.Copies, float64(stp.BytesMoved)/float64(1<<30), stp.ControlOps)
	return nil
}

// arrivalsOf returns the run's arrival offsets and their report label: the
// loaded trace file, or else a generated trace (an empty one is a valid
// no-op replay).
func arrivalsOf(cfg simConfig) ([]time.Duration, string) {
	if cfg.arrivals != nil {
		return cfg.arrivals, fmt.Sprintf("file(%d arrivals)", len(cfg.arrivals))
	}
	arrivals := trace.Generate(trace.Spec{Pattern: cfg.pattern, Duration: cfg.dur, MeanRPS: cfg.rps, Seed: cfg.seed})
	if arrivals == nil {
		arrivals = []time.Duration{}
	}
	return arrivals, fmt.Sprintf("%s(%.1f rps, %v)", cfg.pattern, cfg.rps, cfg.dur)
}

// loadTrace reads arrival offsets from a file: one Go duration per line,
// blank lines and '#' comments skipped. A file without arrivals is an error:
// an empty trace must not fall back to a generated one silently. So is a
// negative offset, which the replay would otherwise admit at time 0, and an
// offset below the one before it, which the replay rejects as unsorted: the
// error names the file and line.
func loadTrace(path string) ([]time.Duration, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []time.Duration
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		s := strings.TrimSpace(sc.Text())
		if s == "" || strings.HasPrefix(s, "#") {
			continue
		}
		d, err := time.ParseDuration(s)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %v", path, line, err)
		}
		if d < 0 {
			return nil, fmt.Errorf("%s:%d: negative arrival offset %v", path, line, d)
		}
		if n := len(out); n > 0 && d < out[n-1] {
			return nil, fmt.Errorf("%s:%d: arrival offset %v comes before the previous offset %v; offsets must not decrease", path, line, d, out[n-1])
		}
		out = append(out, d)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no arrivals", path)
	}
	return out, nil
}

func planes(seed int64) map[string]func(*fabric.Fabric) dataplane.Plane {
	return map[string]func(*fabric.Fabric) dataplane.Plane{
		"grouter":   func(f *fabric.Fabric) dataplane.Plane { return core.New(f, core.FullConfig()) },
		"infless+":  func(f *fabric.Fabric) dataplane.Plane { return baselines.NewINFless(f) },
		"nvshmem+":  func(f *fabric.Fabric) dataplane.Plane { return baselines.NewNVShmem(f, seed) },
		"deepplan+": func(f *fabric.Fabric) dataplane.Plane { return baselines.NewDeepPlan(f, seed) },
	}
}

func mss(d time.Duration) string {
	return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
}

func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "grouter-sim: "+format+"\n", args...)
	os.Exit(2)
}
