// Command bench is the repository benchmark. It runs four workloads through
// the simulator's packages, checks their outputs, and prints every metric by
// name with its unit and clock: host (the simulator's own wall-clock and
// allocation cost) or virtual (the modelled serving system's time).
//
// Run it from the repository root with bench/run.sh, which builds it:
//
//	bash bench/run.sh --workload replay-sporadic --seed 42 --seconds 15 --trace 0
//	bash bench/run.sh --workload all --trace 1
//	bash bench/run.sh -compare before.log after.log
//
// The last line of a run is one JSON object with the keys correct,
// attempted, failed and metrics: the end-to-end metrics with --trace 0, the
// per-layer metrics with --trace 1. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

const (
	// setupSamples is how many set-ups a run times at least; setup_s is
	// their median.
	setupSamples = 5
	// warmupFrac sizes the untimed warm-up run.
	warmupFrac = 0.05
)

type config struct {
	seed    int64
	seconds float64 // measurement budget: full-size repetitions that fit, at least one
	traced  bool
	scale   float64 // multiplies every workload's request count
	shards  int     // fleet-bursty engine shards
	out     string  // directory for the traced run's artifacts
}

func main() {
	name := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Int64("seed", 42, "input seed; 7 is held out for checking claims")
	seconds := flag.Float64("seconds", 15, "measurement budget in seconds: as many full-size repetitions as fit, at least one")
	traceFlag := flag.Int("trace", 0, "1 adds the traced run and prints the per-layer metrics")
	scale := flag.Float64("scale", 1, "multiply every workload's request count")
	out := flag.String("out", filepath.Join(".bench_build", "trace"), "directory for the traced run's Chrome trace and CPU profile")
	compare := flag.Bool("compare", false, "compare two files of benchmark output: -compare a.log b.log")
	flag.Parse()

	if *compare {
		os.Exit(compareLogs(os.Stdout, "BENCHMARK.json", flag.Args()))
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fail("-trace must be 0 or 1")
	}
	if *scale <= 0 || *seconds < 0 {
		fail("-scale must be positive and -seconds non-negative")
	}
	var todo []*workload
	if *name == "all" {
		for i := range workloads {
			todo = append(todo, &workloads[i])
		}
	} else if w := workloadByName(*name); w != nil {
		todo = append(todo, w)
	} else {
		fail(fmt.Sprintf("unknown workload %q", *name))
	}
	cfg := config{seed: *seed, seconds: *seconds, traced: *traceFlag == 1, scale: *scale, shards: fleetShards, out: *out}
	if cfg.traced {
		if err := os.MkdirAll(cfg.out, 0o755); err != nil {
			fail(err.Error())
		}
	}
	ok := true
	for _, w := range todo {
		r := runWorkload(w, cfg)
		printResult(os.Stdout, r)
		ok = ok && len(r.bad) == 0
	}
	if !ok {
		os.Exit(1)
	}
}

func fail(msg string) {
	fmt.Fprintln(os.Stderr, "bench:", msg)
	os.Exit(2)
}

// result is one workload's measurement.
type result struct {
	w       *workload
	cfg     config
	n, reps int
	o       outcome            // first timed repetition
	rate    float64            // host_req_per_s: median over repetitions
	e2e     map[string]float64 // host and virtual end-to-end metrics
	layer   map[string]float64 // traced run only
	files   []string           // traced run artifacts
	bad     []string           // failed correctness checks
}

// runWorkload warms up, times the set-ups, runs as many full-size timed
// repetitions as fit in cfg.seconds (at least one) and, with cfg.traced,
// one traced run.
func runWorkload(w *workload, cfg config) *result {
	n := int(math.Round(float64(w.n) * cfg.scale))
	if n < 1 {
		n = 1
	}
	opts := runOpts{seed: cfg.seed, n: n, shards: cfg.shards}
	r := &result{w: w, cfg: cfg, n: n}

	warm := opts
	warm.n = int(math.Max(1, math.Round(float64(n)*warmupFrac)))
	inst := w.setup(warm)
	inst.run()
	inst.close()

	var setups, gens []float64
	setup := func(o runOpts) instance {
		runtime.GC() // so no set-up pays for collecting an earlier one
		t0 := time.Now()
		inst := w.setup(o)
		setups = append(setups, time.Since(t0).Seconds())
		gens = append(gens, inst.genTime().Seconds())
		return inst
	}
	for i := 0; i < setupSamples-1; i++ {
		setup(opts).close()
	}

	var rates, allocs, heaps, walls, pcts []float64
	var virtual map[string]float64
	var measured time.Duration
	for {
		inst := setup(opts)
		runtime.GC()
		var m0, m1, m2 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		o := inst.run()
		wall := time.Since(t0)
		runtime.ReadMemStats(&m1)
		runtime.GC()
		runtime.ReadMemStats(&m2) // the workload is still reachable
		v, pct := virtualMetrics(o)
		r.bad = append(r.bad, inst.check()...)
		inst.close()

		rates = append(rates, float64(o.sent)/wall.Seconds())
		allocs = append(allocs, float64(m1.TotalAlloc-m0.TotalAlloc)/float64(o.sent))
		heaps = append(heaps, float64(m2.HeapAlloc)/(1<<20))
		walls = append(walls, wall.Seconds())
		pcts = append(pcts, pct.Seconds())
		if r.reps == 0 {
			r.o, virtual = o, v
		} else if d := diffMetrics(virtual, v); d != "" {
			r.bad = append(r.bad, fmt.Sprintf("reps-identical: repetition %d differs: %s", r.reps+1, d))
		}
		r.reps++
		measured += wall
		if (measured + wall).Seconds() > cfg.seconds {
			break
		}
	}
	r.rate = median(rates)
	r.e2e = map[string]float64{
		"setup_s":         median(setups),
		"alloc_b_per_req": median(allocs),
		"heap_live_mib":   median(heaps),
	}
	for k, v := range virtual {
		r.e2e[k] = v
	}
	if cfg.traced {
		r.traced(opts, virtual, median(walls), median(gens), median(pcts))
	}
	return r
}

// traced runs the workload once more with the observers installed and the
// CPU profiler on, and derives the per-layer metrics.
func (r *result) traced(opts runOpts, virtual map[string]float64, wall, gen, pct float64) {
	opts.traced = true
	base := filepath.Join(r.cfg.out, fmt.Sprintf("%s-seed%d", r.w.name, r.cfg.seed))
	prof := base + ".cpu.pprof"
	inst := r.w.setup(opts)
	defer inst.close()
	f, err := os.Create(prof)
	if err != nil {
		r.bad = append(r.bad, "cpu-profile: "+err.Error())
		return
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		r.bad = append(r.bad, "cpu-profile: "+err.Error())
		return
	}
	t0 := time.Now()
	o := inst.run()
	tracedWall := time.Since(t0)
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		r.bad = append(r.bad, "cpu-profile: "+err.Error())
	}

	v, _ := virtualMetrics(o)
	if d := diffMetrics(virtual, v); d != "" {
		r.bad = append(r.bad, "traced-equals-untraced: "+d)
	}
	r.bad = append(r.bad, inst.check()...)
	var ls layerStats
	inst.layers(&ls)
	r.layer = ls.layerMetrics(o.sent, o.span)
	r.layer["host_req_per_s"] = r.rate
	r.layer["sim.ns_per_event"] = ratio(wall*1e9, float64(ls.events))
	r.layer["setup.trace_s"] = gen
	r.layer["report.pct_s"] = pct
	r.layer["bench.trace_overhead_frac"] = r.rate/(float64(o.sent)/tracedWall.Seconds()) - 1

	shares, err := cpuShares(prof)
	if err != nil {
		r.bad = append(r.bad, "cpu-profile: "+err.Error())
	}
	for _, l := range cpuLayers {
		r.layer["cpu."+l] = shares[l]
	}
	chrome := base + ".trace.json"
	if err := writeChromeTrace(chrome, ls.probes); err != nil {
		r.bad = append(r.bad, "chrome-trace: "+err.Error())
	}
	r.files = append(r.files, chrome, prof)
}

// diffMetrics describes the first metric whose value differs, or "".
func diffMetrics(a, b map[string]float64) string {
	keys := make([]string, 0, len(a))
	for k := range a {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if bv, ok := b[k]; !ok || bv != a[k] {
			return fmt.Sprintf("%s %v vs %v", k, a[k], b[k])
		}
	}
	if len(a) != len(b) {
		return fmt.Sprintf("%d vs %d metrics", len(a), len(b))
	}
	return ""
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// jsonResult is the last output line of a run.
type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// printResult prints every metric by name with its unit and clock (or
// layer), the correctness verdict, and the JSON result line. A request shed
// by admission control is an admission outcome, not a failed operation: it
// shows in completed_frac and slo_attain, not in "failed".
func printResult(w io.Writer, r *result) {
	o := r.o
	fmt.Fprintf(w, "== %s seed=%d n=%d reps=%d trace=%d ==\n", r.w.name, r.cfg.seed, r.n, r.reps, b2i(r.cfg.traced))
	fmt.Fprintf(w, "  sent %d, completed %d, shed %d, errored %d; latency limit %s\n", o.sent, o.completed, o.shed, o.errored, r.w.limit)
	for _, d := range endToEnd {
		counts := ""
		if strings.HasPrefix(d.name, "p") && strings.HasSuffix(d.name, "_ms") {
			counts = fmt.Sprintf("  (sent %d, completed %d)", o.sent, o.completed)
		}
		fmt.Fprintf(w, "  %-38s %14.6g %-5s %s%s\n", d.name, r.e2e[d.name], d.unit, d.clock, counts)
	}
	if r.layer == nil {
		fmt.Fprintf(w, "  %-38s %14.6g %-5s %s\n", "host_req_per_s", r.rate, "1/s", "host (a per-layer metric)")
	} else {
		for _, d := range perLayer {
			fmt.Fprintf(w, "  %-38s %14.6g %-5s layer %s\n", d.name, r.layer[d.name], d.unit, d.layer)
		}
		for _, f := range r.files {
			fmt.Fprintf(w, "  wrote %s\n", f)
		}
	}
	res := jsonResult{Correct: len(r.bad) == 0, Attempted: o.sent, Failed: o.errored, Metrics: map[string]jsonMetric{}}
	defs, vals := endToEnd, r.e2e
	if r.layer != nil {
		defs, vals = perLayer, r.layer
	}
	for _, d := range defs {
		res.Metrics[d.name] = jsonMetric{Value: vals[d.name], Unit: d.unit}
	}
	if res.Correct {
		fmt.Fprintln(w, "  correctness: all checks passed")
	} else {
		for _, b := range r.bad {
			fmt.Fprintln(w, "  correctness FAILED:", b)
			fmt.Fprintf(os.Stderr, "bench: %s: correctness check failed: %s\n", r.w.name, b)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		panic(err) // every value is finite: ratio guards its divisions
	}
	fmt.Fprintln(w, string(line))
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
