package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// testScale shrinks every workload to 1% so the suite runs in seconds.
const testScale = 0.01

func testConfig(t *testing.T, traced bool) config {
	return config{seed: 42, scale: testScale, traced: traced, shards: fleetShards, out: t.TempDir()}
}

// virtualOnly keeps the virtual-clock end-to-end metrics.
func virtualOnly(m map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for _, d := range endToEnd {
		if d.clock == "virtual" {
			out[d.name] = m[d.name]
		}
	}
	return out
}

func TestSpecMatchesCatalog(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(spec.Command, " "); got != "bash bench/run.sh" {
		t.Errorf("command %q", got)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the benchmark", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q vs %q", i, w.Name, workloads[i].name)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the benchmark %d+%d",
			len(spec.EndToEnd), len(spec.PerLayer), len(endToEnd), len(perLayer))
	}
	var setupBound, maxOther float64
	for i, m := range spec.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end_to_end %d: %+v vs %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		} else if m.Bound > maxOther {
			maxOther = m.Bound
		}
	}
	if setupBound < maxOther {
		t.Errorf("setup_s bound %v is not the largest (%v)", setupBound, maxOther)
	}
	for i, m := range spec.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer %d: %+v vs %+v", i, m, d)
		}
	}
}

// TestWorkloads runs every workload at 1% size, untraced and traced, and
// checks the correctness gate, that every metric is printed with its unit,
// and that a second same-seed run repeats every virtual metric.
func TestWorkloads(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			traced := runWorkload(w, testConfig(t, true))
			if len(traced.bad) > 0 {
				t.Fatalf("correctness gate: %v", traced.bad)
			}
			untraced := runWorkload(w, testConfig(t, false))
			if len(untraced.bad) > 0 {
				t.Fatalf("correctness gate: %v", untraced.bad)
			}
			if d := diffMetrics(virtualOnly(traced.e2e), virtualOnly(untraced.e2e)); d != "" {
				t.Errorf("same-seed runs differ: %s", d)
			}
			for _, r := range []*result{untraced, traced} {
				var out bytes.Buffer
				printResult(&out, r)
				checkPrinted(t, out.String(), r.layer != nil)
			}
		})
	}
}

// checkPrinted checks that every metric is printed by name with its unit, and
// that the last line is the JSON result holding exactly the metrics of the
// run's kind.
func checkPrinted(t *testing.T, out string, traced bool) {
	t.Helper()
	defs := endToEnd
	if traced {
		defs = append(append([]metricDef(nil), endToEnd...), perLayer...)
	}
	for _, d := range defs {
		re := regexp.MustCompile(`(?m)^  ` + regexp.QuoteMeta(d.name) + `\s+\S+ ` + regexp.QuoteMeta(d.unit) + `\s`)
		if !re.MatchString(out) {
			t.Errorf("%s not printed with unit %s", d.name, d.unit)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res jsonResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the JSON result: %v", err)
	}
	want := endToEnd
	if traced {
		want = perLayer
	}
	if !res.Correct || res.Attempted < 1 || len(res.Metrics) != len(want) {
		t.Errorf("result line: correct %v, attempted %d, %d metrics (want %d)", res.Correct, res.Attempted, len(res.Metrics), len(want))
	}
	for _, d := range want {
		if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
			t.Errorf("result line: %s missing or not in %s", d.name, d.unit)
		}
	}
}

// The shard count is an execution knob only: fleet-bursty's virtual metrics
// must not depend on it.
func TestFleetShardInvariant(t *testing.T) {
	w := workloadByName("fleet-bursty")
	one := testConfig(t, false)
	one.shards = 1
	a, b := runWorkload(w, one), runWorkload(w, testConfig(t, false))
	if len(a.bad)+len(b.bad) > 0 {
		t.Fatalf("correctness gate: %v %v", a.bad, b.bad)
	}
	if d := diffMetrics(virtualOnly(a.e2e), virtualOnly(b.e2e)); d != "" {
		t.Errorf("1 vs %d shards: %s", fleetShards, d)
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4), which
// judges the benchmark's spread.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{4, 1}, [3]float64{0.25, 2.5, 4.75}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		if got := quartiles(c.xs); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestParseTraces(t *testing.T) {
	out := `File: bench
Type: cpu
-----------+-------------------------------------------------------
      30ms   runtime.mallocgc
             grouter/internal/netsim.(*Network).recompute
             grouter/internal/sim.(*Engine).Run
-----------+-------------------------------------------------------
      10ms   runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
      50ms   sort.Slice
             grouter/internal/metrics.(*Latency).P
             main.virtualMetrics
-----------+-------------------------------------------------------
     1.01s   grouter/internal/kvcache.(*Cache).Get
`
	got, err := parseTraces([]byte(out))
	if err != nil {
		t.Fatal(err)
	}
	total := 1.1
	for l, want := range map[string]float64{"netsim": 0.03 / total, "runtime": 0.01 / total, "metrics": 0.05 / total, "other": 1.01 / total, "sim": 0} {
		if d := got[l] - want; d > 1e-9 || d < -1e-9 {
			t.Errorf("%s share %v, want %v", l, got[l], want)
		}
	}
}

func TestCompareLogs(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, p50s ...float64) string {
		var b strings.Builder
		for _, v := range p50s {
			b.WriteString("== replay-sporadic seed=1 n=1 reps=1 trace=0 ==\n")
			line, _ := json.Marshal(jsonResult{Correct: true, Attempted: 1, Metrics: map[string]jsonMetric{"p50_ms": {Value: v, Unit: "ms"}}})
			b.Write(append(line, '\n'))
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.log", 10, 10.1, 9.9)
	var out bytes.Buffer
	if code := compareLogs(&out, "../BENCHMARK.json", []string{base, write("same.log", 10, 10.05, 9.95)}); code != 0 {
		t.Errorf("equal runs: exit %d\n%s", code, out.String())
	}
	if code := compareLogs(&out, "../BENCHMARK.json", []string{base, write("slow.log", 20, 21, 19)}); code != 1 {
		t.Errorf("doubled p50: exit %d\n%s", code, out.String())
	}
}
