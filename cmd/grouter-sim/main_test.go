package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"grouter/internal/topology"
	"grouter/internal/trace"
	"grouter/internal/workflow"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden report fixtures")

// goldenConfigs are the pinned runs: the checked-in arrival trace through two
// data planes, and -pd serving on a generated bursty trace that saturates
// the prefill/decode pair of a quad-A10 box. Changing simulator timing on
// purpose requires regenerating the fixtures with -update-golden and
// reviewing the diff.
func goldenConfigs(t *testing.T) map[string]simConfig {
	t.Helper()
	arrivals, err := loadTrace(filepath.Join("testdata", "arrivals.txt"))
	if err != nil {
		t.Fatalf("loadTrace: %v", err)
	}
	wf := workflow.ByName("traffic")
	if wf == nil {
		t.Fatal("workflow traffic not registered")
	}
	spec := topology.SpecByName("dgx-v100")
	if spec == nil {
		t.Fatal("spec dgx-v100 not registered")
	}
	base := simConfig{
		wf: wf, spec: spec,
		nodes: 1, slots: 1, batch: 0,
		pattern: trace.Bursty, rps: 8, seed: 1,
		arrivals: arrivals,
	}
	g := base
	g.system = "grouter"
	n := base
	n.system = "nvshmem+"
	pd := simConfig{
		system: "grouter", spec: topology.SpecByName("quad-a10"),
		nodes: 1, slots: 1,
		pattern: trace.Bursty, rps: 3, dur: time.Minute, seed: 1,
		pdModel: "llama-7b",
	}
	return map[string]simConfig{"grouter.golden": g, "nvshmem.golden": n, "pd.golden": pd}
}

// TestGoldenReport locks the full grouter-sim report for the checked-in
// trace: the simulation is a deterministic function of its config, so any
// drift in virtual-time results shows up as a byte diff against the fixture.
func TestGoldenReport(t *testing.T) {
	for name, cfg := range goldenConfigs(t) {
		t.Run(name, func(t *testing.T) {
			var out bytes.Buffer
			if err := report(cfg, &out); err != nil {
				t.Fatalf("report: %v", err)
			}
			path := filepath.Join("testdata", name)
			if *updateGolden {
				if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
					t.Fatalf("write golden: %v", err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read golden (run with -update-golden to create): %v", err)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Errorf("report drifted from %s:\n--- got ---\n%s--- want ---\n%s", path, out.Bytes(), want)
			}
		})
	}
}

// traceConfig is the pinned span-trace run: the grouter golden config cut to
// its first four arrivals so the fixture stays reviewable.
func traceConfig(t *testing.T) (simConfig, *bytes.Buffer) {
	t.Helper()
	cfg := goldenConfigs(t)["grouter.golden"]
	cfg.arrivals = cfg.arrivals[:4]
	var buf bytes.Buffer
	cfg.traceOut = &buf
	return cfg, &buf
}

// TestTraceGolden locks the -trace-out export: it must be valid Chrome
// trace-event JSON, byte-identical across same-config runs, and byte-identical
// to the checked-in fixture.
func TestTraceGolden(t *testing.T) {
	cfg, buf := traceConfig(t)
	var report bytes.Buffer
	if err := runSim(cfg, &report); err != nil {
		t.Fatalf("runSim: %v", err)
	}
	var parsed struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("trace export is not valid JSON: %v", err)
	}
	if len(parsed.TraceEvents) == 0 {
		t.Fatal("trace export has no events")
	}

	cfg2, buf2 := traceConfig(t)
	if err := runSim(cfg2, io.Discard); err != nil {
		t.Fatalf("second runSim: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("two identical runs produced different trace exports")
	}

	path := filepath.Join("testdata", "trace.golden")
	if *updateGolden {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatalf("write golden: %v", err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update-golden to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("trace export drifted from %s (%d bytes got, %d want); regenerate with -update-golden and review",
			path, buf.Len(), len(want))
	}
}

// TestPDNeedsThreeGPUs: -pd carves one prefill, one decode and at least one
// mixed worker, so a cluster of fewer than 3 GPUs is refused before any
// simulation starts.
func TestPDNeedsThreeGPUs(t *testing.T) {
	cfg := goldenConfigs(t)["pd.golden"]
	spec := *cfg.spec
	spec.NumGPUs = 2
	cfg.spec = &spec
	err := report(cfg, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "-pd needs at least 3 GPUs") {
		t.Errorf("report on a 2-GPU cluster: err = %v, want the 3-GPU minimum", err)
	}
}

// TestLoadTraceRejectsNoArrivals: a trace file without arrival lines must
// fail naming the file, not load as a nil trace that runSim silently
// replaces with a generated one.
func TestLoadTraceRejectsNoArrivals(t *testing.T) {
	for name, body := range map[string]string{"empty.txt": "", "comments.txt": "# no arrivals\n\n"} {
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := loadTrace(path); err == nil || !strings.Contains(err.Error(), path) {
			t.Errorf("%s: loadTrace error = %v, want one naming the file", name, err)
		}
	}
}

// TestLoadTraceRejectsNegativeOffset: a negative offset used to load and
// replay as an arrival at time 0. It must fail naming the file and line,
// and grouter-sim must exit with status 2; offsets in order load in file
// order, equal ones included.
func TestLoadTraceRejectsNegativeOffset(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "negative.txt")
	ok := filepath.Join(dir, "ordered.txt")
	for path, body := range map[string]string{bad: "-5ms\n10ms\n", ok: "5ms\n# comment\n5ms\n10ms\n"} {
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := loadTrace(bad); err == nil || !strings.Contains(err.Error(), bad+":1:") {
		t.Errorf("loadTrace error = %v, want one naming %s:1", err, bad)
	}
	if code, stderr := run(t, "-trace-file", bad); code != 2 || !strings.Contains(stderr, bad+":1:") {
		t.Errorf("-trace-file %s: exit %d, stderr %q; want exit 2 naming the file and line", bad, code, stderr)
	}
	got, err := loadTrace(ok)
	if want := []time.Duration{5 * time.Millisecond, 5 * time.Millisecond, 10 * time.Millisecond}; err != nil || !slices.Equal(got, want) {
		t.Errorf("loadTrace(%s) = %v, %v; want %v", ok, got, err, want)
	}
}

// TestLoadTraceRejectsOutOfOrderOffset: offsets out of order used to load
// and replay, admitted late under a quantum. A replay rejects such a trace,
// so the file fails at its first out-of-order line, and grouter-sim exits
// with status 2.
func TestLoadTraceRejectsOutOfOrderOffset(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "unordered.txt")
	if err := os.WriteFile(bad, []byte("5ms\n10ms\n# comment\n7ms\n1ms\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadTrace(bad); err == nil || !strings.Contains(err.Error(), bad+":4:") {
		t.Errorf("loadTrace error = %v, want one naming %s:4", err, bad)
	}
	if code, stderr := run(t, "-trace-file", bad); code != 2 || !strings.Contains(stderr, bad+":4:") {
		t.Errorf("-trace-file %s: exit %d, stderr %q; want exit 2 naming the file and line", bad, code, stderr)
	}
}

// TestReportDeterministic runs the same config twice in fresh engines and
// requires byte-identical reports — the driver-level determinism guarantee
// that the chaos tests rely on.
func TestReportDeterministic(t *testing.T) {
	cfg := goldenConfigs(t)["grouter.golden"]
	var a, b bytes.Buffer
	if err := runSim(cfg, &a); err != nil {
		t.Fatalf("first run: %v", err)
	}
	if err := runSim(cfg, &b); err != nil {
		t.Fatalf("second run: %v", err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("two identical runs diverged:\n--- first ---\n%s--- second ---\n%s", a.Bytes(), b.Bytes())
	}
}

// runMainEnv, when set, makes the test binary run main instead of the tests,
// so a test can drive the command end to end and read its exit code.
const runMainEnv = "GROUTER_SIM_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// run executes the command with args and returns its exit code and stderr.
func run(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &bytes.Buffer{}, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		return exit.ExitCode(), stderr.String()
	}
	if err != nil {
		t.Fatalf("running %v: %v", args, err)
	}
	return 0, stderr.String()
}

// TestRejectsBadRate: flag.Float64 parses NaN and Inf, and generating a
// trace at either never ends, so the command must refuse a non-finite or
// negative -rps with exit status 2, naming the flag. A finite -rps whose
// trace over -dur would draw more than trace.MaxDraws arrivals (1e300 over
// 1 ms once ran until killed) must fail the same way, naming both flags.
// -dot makes an accepted rate exit at once.
func TestRejectsBadRate(t *testing.T) {
	for _, tc := range []struct {
		rps, dur string
		code     int
	}{{"NaN", "1s", 2}, {"Inf", "1s", 2}, {"-Inf", "1s", 2}, {"-1", "1s", 2}, {"1e300", "1ms", 2}, {"0", "1s", 0}, {"8", "1s", 0}} {
		code, stderr := run(t, "-rps", tc.rps, "-dur", tc.dur, "-dot")
		if code != tc.code || (code == 2 && !strings.Contains(stderr, "-rps")) {
			t.Errorf("-rps %s: exit %d, stderr %q; want exit %d", tc.rps, code, stderr, tc.code)
		}
		if tc.rps == "1e300" && !strings.Contains(stderr, "-dur") {
			t.Errorf("-rps %s -dur %s: stderr %q does not name -dur", tc.rps, tc.dur, stderr)
		}
	}
}

// TestRejectsBadFlags: a node or GPU slot count below 1 used to panic in
// the scheduler or the cluster, a negative -batch ran at the workflow's
// default, a negative -dur ran nothing, a negative -slo-high or -slo-low
// ran as if 0, with that budget off, and a negative -slo-defer ran with a
// zero defer bound. Each must fail with exit status 2 and a message naming
// the flag. A panic exits 2 as well, so the test also requires that stderr
// holds no goroutine dump. A rejected value runs a short trace, which would
// reach the engine; an accepted one exits at once through -dot.
func TestRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct {
		flag, value string
		code        int
	}{
		{"-nodes", "0", 2}, {"-nodes", "-1", 2}, {"-gpu-slots", "0", 2}, {"-batch", "-3", 2}, {"-dur", "-1s", 2},
		{"-slo-high", "-5ms", 2}, {"-slo-low", "-5ms", 2}, {"-slo-defer", "-1s", 2},
		{"-nodes", "1", 0}, {"-gpu-slots", "1", 0}, {"-batch", "0", 0}, {"-dur", "0s", 0},
		{"-slo-high", "0s", 0}, {"-slo-low", "0s", 0}, {"-slo-defer", "0s", 0},
	} {
		args := []string{"-workflow", "traffic", "-rps", "4", "-dur", "2s", tc.flag, tc.value}
		if tc.code == 0 {
			args = append(args, "-dot")
		}
		code, stderr := run(t, args...)
		if code != tc.code || (code == 2 && (!strings.Contains(stderr, tc.flag+" must") || strings.Contains(stderr, "goroutine "))) {
			t.Errorf("%s %s: exit %d, stderr %q; want exit %d naming %s", tc.flag, tc.value, code, stderr, tc.code, tc.flag)
		}
	}
}
