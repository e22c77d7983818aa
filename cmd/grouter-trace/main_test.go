package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"grouter/internal/trace"
)

// runMainEnv, when set, makes the test binary run main instead of the tests,
// so a test can drive the command end to end and read its exit code.
const runMainEnv = "GROUTER_TRACE_RUN_MAIN"

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
	code, _, stderr := runOutput(t, args...)
	return code, stderr
}

// runOutput executes the command with args and returns its exit code,
// stdout and stderr.
func runOutput(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		return exit.ExitCode(), stdout.String(), stderr.String()
	}
	if err != nil {
		t.Fatalf("running %v: %v", args, err)
	}
	return 0, stdout.String(), stderr.String()
}

// TestEmitPrintsEveryArrival: -emit prints, after the two summary lines,
// exactly Generate's arrivals, one %.6f line of seconds each, and nothing
// is left unflushed.
func TestEmitPrintsEveryArrival(t *testing.T) {
	code, stdout, stderr := runOutput(t, "-pattern", "periodic", "-rps", "500", "-dur", "30s", "-seed", "42", "-emit")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	arrivals := trace.Generate(trace.Spec{Pattern: trace.Periodic, Duration: 30 * time.Second, MeanRPS: 500, Seed: 42})
	var want strings.Builder
	for _, a := range arrivals {
		fmt.Fprintf(&want, "%.6f\n", a.Seconds())
	}
	lines := strings.SplitAfterN(stdout, "\n", 3)
	if len(lines) != 3 || !strings.HasPrefix(lines[1], fmt.Sprintf("arrivals=%d ", len(arrivals))) {
		t.Fatalf("summary lines %q, want a count of %d arrivals", lines[:min(2, len(lines))], len(arrivals))
	}
	if got := lines[2]; got != want.String() {
		t.Errorf("-emit printed %d bytes (%d lines), want %d bytes for %d arrivals",
			len(got), strings.Count(got, "\n"), want.Len(), len(arrivals))
	}
}

// TestRejectsBadRate: flag.Float64 parses NaN and Inf, and generating at
// either never ends, so the command must refuse a non-finite or negative
// -rps with exit status 2, naming the flag. A finite -rps whose trace over
// -dur would draw more than trace.MaxDraws arrivals (1e300 over 1 ms once
// ran until killed) must fail the same way, naming both flags.
func TestRejectsBadRate(t *testing.T) {
	for _, rps := range []string{"NaN", "Inf", "-Inf", "-1"} {
		if code, stderr := run(t, "-rps", rps, "-dur", "1s"); code != 2 || !strings.Contains(stderr, "-rps") {
			t.Errorf("-rps %s: exit %d, stderr %q; want exit 2 naming -rps", rps, code, stderr)
		}
	}
	for _, pattern := range []string{"sporadic", "periodic", "bursty"} {
		code, stderr := run(t, "-pattern", pattern, "-rps", "1e300", "-dur", "1ms")
		if code != 2 || !strings.Contains(stderr, "-rps") || !strings.Contains(stderr, "-dur") {
			t.Errorf("%s -rps 1e300 -dur 1ms: exit %d, stderr %q; want exit 2 naming -rps and -dur", pattern, code, stderr)
		}
	}
	for _, rps := range []string{"0", "5"} {
		if code, stderr := run(t, "-rps", rps, "-dur", "1s"); code != 0 {
			t.Errorf("-rps %s: exit %d, stderr %q; want success", rps, code, stderr)
		}
	}
}

// TestRejectsBadDuration: a negative -dur used to print a negative trace
// duration and generate nothing. It must fail with exit status 2 and a
// message naming the flag, not a goroutine dump; -dur 0 stays accepted.
func TestRejectsBadDuration(t *testing.T) {
	if code, stderr := run(t, "-dur", "-1s"); code != 2 || !strings.Contains(stderr, "-dur must") || strings.Contains(stderr, "goroutine ") {
		t.Errorf("-dur -1s: exit %d, stderr %q; want exit 2 naming -dur", code, stderr)
	}
	if code, stderr := run(t, "-dur", "0s"); code != 0 {
		t.Errorf("-dur 0s: exit %d, stderr %q; want success", code, stderr)
	}
}
