package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// runMainEnv, when set, makes the test binary run main instead of the tests,
// so a test can drive the command end to end and read its exit code.
const runMainEnv = "GROUTER_BENCH_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// run executes the command with args and returns its exit code, stdout and
// stderr.
func run(t *testing.T, args ...string) (int, string, string) {
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

// TestRejectsBadRequests: -requests 0 used to run every sized experiment at
// zero requests and print tables of zeros. Given, the flag must be at least
// 1, and only a sized experiment takes it; otherwise the command fails with
// exit status 2 naming the flag and prints no table. -requests 1 runs.
func TestRejectsBadRequests(t *testing.T) {
	for _, tc := range []struct {
		run, requests, stderr string
	}{
		{"ext-router,ext-scale", "0", "-requests must be at least 1"},
		{"ext-router,ext-scale", "-1", "-requests must be at least 1"},
		{"fig13", "10", "takes no -requests"},
	} {
		code, stdout, stderr := run(t, "-run", tc.run, "-requests", tc.requests)
		if code != 2 || !strings.Contains(stderr, tc.stderr) || stdout != "" {
			t.Errorf("-run %s -requests %s: exit %d, stdout %q, stderr %q; want exit 2, %q and no output",
				tc.run, tc.requests, code, stdout, stderr, tc.stderr)
		}
	}
	code, stdout, stderr := run(t, "-run", "ext-router", "-requests", "1")
	if code != 0 || !strings.Contains(stdout, "== ext-router") {
		t.Errorf("-requests 1: exit %d, stderr %q; want the ext-router table", code, stderr)
	}
}
