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
const runMainEnv = "GROUTER_TOPO_RUN_MAIN"

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

// TestRejectsMeaninglessPathQueries: a hop bound below 1 and a pair whose
// two GPUs are equal used to print an empty path list and exit 0. Each must
// fail with exit status 2 and a message naming the flag, not a goroutine
// dump, and print no report.
func TestRejectsMeaninglessPathQueries(t *testing.T) {
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-paths", "0,5", "-hops", "0"}, "-hops"},
		{[]string{"-paths", "0,5", "-hops", "-1"}, "-hops"},
		{[]string{"-hops", "-1"}, "-hops"},
		{[]string{"-paths", "0,0"}, "-paths"},
		{[]string{"-paths", "3, 3", "-hops", "2"}, "-paths"},
		{[]string{"-paths", "0,8"}, "-paths"},
		{[]string{"-paths", "0"}, "-paths"},
	} {
		code, stdout, stderr := run(t, tc.args...)
		if code != 2 || !strings.Contains(stderr, tc.flag) || strings.Contains(stderr, "goroutine ") || stdout != "" {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2 naming %s", tc.args, code, stdout, stderr, tc.flag)
		}
	}
}

// TestListsPaths: a valid query still lists its paths, shortest first.
func TestListsPaths(t *testing.T) {
	code, stdout, stderr := run(t, "-paths", "0,5", "-hops", "3")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	if !strings.Contains(stdout, "NVLink paths 0→5 (≤3 hops): ") {
		t.Fatalf("no path listing in:\n%s", stdout)
	}
	if !strings.Contains(stdout, "  [0 1 5]  bottleneck 24 GB/s") {
		t.Errorf("two-hop path 0→1→5 missing from:\n%s", stdout)
	}
}
