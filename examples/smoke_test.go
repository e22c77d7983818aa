// Smoke coverage for the example programs: each example must build, run to
// completion, print exactly what examples/testdata/<name>.golden holds, and
// — because every simulation seed is fixed — print exactly the same thing on
// a second run. Changing an example's output on purpose requires
// regenerating the fixtures with -update-golden and reviewing the diff.
package examples

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden example outputs under testdata")

var programs = []string{
	"quickstart",
	"llm-moa",
	"llm-pd",
	"multi-tenant",
	"traffic-pipeline",
}

func buildExample(t *testing.T, name string) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), name)
	cmd := exec.Command("go", "build", "-o", bin, "./"+name)
	cmd.Dir = "."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build %s: %v\n%s", name, err, out)
	}
	return bin
}

func runExample(t *testing.T, bin string) []byte {
	t.Helper()
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin)
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("%s: %v\nstderr: %s", filepath.Base(bin), err, stderr.Bytes())
	}
	return stdout.Bytes()
}

func TestExamples(t *testing.T) {
	for _, name := range programs {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			bin := buildExample(t, name)
			first := runExample(t, bin)
			if len(bytes.TrimSpace(first)) == 0 {
				t.Fatalf("%s printed nothing", name)
			}
			second := runExample(t, bin)
			if !bytes.Equal(first, second) {
				t.Errorf("%s output differs between runs:\n--- first\n%s\n--- second\n%s", name, first, second)
			}
			path := filepath.Join("testdata", name+".golden")
			if *updateGolden {
				if err := os.WriteFile(path, first, 0o644); err != nil {
					t.Fatalf("write golden: %v", err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read golden (run with -update-golden to create): %v", err)
			}
			if !bytes.Equal(first, want) {
				t.Errorf("%s drifted from %s:\n--- got ---\n%s--- want ---\n%s", name, path, first, want)
			}
		})
	}
}
