// Smoke coverage for the example programs: each example must build, run to
// completion, print exactly what examples/testdata/<name>.golden holds, and
// — because every simulation seed is fixed — print exactly the same thing on
// a second run. Changing an example's output on purpose requires
// regenerating the fixtures with -update-golden and reviewing the diff.
//
// The examples are built by a go build subprocess, which Go's test cache
// does not see, so TestExamples opens every source file they build from:
// the cache records the files a test opens and reruns it when one changes.
// Importing the library would not do: the cache keys on the linked test
// binary, from which the linker drops whatever the test does not call.
package examples

import (
	"bytes"
	"flag"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
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

// openSources opens the module's go.mod and every non-test Go file the
// examples build from: the grouter package, internal/ and each example's
// own directory.
func openSources(t *testing.T) {
	t.Helper()
	dirs := []string{"../internal"}
	for _, name := range programs {
		dirs = append(dirs, name)
	}
	files, err := filepath.Glob("../*.go")
	if err != nil {
		t.Fatal(err)
	}
	files = append(files, "../go.mod")
	for _, dir := range dirs {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") {
				files = append(files, path)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
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
	openSources(t)
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
