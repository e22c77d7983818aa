package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden experiment tables under testdata")

// TestGoldenTables pins whole experiment tables byte for byte: every cell is
// virtual time, so a change that moves any number shows up as a diff against
// the checked-in fixture. Changing a result on purpose requires regenerating
// the fixtures with -update-golden and reviewing the diff.
func TestGoldenTables(t *testing.T) {
	for _, g := range []struct {
		id       string
		requests int
	}{
		{"ext-pd", 2_000},
		{"ext-elastic", 1_000},
	} {
		g := g
		t.Run(g.id, func(t *testing.T) {
			t.Parallel()
			e := ByID(g.id)
			if e == nil || e.Sized == nil {
				t.Fatalf("%s is not a sized experiment", g.id)
			}
			got := []byte(e.Sized(g.requests).Format())
			path := filepath.Join("testdata", g.id+".golden")
			if *updateGolden {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatalf("write golden: %v", err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read golden (run with -update-golden to create): %v", err)
			}
			if string(got) != string(want) {
				t.Errorf("%s at %d requests drifted from %s:\n--- got ---\n%s--- want ---\n%s",
					g.id, g.requests, path, got, want)
			}
		})
	}
}
