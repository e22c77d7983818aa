package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden experiment tables under testdata")

// goldenRequests is the request count each sized experiment's golden runs
// at: small enough to keep the suite fast, large enough to exercise every
// cell of the table.
var goldenRequests = map[string]int{
	"ext-router":      1_000,
	"ext-scale":       1_000,
	"ext-scale-shard": 1_000,
	"ext-elastic":     1_000,
	"ext-pd":          2_000,
	"ext-slo":         1_000,
}

// TestGoldenTables pins every experiment table byte for byte: every cell is
// virtual time, so a change that moves any number shows up as a diff against
// the checked-in fixture. Fixed experiments run as registered, sized ones at
// goldenRequests. Changing a result on purpose requires regenerating the
// fixtures with -update-golden and reviewing the diff.
func TestGoldenTables(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			run := e.Run
			if e.Sized != nil {
				n, ok := goldenRequests[e.ID]
				if !ok {
					t.Fatalf("%s is sized but has no golden request count", e.ID)
				}
				run = func() *Table { return e.Sized(n) }
			}
			got := []byte(run().Format())
			path := filepath.Join("testdata", e.ID+".golden")
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
				t.Errorf("%s drifted from %s:\n--- got ---\n%s--- want ---\n%s", e.ID, path, got, want)
			}
		})
	}
}
