package experiments

import (
	"strconv"
	"testing"

	"grouter/internal/trace"
)

func TestExtRouterRegistered(t *testing.T) {
	e := ByID("ext-router")
	if e == nil {
		t.Fatal("ext-router not registered")
	}
	if e.Run == nil || e.Title == "" {
		t.Fatal("ext-router registration incomplete")
	}
}

// TestRouterTableSmoke runs the routed-vs-placement comparison at a tiny
// request count: six rows (three patterns, both admissions), routed rows
// with live decision counters, identical request totals per pattern pair.
func TestRouterTableSmoke(t *testing.T) {
	tbl := RouterTable(600)
	if got := len(tbl.Rows); got != 6 {
		t.Fatalf("rows = %d, want 6", got)
	}
	for i := 0; i < 6; i += 2 {
		placement, routed := tbl.Rows[i], tbl.Rows[i+1]
		if placement[1] != "placement-only" || routed[1] != "routed" {
			t.Fatalf("row pair %d has wrong admission labels: %v / %v", i, placement[1], routed[1])
		}
		if placement[2] != routed[2] {
			t.Errorf("%s: request counts differ between admissions: %s vs %s",
				placement[0], placement[2], routed[2])
		}
		if n, err := strconv.Atoi(routed[6]); err != nil || n == 0 {
			t.Errorf("%s routed row has no routing decisions: %q", routed[0], routed[6])
		}
		if placement[6] != "0" {
			t.Errorf("%s placement-only row counted decisions: %q", placement[0], placement[6])
		}
	}
}

// Guard: RouterTable patterns must stay in paper order so the ext-router
// table remains comparable across builds.
func TestRouterTablePatternOrder(t *testing.T) {
	tbl := RouterTable(0)
	want := []trace.Pattern{trace.Sporadic, trace.Periodic, trace.Bursty}
	for i, p := range want {
		if tbl.Rows[i*2][0] != p.String() {
			t.Errorf("row %d pattern = %s, want %s", i*2, tbl.Rows[i*2][0], p)
		}
	}
}
