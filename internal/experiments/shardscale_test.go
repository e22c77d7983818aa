package experiments

import "testing"

// TestShardedScaleTableShardInvariant asserts the sharded scale table's core
// contract: the formatted table is byte-identical for every shard count —
// sharding changes wall-clock only, never results.
func TestShardedScaleTableShardInvariant(t *testing.T) {
	requests := 2_000
	if testing.Short() {
		requests = 500
	}
	want := ShardedScaleTable(requests, 1).Format()
	for _, shards := range []int{2, 4, 8} {
		if got := ShardedScaleTable(requests, shards).Format(); got != want {
			t.Errorf("%d-shard table diverged from single-shard table:\n got:\n%s\nwant:\n%s", shards, got, want)
		}
	}
}

func TestExtScaleShardSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full smoke table is slow under -short")
	}
	tb := ByID("ext-scale-shard").Run()
	if tb.ID != "ext-scale-shard" {
		t.Fatalf("table id %q", tb.ID)
	}
	if len(tb.Rows) != 6 {
		t.Fatalf("rows %d, want 6 (3 patterns x 2 scales)", len(tb.Rows))
	}
	if tb.Format() == "" {
		t.Fatal("empty table")
	}
}
