package store

import (
	"testing"

	"grouter/internal/dataplane"
	"grouter/internal/fabric"
	"grouter/internal/sim"
)

func loc(n, g int) fabric.Location { return fabric.Location{Node: n, GPU: g} }

func TestRegistryAddRemove(t *testing.T) {
	r := NewRegistry()
	r.Add(1, loc(1, 3))
	r.Add(1, loc(0, 2))
	r.Add(1, loc(1, 3)) // duplicate ignored
	r.Add(1, loc(0, fabric.HostGPU))
	if got := r.Count(1); got != 2 {
		t.Fatalf("Count = %d, want 2 (dupes and host locations ignored)", got)
	}
	// Locations come back sorted by (node, GPU) regardless of Add order.
	ls := r.Locations(1)
	if ls[0] != loc(0, 2) || ls[1] != loc(1, 3) {
		t.Fatalf("Locations not sorted: %v", ls)
	}
	if !r.Has(1, loc(1, 3)) || r.Has(1, loc(1, 4)) || r.Has(2, loc(1, 3)) {
		t.Fatal("Has gives wrong membership")
	}
	r.Remove(1, loc(1, 3))
	if r.Has(1, loc(1, 3)) || r.Count(1) != 1 {
		t.Fatal("Remove left the location registered")
	}
	r.Remove(1, loc(0, 2))
	if r.Len() != 0 {
		t.Fatalf("empty object should be dropped from the map, Len = %d", r.Len())
	}
}

func TestRegistryDropGPU(t *testing.T) {
	r := NewRegistry()
	r.Add(5, loc(0, 1))
	r.Add(3, loc(0, 1))
	r.Add(7, loc(0, 2))
	r.Add(3, loc(1, 1))
	ids := r.DropGPU(0, 1)
	if len(ids) != 2 || ids[0] != 3 || ids[1] != 5 {
		t.Fatalf("DropGPU ids = %v, want [3 5] in ascending order", ids)
	}
	if r.Has(3, loc(0, 1)) || r.Has(5, loc(0, 1)) {
		t.Fatal("crashed-GPU copies still registered")
	}
	if !r.Has(7, loc(0, 2)) || !r.Has(3, loc(1, 1)) {
		t.Fatal("copies on other GPUs were dropped")
	}
	if ids := r.DropGPU(4, 4); len(ids) != 0 {
		t.Fatalf("DropGPU on empty GPU returned %v", ids)
	}
}

// TestPutCacheBestEffort checks that replica caches never displace primary
// items: with the static pool full of primaries, PutCache returns nil; with
// room, it succeeds and the item is marked Cache.
func TestPutCacheBestEffort(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	m, _ := testManager(e, Config{Elastic: false, StaticReserve: 64 * MB, Policy: PolicyLRU})
	e.Go("p", func(p *sim.Proc) {
		it := m.PutCache(p, dataplane.DataID(1), "f", 0, 16*MB)
		if it == nil {
			t.Fatal("PutCache with free pool failed")
		}
		if !it.Cache || it.CacheOf != 1 {
			t.Fatalf("cache item not marked: Cache=%v CacheOf=%d", it.Cache, it.CacheOf)
		}
		// Fill the rest of the pool with primaries. The cache is dropped to
		// make room (caches are the preferred victims) …
		if _, err := m.Put(p, ctxFor("f", 1), 0, 60*MB); err != nil {
			t.Fatalf("Put should displace the cache, got %v", err)
		}
		if m.Lookup(it.ID) != nil {
			t.Fatal("cache item survived primary pressure")
		}
		// … and with the pool now full of primaries, PutCache must refuse
		// rather than evict one.
		if it2 := m.PutCache(p, dataplane.DataID(2), "f", 0, 16*MB); it2 != nil {
			t.Fatal("PutCache displaced a primary item")
		}
	})
	e.Run(0)
}

// TestPutCacheDropNotifies checks the OnCacheDrop invalidation hook: a
// store-initiated cache drop reports (object, GPU) so the plane can unhook
// its registry, while an explicit Drop by the owner does not re-notify.
func TestPutCacheDropNotifies(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	m, _ := testManager(e, Config{Elastic: false, StaticReserve: 64 * MB, Policy: PolicyLRU})
	var dropped []dataplane.DataID
	m.OnCacheDrop = func(id dataplane.DataID, gpu int) {
		if gpu != 0 {
			t.Errorf("OnCacheDrop gpu = %d, want 0", gpu)
		}
		dropped = append(dropped, id)
	}
	e.Go("p", func(p *sim.Proc) {
		old := m.PutCache(p, dataplane.DataID(10), "f", 0, 30*MB)
		if old == nil {
			t.Fatal("first PutCache failed")
		}
		// A second cache that needs the space drops the older cache (LRU).
		fresh := m.PutCache(p, dataplane.DataID(11), "f", 0, 50*MB)
		if fresh == nil {
			t.Fatal("second PutCache failed")
		}
		if len(dropped) != 1 || dropped[0] != 10 {
			t.Fatalf("OnCacheDrop calls = %v, want [10]", dropped)
		}
		if m.CacheDrops.N != 1 {
			t.Fatalf("CacheDrops = %d, want 1", m.CacheDrops.N)
		}
		// Owner-initiated Drop must not re-notify.
		m.Drop(fresh)
		if len(dropped) != 1 {
			t.Fatalf("owner Drop fired OnCacheDrop: %v", dropped)
		}
	})
	e.Run(0)
}
