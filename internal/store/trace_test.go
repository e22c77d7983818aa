package store

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"grouter/internal/obs"
	"grouter/internal/sim"
)

// TestTracedStorageLifecycle forces a spill, an eviction, and a restore with
// a tracer attached and checks each emits its trace event on the node's
// storage lane, alongside the store-used/store-reserved counter samples.
func TestTracedStorageLifecycle(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	tr := obs.Attach(e)
	m, _ := testManager(e, Config{Elastic: true, Policy: PolicyLRU})
	squeeze(t, m, 0, 100*MB) // storage limit = 50MB
	e.Go("p", func(p *sim.Proc) {
		a, _ := m.Put(p, ctxFor("a", 10), 0, 30*MB)
		p.Sleep(time.Millisecond)
		// Over the limit: a is evicted to host to make room.
		b, _ := m.Put(p, ctxFor("b", 5), 0, 30*MB)
		if !a.OnHost {
			t.Error("a should have been evicted")
		}
		// Larger than the whole budget: forced spill straight to host.
		c, _ := m.Put(p, ctxFor("c", 20), 0, 80*MB)
		if !c.OnHost {
			t.Error("oversized put should spill to host")
		}
		// Room returns; the evicted item restores to GPU.
		m.Free(b)
		if !m.Restore(p, a) {
			t.Error("restore failed with free capacity")
		}
	})
	e.Run(0)
	if m.Evictions.N == 0 || m.Spills.N == 0 || m.Restores.N == 0 {
		t.Fatalf("lifecycle incomplete: evictions=%d spills=%d restores=%d",
			m.Evictions.N, m.Spills.N, m.Restores.N)
	}
	var buf bytes.Buffer
	if err := tr.Export(&buf); err != nil {
		t.Fatalf("export: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		`"name":"evict"`, `"name":"restore"`, `"name":"spill"`,
		`"name":"store-used"`, `"name":"store-reserved"`,
		`"tid":100`, // TrackStoreBase + node 0
	} {
		if !strings.Contains(out, want) {
			t.Errorf("export missing %s", want)
		}
	}
}
