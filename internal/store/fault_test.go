package store

import (
	"errors"
	"testing"
	"time"

	"grouter/internal/fabric"
	"grouter/internal/sim"
	"grouter/internal/topology"
)

func newTestNode(e *sim.Engine) *fabric.NodeFabric {
	return fabric.New(e, topology.DGXV100(), 1).NodeF(0)
}

// failMigrator rejects transfers in the selected directions, modeling every
// migration path down mid-fault.
type failMigrator struct {
	failToHost, failToGPU bool
	toHost, toGPU         int
}

var errMigration = errors.New("migration path down")

func (f *failMigrator) ToHost(p *sim.Proc, gpu int, bytes int64) error {
	f.toHost++
	if f.failToHost {
		return errMigration
	}
	return nil
}
func (f *failMigrator) ToGPU(p *sim.Proc, gpu int, bytes int64) error {
	f.toGPU++
	if f.failToGPU {
		return errMigration
	}
	return nil
}

func TestDropReleasesGPUMemory(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	m, _ := testManager(e, Config{Elastic: true})
	e.Go("p", func(p *sim.Proc) {
		it, err := m.Put(p, ctxFor("f", 1), 0, 10*MB)
		if err != nil {
			t.Fatalf("Put: %v", err)
		}
		reservedBefore := m.Pool(0).Reserved()
		m.Drop(it)
		if m.Lookup(it.ID) != nil {
			t.Error("dropped item still resolvable")
		}
		if m.TotalUsed() != 0 {
			t.Errorf("used after drop = %d", m.TotalUsed())
		}
		// Unlike Free, Drop leaves no pre-warm reservation behind: the pool's
		// reserved bytes must not grow past what the item itself held.
		if got := m.Pool(0).Reserved(); got > reservedBefore {
			t.Errorf("drop grew the reservation: %d > %d", got, reservedBefore)
		}
		m.Drop(it) // double drop must be a no-op
		if m.TotalUsed() != 0 {
			t.Errorf("used after double drop = %d", m.TotalUsed())
		}
	})
	e.Run(0)
}

func TestDropHostResidentItem(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	m, _ := testManager(e, Config{Elastic: true})
	squeeze(t, m, 0, 40*MB) // limit = 20MB → 30MB item spills to host
	e.Go("p", func(p *sim.Proc) {
		it, err := m.Put(p, ctxFor("big", 1), 0, 30*MB)
		if err != nil {
			t.Fatalf("Put: %v", err)
		}
		if !it.OnHost {
			t.Fatal("precondition: item spilled to host")
		}
		hostUsed := m.node.Host.Used()
		m.Drop(it)
		if m.node.Host.Used() >= hostUsed {
			t.Errorf("host bytes not released: %d -> %d", hostUsed, m.node.Host.Used())
		}
	})
	e.Run(0)
}

// TestEvictionAbortsWhenMigrationFails drives the eviction path with a
// migrator whose host-bound transfers fail: the victim must stay GPU-resident
// and remain usable, and the Put that triggered the eviction spills instead.
func TestEvictionAbortsWhenMigrationFails(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	mig := &failMigrator{failToHost: true}
	m := NewManager(e, newTestNode(e), mig, Config{Elastic: true, Policy: PolicyLRU})
	squeeze(t, m, 0, 100*MB) // limit = 50MB
	e.Go("p", func(p *sim.Proc) {
		a, _ := m.Put(p, ctxFor("a", 1), 0, 30*MB)
		b, err := m.Put(p, ctxFor("b", 2), 0, 30*MB) // wants an eviction; it fails
		if err != nil {
			t.Fatalf("Put b: %v", err)
		}
		if a.OnHost {
			t.Error("victim moved to host despite the failed migration")
		}
		if a.migrating {
			t.Error("victim left in migrating state after the abort")
		}
		if !b.OnHost {
			t.Error("b should have spilled once eviction could not make room")
		}
	})
	e.Run(0)
	if mig.toHost == 0 {
		t.Error("eviction path never attempted a migration")
	}
}

// TestRestoreAbortsWhenMigrationFails evicts an item normally, then breaks
// the GPU-bound direction: Restore must report failure, release the pool
// bytes it grabbed, and leave the item host-resident and intact.
func TestRestoreAbortsWhenMigrationFails(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	mig := &failMigrator{}
	m := NewManager(e, newTestNode(e), mig, Config{Elastic: true, Policy: PolicyRQ})
	squeeze(t, m, 0, 100*MB)
	e.Go("p", func(p *sim.Proc) {
		a, _ := m.Put(p, ctxFor("a", 1), 0, 30*MB)
		b, _ := m.Put(p, ctxFor("b", 9), 0, 15*MB)
		_, _ = m.Put(p, ctxFor("c", 5), 0, 30*MB) // evicts b
		if !b.OnHost {
			t.Fatal("precondition: b evicted")
		}
		m.Free(a)
		mig.failToGPU = true
		used := m.TotalUsed()
		if m.Restore(p, b) {
			t.Error("Restore reported success despite the failed transfer")
		}
		if !b.OnHost {
			t.Error("item no longer host-resident after the aborted restore")
		}
		if b.migrating {
			t.Error("item left in migrating state after the abort")
		}
		if m.TotalUsed() != used {
			t.Errorf("aborted restore leaked pool bytes: %d -> %d", used, m.TotalUsed())
		}
		// Once the path heals, the same restore succeeds.
		mig.failToGPU = false
		if !m.Restore(p, b) {
			t.Error("restore still failing after the path healed")
		}
		if b.OnHost {
			t.Error("item not GPU-resident after the healed restore")
		}
	})
	e.Run(0)
}

// TestDropDuringEviction drops the victim while its migration is in flight
// (via a migrator that drops it mid-transfer): the eviction must clean up
// after itself without double-releasing.
func TestDropDuringEviction(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	var m *Manager
	var victim *Item
	mig := &hookMigrator{}
	m = NewManager(e, newTestNode(e), mig, Config{Elastic: true, Policy: PolicyLRU})
	mig.onToHost = func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		if victim != nil {
			m.Drop(victim) // crash lands mid-migration
		}
	}
	squeeze(t, m, 0, 100*MB)
	e.Go("p", func(p *sim.Proc) {
		var err error
		victim, err = m.Put(p, ctxFor("a", 1), 0, 30*MB)
		if err != nil {
			t.Fatalf("Put: %v", err)
		}
		p.Sleep(time.Millisecond)
		if _, err := m.Put(p, ctxFor("b", 2), 0, 30*MB); err != nil {
			t.Fatalf("Put b: %v", err)
		}
		if m.Lookup(victim.ID) != nil {
			t.Error("dropped victim still resolvable")
		}
	})
	e.Run(0)
}

// hookMigrator lets a test interleave events with a migration in flight.
type hookMigrator struct {
	onToHost func(p *sim.Proc)
}

func (h *hookMigrator) ToHost(p *sim.Proc, gpu int, bytes int64) error {
	if h.onToHost != nil {
		h.onToHost(p)
	}
	return nil
}
func (h *hookMigrator) ToGPU(p *sim.Proc, gpu int, bytes int64) error { return nil }
