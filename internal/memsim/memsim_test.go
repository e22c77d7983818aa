package memsim

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"grouter/internal/sim"
)

func TestDeviceAllocFree(t *testing.T) {
	d := NewDevice("gpu0", 1000)
	b, err := d.Alloc(600)
	if err != nil {
		t.Fatal(err)
	}
	if d.Used() != 600 || d.Free() != 400 {
		t.Errorf("used/free = %d/%d, want 600/400", d.Used(), d.Free())
	}
	if _, err := d.Alloc(500); !errors.Is(err, ErrOutOfMemory) {
		t.Errorf("over-allocation error = %v, want ErrOutOfMemory", err)
	}
	b.Free()
	if d.Used() != 0 {
		t.Errorf("used after free = %d, want 0", d.Used())
	}
	if d.Peak() != 600 {
		t.Errorf("peak = %d, want 600", d.Peak())
	}
}

func TestDoubleFreePanics(t *testing.T) {
	d := NewDevice("gpu0", 100)
	b, _ := d.Alloc(10)
	b.Free()
	defer func() {
		if recover() == nil {
			t.Error("double free should panic")
		}
	}()
	b.Free()
}

// TestAllocIntoOwnedBlock: a Block its owner keeps is reserved into, freed
// and reserved into again without allocating; a failed reservation leaves
// it empty, a double free still panics, and reserving into a block that
// still holds a reservation panics.
func TestAllocIntoOwnedBlock(t *testing.T) {
	d := NewDevice("host", 100)
	var b Block
	if err := d.AllocInto(&b, 200); !errors.Is(err, ErrOutOfMemory) || b.Held() {
		t.Fatalf("over-allocation: err %v, held %v; want ErrOutOfMemory and an empty block", err, b.Held())
	}
	cycle := func() {
		if err := d.AllocInto(&b, 60); err != nil {
			t.Fatal(err)
		}
		if !b.Held() || d.Used() != 60 {
			t.Fatalf("held %v, used %d after AllocInto; want true, 60", b.Held(), d.Used())
		}
		b.Free()
	}
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("AllocInto+Free of an owned block allocates %.1f times, want 0", n)
	}
	if b.Held() || d.Used() != 0 {
		t.Fatalf("held %v, used %d after Free; want false, 0", b.Held(), d.Used())
	}
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		f()
	}
	mustPanic("double free of an owned block", b.Free)
	if err := d.AllocInto(&b, 10); err != nil {
		t.Fatal(err)
	}
	mustPanic("AllocInto a held block", func() { _ = d.AllocInto(&b, 10) })
}

func TestPoolGrowAllocReleaseShrink(t *testing.T) {
	d := NewDevice("gpu0", 1000)
	p := NewPool(d)
	warm, err := p.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	if warm {
		t.Error("first alloc should be a cold grow")
	}
	if p.Reserved() != 100 || p.Used() != 100 || d.Used() != 100 {
		t.Errorf("reserved/used/dev = %d/%d/%d", p.Reserved(), p.Used(), d.Used())
	}
	p.Release(100)
	if p.Idle() != 100 {
		t.Errorf("idle = %d, want 100", p.Idle())
	}
	// Now a same-size alloc is warm.
	warm, err = p.Alloc(80)
	if err != nil || !warm {
		t.Errorf("warm alloc = %v/%v, want true/nil", warm, err)
	}
	p.Release(80)
	if got := p.Shrink(1000); got != 100 {
		t.Errorf("shrink released %d, want 100 (all idle)", got)
	}
	if d.Used() != 0 {
		t.Errorf("device used after shrink = %d, want 0", d.Used())
	}
}

func TestPoolShrinkOnlyIdle(t *testing.T) {
	d := NewDevice("gpu0", 1000)
	p := NewPool(d)
	if _, err := p.Alloc(200); err != nil {
		t.Fatal(err)
	}
	// All 200 are live; shrink must release nothing.
	if got := p.Shrink(200); got != 0 {
		t.Errorf("shrink released %d live bytes", got)
	}
}

func TestPoolGrowOOM(t *testing.T) {
	d := NewDevice("gpu0", 100)
	p := NewPool(d)
	if _, err := p.Alloc(50); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Alloc(60); !errors.Is(err, ErrOutOfMemory) {
		t.Errorf("err = %v, want ErrOutOfMemory", err)
	}
}

func TestPoolInvariantProperty(t *testing.T) {
	// Property: for any sequence of alloc/release, 0 <= used <= reserved <=
	// device capacity, and device.used == reserved.
	f := func(ops []int16) bool {
		d := NewDevice("gpu0", 1<<20)
		p := NewPool(d)
		live := []int64{}
		for _, op := range ops {
			n := int64(op)
			if n >= 0 {
				if _, err := p.Alloc(n); err == nil {
					live = append(live, n)
				}
			} else if len(live) > 0 {
				p.Release(live[len(live)-1])
				live = live[:len(live)-1]
				p.Shrink(-n)
			}
			if p.Used() < 0 || p.Used() > p.Reserved() || p.Reserved() > d.Capacity {
				return false
			}
			if d.Used() != p.Reserved() {
				return false
			}
		}
		return true
	}
	const seed = 1
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(seed))}); err != nil {
		t.Errorf("quick.Check seed %d: %v", seed, err)
	}
}

func TestByteGateBlocksUntilRelease(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	g := NewByteGate(e, 100)
	var acquiredAt time.Duration
	e.Go("holder", func(p *sim.Proc) {
		g.Acquire(p, 80)
		p.Sleep(5 * time.Second)
		g.Release(80)
	})
	e.GoAfter(time.Second, "waiter", func(p *sim.Proc) {
		g.Acquire(p, 50)
		acquiredAt = p.Now()
		g.Release(50)
	})
	e.Run(0)
	if acquiredAt != 5*time.Second {
		t.Errorf("waiter acquired at %v, want 5s", acquiredAt)
	}
}

func TestByteGateFIFO(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	g := NewByteGate(e, 100)
	var order []string
	e.Go("holder", func(p *sim.Proc) {
		g.Acquire(p, 100)
		p.Sleep(time.Second)
		g.Release(100)
	})
	// big arrives first and must be served before small, even though small
	// would fit earlier.
	e.GoAfter(10*time.Millisecond, "big", func(p *sim.Proc) {
		g.Acquire(p, 90)
		order = append(order, "big")
		p.Sleep(time.Second)
		g.Release(90)
	})
	e.GoAfter(20*time.Millisecond, "small", func(p *sim.Proc) {
		g.Acquire(p, 10)
		order = append(order, "small")
		g.Release(10)
	})
	e.Run(0)
	if len(order) != 2 || order[0] != "big" || order[1] != "small" {
		t.Errorf("order = %v, want [big small]", order)
	}
}

func TestByteGateClampsOversizedRequest(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	g := NewByteGate(e, 100)
	var got int64
	e.Go("p", func(p *sim.Proc) {
		got = g.Acquire(p, 500)
		g.Release(got)
	})
	e.Run(0)
	if got != 100 {
		t.Errorf("clamped acquire = %d, want 100", got)
	}
}
