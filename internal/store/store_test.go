package store

import (
	"math/rand"
	"sort"
	"testing"
	"time"

	"grouter/internal/dataplane"
	"grouter/internal/fabric"
	"grouter/internal/sim"
	"grouter/internal/topology"
)

const MB = int64(1) << 20

// sleepMigrator models migration at 10 GB/s.
type sleepMigrator struct{ toHost, toGPU int }

func (s *sleepMigrator) ToHost(p *sim.Proc, gpu int, bytes int64) error {
	s.toHost++
	p.Sleep(time.Duration(float64(bytes) / 10e9 * float64(time.Second)))
	return nil
}
func (s *sleepMigrator) ToGPU(p *sim.Proc, gpu int, bytes int64) error {
	s.toGPU++
	p.Sleep(time.Duration(float64(bytes) / 10e9 * float64(time.Second)))
	return nil
}

func testManager(e *sim.Engine, cfg Config) (*Manager, *sleepMigrator) {
	f := fabric.New(e, topology.DGXV100(), 1)
	mig := &sleepMigrator{}
	return NewManager(e, f.NodeF(0), mig, cfg), mig
}

func ctxFor(fn string, seq int64) *dataplane.FnCtx {
	return &dataplane.FnCtx{Fn: fn, Workflow: "wf", ConsumerSeq: seq}
}

func TestPutLookupFree(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	m, _ := testManager(e, Config{Elastic: true, Policy: PolicyRQ})
	e.Go("p", func(p *sim.Proc) {
		it, err := m.Put(p, ctxFor("f", 1), 0, 10*MB)
		if err != nil {
			t.Errorf("Put: %v", err)
			return
		}
		if m.Lookup(it.ID) != it {
			t.Error("Lookup failed")
		}
		if it.OnHost {
			t.Error("small item should be GPU-resident")
		}
		if m.TotalUsed() != 10*MB {
			t.Errorf("used = %d, want %d", m.TotalUsed(), 10*MB)
		}
		m.Free(it)
		if m.Lookup(it.ID) != nil {
			t.Error("freed item still resolvable")
		}
		if m.TotalUsed() != 0 {
			t.Errorf("used after free = %d", m.TotalUsed())
		}
	})
	e.Run(0)
}

func TestDoubleFreeIsNoop(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	m, _ := testManager(e, Config{Elastic: true})
	e.Go("p", func(p *sim.Proc) {
		it, _ := m.Put(p, ctxFor("f", 1), 0, MB)
		m.Free(it)
		m.Free(it) // must not panic or corrupt accounting
		if m.TotalUsed() != 0 {
			t.Errorf("used = %d", m.TotalUsed())
		}
	})
	e.Run(0)
}

// TestElasticReservationThenReclaim: objects larger than the idle floor
// grow the pool past it, the frees keep their bytes reserved while the
// function is hot, and once the reservations expire the reclaim sweeps
// shrink the pool back to the floor.
func TestElasticReservationThenReclaim(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	m, _ := testManager(e, Config{Elastic: true})
	const size = 400 * MB
	e.Go("p", func(p *sim.Proc) {
		// Repeated arrivals at 50ms intervals establish a short R_window.
		for i := 0; i < 10; i++ {
			it, err := m.Put(p, ctxFor("f", int64(i)), 0, size)
			if err != nil {
				t.Errorf("Put: %v", err)
				return
			}
			p.Sleep(50 * time.Millisecond)
			m.Free(it)
		}
		// While hot, the pool keeps a reservation above the floor.
		if got := m.target(0); got < size {
			t.Errorf("pool target after the frees = %d, want a warm reservation of at least %d", got, size)
		}
		if got := m.Pool(0).Reserved(); got < size {
			t.Errorf("pool reserved after the frees = %d, want at least %d", got, size)
		}
		// After the window plus reclaim sweeps, the pool shrinks to the floor.
		p.Sleep(3 * time.Second)
		if got := m.Pool(0).Reserved(); got != minPool {
			t.Errorf("idle pool reserved = %d, want reclaimed to the %d floor", got, int64(minPool))
		}
	})
	e.Run(0)
}

func TestStaticPoolDoesNotShrink(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	m, _ := testManager(e, Config{Elastic: false, StaticReserve: 512 * MB})
	e.Go("p", func(p *sim.Proc) {
		if m.Pool(0).Reserved() != 512*MB {
			t.Errorf("static reserve = %d", m.Pool(0).Reserved())
		}
		it, _ := m.Put(p, ctxFor("f", 1), 0, 10*MB)
		m.Free(it)
		p.Sleep(5 * time.Second)
		if m.Pool(0).Reserved() != 512*MB {
			t.Errorf("static pool changed to %d", m.Pool(0).Reserved())
		}
	})
	e.Run(0)
}

// TestSymmetricGrowMirrorsAllGPUs: an object larger than the idle floor
// grows GPU 0's pool, and the grow is mirrored on every other GPU.
func TestSymmetricGrowMirrorsAllGPUs(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	m, _ := testManager(e, Config{Elastic: true, Symmetric: true})
	const size = 400 * MB
	e.Go("p", func(p *sim.Proc) {
		_, err := m.Put(p, ctxFor("f", 1), 0, size)
		if err != nil {
			t.Fatalf("Put: %v", err)
		}
		for g := 1; g < 8; g++ {
			if m.Pool(g).Reserved() < size {
				t.Errorf("GPU %d pool = %d, want mirrored >= %d", g, m.Pool(g).Reserved(), size)
			}
		}
	})
	e.Run(0)
}

// squeeze fills a GPU with non-storage allocations so the storage limit
// becomes small: half of leave. It first hands the pool's idle reservation,
// the elastic floor, back to the device, so the limit counts only leave.
func squeeze(t *testing.T, m *Manager, g int, leave int64) {
	t.Helper()
	m.pools[g].Shrink(m.pools[g].Idle())
	dev := m.node.GPUs[g]
	if _, err := dev.Alloc(dev.Free() - leave); err != nil {
		t.Fatal(err)
	}
}

func TestEvictionUnderPressureLRU(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	m, mig := testManager(e, Config{Elastic: true, Policy: PolicyLRU})
	squeeze(t, m, 0, 100*MB) // storage limit = 50MB
	e.Go("p", func(p *sim.Proc) {
		a, _ := m.Put(p, ctxFor("a", 10), 0, 25*MB)
		p.Sleep(time.Millisecond)
		b, _ := m.Put(p, ctxFor("b", 5), 0, 15*MB)
		p.Sleep(time.Millisecond)
		// Touch a so b becomes LRU.
		m.Touch(a, p.Now())
		c, _ := m.Put(p, ctxFor("c", 20), 0, 20*MB)
		if c.OnHost {
			t.Error("c should fit after eviction")
		}
		if !b.OnHost {
			t.Error("LRU should have evicted b (least recently accessed)")
		}
		if a.OnHost && b.OnHost {
			t.Error("should not evict more than needed")
		}
	})
	e.Run(0)
	if mig.toHost == 0 {
		t.Error("no migration happened")
	}
}

func TestEvictionQueueAware(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	m, _ := testManager(e, Config{Elastic: true, Policy: PolicyRQ})
	squeeze(t, m, 0, 100*MB)
	e.Go("p", func(p *sim.Proc) {
		// a1's consumer is early in the queue (seq 1), a2's is late (seq 9).
		a1, _ := m.Put(p, ctxFor("a", 1), 0, 20*MB)
		p.Sleep(time.Millisecond)
		a2, _ := m.Put(p, ctxFor("a", 9), 0, 20*MB)
		p.Sleep(time.Millisecond)
		// LRU would evict a1 (older access); queue-aware must evict a2.
		_, _ = m.Put(p, ctxFor("b", 5), 0, 20*MB)
		if a1.OnHost {
			t.Error("queue-aware policy evicted imminently needed a1")
		}
		if !a2.OnHost {
			t.Error("queue-aware policy should have evicted a2")
		}
	})
	e.Run(0)
}

func TestProactiveRestore(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	m, mig := testManager(e, Config{Elastic: true, Policy: PolicyRQProactive})
	squeeze(t, m, 0, 100*MB)
	var evicted *Item
	e.Go("p", func(p *sim.Proc) {
		a, _ := m.Put(p, ctxFor("a", 2), 0, 30*MB)
		b, _ := m.Put(p, ctxFor("b", 8), 0, 15*MB)
		// Force pressure: b gets evicted (deeper in queue).
		c, _ := m.Put(p, ctxFor("c", 5), 0, 30*MB)
		if !b.OnHost {
			t.Error("b should be evicted")
			return
		}
		evicted = b
		// Free a and c: room returns; proactive loop should restore b.
		m.Free(a)
		m.Free(c)
		p.Sleep(time.Second)
	})
	e.Run(2 * time.Second)
	if evicted == nil {
		return
	}
	if evicted.OnHost {
		t.Error("proactive restoration did not bring b back to GPU")
	}
	if mig.toGPU == 0 {
		t.Error("no restore transfer happened")
	}
}

func TestSpillWhenItemExceedsLimit(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	m, _ := testManager(e, Config{Elastic: true})
	squeeze(t, m, 0, 40*MB) // limit = 20MB
	e.Go("p", func(p *sim.Proc) {
		it, err := m.Put(p, ctxFor("big", 1), 0, 30*MB)
		if err != nil {
			t.Fatalf("Put: %v", err)
		}
		if !it.OnHost {
			t.Error("oversized item should spill to host")
		}
		m.Free(it)
	})
	e.Run(0)
	if m.Spills.N == 0 {
		t.Error("spill counter not incremented")
	}
}

func TestRestoreExplicit(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	m, _ := testManager(e, Config{Elastic: true, Policy: PolicyRQ})
	squeeze(t, m, 0, 100*MB)
	e.Go("p", func(p *sim.Proc) {
		a, _ := m.Put(p, ctxFor("a", 1), 0, 30*MB)
		b, _ := m.Put(p, ctxFor("b", 9), 0, 15*MB)
		_, _ = m.Put(p, ctxFor("c", 5), 0, 30*MB) // evicts b
		if !b.OnHost {
			t.Fatal("precondition: b evicted")
		}
		m.Free(a) // make room
		if !m.Restore(p, b) {
			t.Error("explicit restore failed with free space")
		}
		if b.OnHost {
			t.Error("b still on host after restore")
		}
	})
	e.Run(0)
}

func TestUsageTimelineSampled(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	m, _ := testManager(e, Config{Elastic: true})
	e.Go("p", func(p *sim.Proc) {
		it, _ := m.Put(p, ctxFor("f", 1), 0, 10*MB)
		p.Sleep(time.Second)
		m.Free(it)
	})
	e.Run(0)
	if m.UsedTL.Len() < 2 {
		t.Fatalf("timeline samples = %d, want >= 2", m.UsedTL.Len())
	}
	if m.UsedTL.Peak() != float64(10*MB) {
		t.Errorf("peak usage = %f, want %d", m.UsedTL.Peak(), 10*MB)
	}
}

// refQuantileP is the percentile query quantile.p replaced: it copies the
// window, sorts the copy and indexes it. It is the oracle for the sorted
// window quantile keeps.
func refQuantileP(window []float64, f float64) float64 {
	if len(window) == 0 {
		return 0
	}
	s := append([]float64(nil), window...)
	sort.Float64s(s)
	idx := int(f*float64(len(s))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}

// TestQuantileMatchesSortOracle feeds seeded streams with many duplicates
// and zeros through windows of 1, 2 and 64 samples, and after every sample
// — partly filled windows included — compares each percentile with the
// sort-and-index oracle over the same ring, using ==.
func TestQuantileMatchesSortOracle(t *testing.T) {
	fracs := []float64{0, 0.01, 0.25, 0.5, 0.9, 0.99, 1}
	for _, size := range []int{1, 2, 64} {
		for seed := int64(1); seed <= 30; seed++ {
			rng := rand.New(rand.NewSource(seed))
			q := newQuantile(size)
			for i := 0; i < 500; i++ {
				var v float64
				switch rng.Intn(4) {
				case 0:
					v = 0
				case 1:
					v = float64(rng.Intn(5)) // small set: heavy duplicates
				case 2:
					v = rng.Float64() * 1e-3
				default:
					v = rng.ExpFloat64() * 1e9
				}
				q.add(v)
				for _, f := range fracs {
					if got, want := q.p(f), refQuantileP(q.ring, f); got != want {
						t.Fatalf("size %d seed %d sample %d: p(%v) = %v, oracle %v", size, seed, i, f, got, want)
					}
				}
			}
		}
	}
	if got := newQuantile(64).p(0.99); got != 0 {
		t.Errorf("empty window p(0.99) = %v, want 0", got)
	}
}

// putFreeLoop Puts and Frees one 10 MB item of one function every gap until
// the given instant. As a sim.Runner it spawns on a recycled process shell
// without allocating.
type putFreeLoop struct {
	m     *Manager
	ctx   *dataplane.FnCtx
	gap   time.Duration
	until time.Duration
	err   error
}

func (l *putFreeLoop) Run(p *sim.Proc) {
	for p.Now() < l.until {
		it, err := l.m.Put(p, l.ctx, 0, 10*MB)
		if err != nil {
			l.err = err
			return
		}
		l.m.Free(it)
		p.Sleep(l.gap)
	}
}

// TestPutFreeLoopAllocFree: an elastic manager's Put+Free loop allocates
// nothing once warmed, across reclaim sweeps, though each run frees twice
// as often as the run before. Every Free reserves pool bytes for the p99 gap
// between the function's Puts, so only a reservation or two is unexpired at
// a time, and reserve drops the expired ones before its list would grow.
// A list that kept every reservation since the last sweep grew with the
// Free rate.
func TestPutFreeLoopAllocFree(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	m, _ := testManager(e, Config{Elastic: true, Policy: PolicyRQ})
	l := &putFreeLoop{m: m, ctx: ctxFor("f", 1), gap: 4 * time.Millisecond}
	run := func() {
		l.gap /= 2
		l.until = e.Now() + 2500*time.Millisecond // two or three sweeps
		e.GoRun("put-free", l)
		e.Run(0)
	}
	run()
	if n := testing.AllocsPerRun(3, run); n != 0 {
		t.Errorf("%v allocations per Put+Free run, want 0", n)
	}
	if l.err != nil {
		t.Fatal(l.err)
	}
	if n := cap(m.reservations); n > 8 {
		t.Errorf("the reservation list holds room for %d, want a few: it grew with the Free rate", n)
	}
	if m.TotalUsed() != 0 || len(m.items) != 0 {
		t.Errorf("after the loop: %d bytes used, %d items", m.TotalUsed(), len(m.items))
	}
}
