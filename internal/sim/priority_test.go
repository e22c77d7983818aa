package sim

import (
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// grabAndHold occupies the resource's only slot for dur.
func grabAndHold(e *Engine, r *Resource, dur time.Duration) {
	e.Go("holder", func(p *Proc) {
		r.AcquirePri(p, 0)
		p.Sleep(dur)
		r.Release()
	})
}

// acquireOrder runs the given (name, pri, enqueueAt) acquirers against a
// busy single-slot resource and returns the order they obtained the slot.
func acquireOrder(t *testing.T, aging time.Duration, holdFor time.Duration, reqs []struct {
	name string
	pri  int32
	at   time.Duration
}) []string {
	t.Helper()
	e := NewEngine()
	defer e.Close()
	r := NewResource(1)
	r.SetAging(aging)
	grabAndHold(e, r, holdFor)
	var order []string
	for _, q := range reqs {
		q := q
		e.Schedule(q.at, func() {
			e.Go(q.name, func(p *Proc) {
				r.AcquirePri(p, q.pri)
				order = append(order, q.name)
				p.Sleep(time.Millisecond)
				r.Release()
			})
		})
	}
	e.Run(0)
	return order
}

func TestAcquirePriEqualPrioritiesKeepFIFO(t *testing.T) {
	order := acquireOrder(t, 0, 10*time.Millisecond, []struct {
		name string
		pri  int32
		at   time.Duration
	}{
		{"a", 0, 1 * time.Millisecond},
		{"b", 0, 2 * time.Millisecond},
		{"c", 0, 3 * time.Millisecond},
	})
	want := []string{"a", "b", "c"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v (FIFO must hold for equal priorities)", order, want)
		}
	}
}

func TestAcquirePriHighSkipsLow(t *testing.T) {
	order := acquireOrder(t, 0, 10*time.Millisecond, []struct {
		name string
		pri  int32
		at   time.Duration
	}{
		{"low1", 0, 1 * time.Millisecond},
		{"low2", 0, 2 * time.Millisecond},
		{"high", 1, 3 * time.Millisecond},
	})
	want := []string{"high", "low1", "low2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v (high skips queued lows)", order, want)
		}
	}
}

func TestAcquirePriHighsKeepFIFOAmongThemselves(t *testing.T) {
	order := acquireOrder(t, 0, 10*time.Millisecond, []struct {
		name string
		pri  int32
		at   time.Duration
	}{
		{"low", 0, 1 * time.Millisecond},
		{"high1", 1, 2 * time.Millisecond},
		{"high2", 1, 3 * time.Millisecond},
	})
	want := []string{"high1", "high2", "low"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestAcquirePriAgedLowIsNotSkipped(t *testing.T) {
	// With a 5ms aging period, a low waiter queued at 1ms has effective
	// priority 1 by the time the high arrives at 7ms — the high must queue
	// behind it, not skip it.
	order := acquireOrder(t, 5*time.Millisecond, 10*time.Millisecond, []struct {
		name string
		pri  int32
		at   time.Duration
	}{
		{"low-old", 0, 1 * time.Millisecond},
		{"low-new", 0, 6 * time.Millisecond},
		{"high", 1, 7 * time.Millisecond},
	})
	want := []string{"low-old", "high", "low-new"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v (aged low outranks fresh high)", order, want)
		}
	}
}

func TestAcquirePriUncontendedIsImmediate(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	r := NewResource(2)
	got := 0
	e.Go("a", func(p *Proc) {
		r.AcquirePri(p, 1)
		got++
		r.Release()
	})
	e.Run(0)
	if got != 1 {
		t.Fatal("uncontended AcquirePri did not run")
	}
	if r.InUse() != 0 || r.QueueLen() != 0 {
		t.Fatalf("resource not drained: inUse=%d queue=%d", r.InUse(), r.QueueLen())
	}
}

// TestResourceQueueReusesArray pins the waiter queue's storage reuse: three
// processes cycle through a single-slot resource, so every Release hands the
// slot to a queued waiter and the releaser queues again behind the other.
// In steady state that churn allocates nothing.
func TestResourceQueueReusesArray(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	r := NewResource(1)
	grants := 0
	for i := 0; i < 3; i++ {
		e.Go("cycler", func(p *Proc) {
			for {
				r.AcquirePri(p, 0)
				grants++
				p.Sleep(time.Microsecond)
				r.Release()
			}
		})
	}
	step := func() { e.Run(e.Now() + 10*time.Microsecond) }
	step() // spawn the cyclers and fill the queue
	if r.QueueLen() != 2 {
		t.Fatalf("queue length %d, want 2", r.QueueLen())
	}
	before := grants
	if n := testing.AllocsPerRun(100, step); n != 0 {
		t.Errorf("steady Acquire/Release with waiters queued allocates %.1f times per 10 grants, want 0", n)
	}
	if got := grants - before; got != 1010 {
		t.Errorf("%d grants in 101 steps of 10µs, want 1010", got)
	}
}

// refResource is the slot queue as it was before Release kept the backing
// array: Release re-slices the front waiter off. Its grant order is the
// reference TestResourceGrantOrderMatchesReference compares against.
type refResource struct {
	engine  *Engine
	inUse   int
	aging   time.Duration
	waiters []resWaiter
}

func (r *refResource) AcquirePri(p *Proc, pri int32) {
	if r.inUse < 1 {
		r.inUse++
		return
	}
	now := r.engine.Now()
	eff := func(w *resWaiter) int32 {
		if r.aging <= 0 {
			return w.pri
		}
		return w.pri + int32((now-w.at)/r.aging)
	}
	idx := len(r.waiters)
	for idx > 0 && eff(&r.waiters[idx-1]) < pri {
		idx--
	}
	r.waiters = append(r.waiters, resWaiter{})
	copy(r.waiters[idx+1:], r.waiters[idx:])
	r.waiters[idx] = resWaiter{p: p, pri: pri, at: now}
	p.suspend()
}

func (r *refResource) Release() {
	if len(r.waiters) > 0 {
		next := r.waiters[0].p
		r.waiters = r.waiters[1:]
		r.engine.scheduleWake(0, next)
		return
	}
	r.inUse--
}

// TestResourceGrantOrderMatchesReference replays seeded random bursts of
// prioritized acquirers, with and without aging, against Resource and the
// re-slicing reference, and requires the same grant order: priority, then
// aging, then FIFO within a class. The bursts drain and refill the queue,
// so it is compacted with waiters of several classes queued. On Resource
// the odd acquirers park at the top (TryAcquirePri) and the even ones hold
// their carrier (AcquirePri): both share one queue and one grant order.
func TestResourceGrantOrderMatchesReference(t *testing.T) {
	type slot interface {
		AcquirePri(p *Proc, pri int32)
		Release()
	}
	run := func(seed int64, aging time.Duration, mk func(e *Engine) slot) []int {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		defer e.Close()
		r := mk(e)
		var order []int
		for i := 0; i < 300; i++ {
			i, pri := i, int32(rng.Intn(4))
			at := time.Duration(rng.Intn(40)) * time.Millisecond
			hold := time.Duration(1+rng.Intn(300)) * time.Microsecond
			queued := false
			e.Go("acq", func(p *Proc) {
				if !queued {
					p.Sleep(at)
					if res, ok := r.(*Resource); ok && i%2 == 1 {
						if !res.TryAcquirePri(p, pri) {
							queued = true
							return
						}
					} else {
						r.AcquirePri(p, pri)
					}
				}
				order = append(order, i)
				p.Sleep(hold)
				r.Release()
			})
		}
		e.Run(0)
		return order
	}
	for seed := int64(1); seed <= 20; seed++ {
		for _, aging := range []time.Duration{0, 500 * time.Microsecond} {
			got := run(seed, aging, func(e *Engine) slot {
				r := NewResource(1)
				r.SetAging(aging)
				return r
			})
			want := run(seed, aging, func(e *Engine) slot { return &refResource{engine: e, aging: aging} })
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d aging %v: grant order\n got %v\nwant %v", seed, aging, got, want)
			}
		}
	}
}
