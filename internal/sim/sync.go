package sim

import "time"

// Signal is a one-shot broadcast event. Processes that Wait before Fire are
// suspended; Fire wakes all of them (in wait order) and any later Wait
// returns immediately. The zero Signal is not usable; use NewSignal.
type Signal struct {
	engine  *Engine
	fired   bool
	waiters []*Proc
}

// NewSignal returns an unfired signal bound to e.
func NewSignal(e *Engine) *Signal { return &Signal{engine: e} }

// MakeSignal returns an unfired signal value bound to e. Embedding the value
// in a pooled struct (and rearming it with Reset) avoids the per-use
// allocation of NewSignal on hot paths.
func MakeSignal(e *Engine) Signal { return Signal{engine: e} }

// Reset rearms the signal for reuse. It must only be called once every
// waiter woken by the previous Fire has resumed — i.e. when the owner knows
// the signal's last cycle is fully drained.
func (s *Signal) Reset() {
	s.fired = false
	s.waiters = s.waiters[:0]
}

// Fired reports whether the signal has fired.
func (s *Signal) Fired() bool { return s.fired }

// Wait suspends p until the signal fires. If it has already fired, Wait
// returns immediately.
func (s *Signal) Wait(p *Proc) {
	if s.fired {
		return
	}
	s.waiters = append(s.waiters, p)
	p.suspend()
}

// Fire marks the signal fired and schedules all waiters to resume at the
// current instant. Firing an already-fired signal is a no-op.
func (s *Signal) Fire() {
	if s.fired {
		return
	}
	s.fired = true
	for i, p := range s.waiters {
		s.engine.ScheduleWake(p)
		s.waiters[i] = nil
	}
	// Keep the backing array: pooled signals (Reset) re-fill it on the next
	// cycle without reallocating.
	s.waiters = s.waiters[:0]
}

// Future is a Signal that carries a value of type T.
type Future[T any] struct {
	sig *Signal
	val T
}

// NewFuture returns an unresolved future bound to e.
func NewFuture[T any](e *Engine) *Future[T] { return &Future[T]{sig: NewSignal(e)} }

// Resolve sets the value and fires the underlying signal. Resolving twice is
// a no-op (the first value wins).
func (f *Future[T]) Resolve(v T) {
	if f.sig.fired {
		return
	}
	f.val = v
	f.sig.Fire()
}

// Wait blocks p until the future resolves and returns its value.
func (f *Future[T]) Wait(p *Proc) T {
	f.sig.Wait(p)
	return f.val
}

// resWaiter is one queued acquirer: the process plus its priority class and
// enqueue instant (the instant feeds priority aging).
type resWaiter struct {
	p   *Proc
	pri int32
	at  time.Duration
}

// Resource is a FIFO counting resource (e.g. a GPU compute slot). Acquire
// blocks when capacity is exhausted; Release hands the slot to the oldest
// waiter. AcquirePri adds QoS classes: higher-priority waiters are granted
// slots before lower-priority ones, with optional aging (SetAging) so a
// sustained high-priority stream cannot starve low-priority work.
type Resource struct {
	engine  *Engine
	cap     int
	inUse   int
	aging   time.Duration
	waiters []resWaiter
}

// NewResource returns a resource with the given capacity (must be >= 1).
func NewResource(e *Engine, capacity int) *Resource {
	if capacity < 1 {
		panic("sim: resource capacity must be >= 1")
	}
	return &Resource{engine: e, cap: capacity}
}

// InUse returns the number of held slots.
func (r *Resource) InUse() int { return r.inUse }

// QueueLen returns the number of processes waiting to acquire.
func (r *Resource) QueueLen() int { return len(r.waiters) }

// SetAging sets the priority-aging period: a queued waiter's effective
// priority rises one level per d waited, so low-priority requests overtaken
// by a high-priority stream eventually rank equal and drain in FIFO order.
// Zero (the default) disables aging.
func (r *Resource) SetAging(d time.Duration) { r.aging = d }

// effectivePri is a waiter's priority after aging at the given instant.
// Effective priorities of queued waiters all grow at the same rate, so their
// relative order never inverts after insertion and the queue stays sorted.
func (r *Resource) effectivePri(w *resWaiter, now time.Duration) int32 {
	if r.aging <= 0 {
		return w.pri
	}
	return w.pri + int32((now-w.at)/r.aging)
}

// Acquire obtains a slot at the default (lowest) priority, suspending p
// until one is available.
func (r *Resource) Acquire(p *Proc) { r.AcquirePri(p, 0) }

// AcquirePri obtains a slot at the given priority. When capacity is
// exhausted, the waiter is inserted behind every queued waiter whose
// effective (aged) priority is at least its own and ahead of the rest —
// equal priorities keep FIFO order, so a fleet of priority-0 acquirers
// behaves exactly like Acquire.
func (r *Resource) AcquirePri(p *Proc, pri int32) {
	if r.inUse < r.cap {
		r.inUse++
		return
	}
	now := r.engine.Now()
	idx := len(r.waiters)
	for idx > 0 && r.effectivePri(&r.waiters[idx-1], now) < pri {
		idx--
	}
	r.waiters = append(r.waiters, resWaiter{})
	copy(r.waiters[idx+1:], r.waiters[idx:])
	r.waiters[idx] = resWaiter{p: p, pri: pri, at: now}
	p.suspend()
}

// Release returns a slot. If processes are waiting, the slot transfers to
// the frontmost waiter (oldest within the highest effective priority).
func (r *Resource) Release() {
	if len(r.waiters) > 0 {
		next := r.waiters[0].p
		r.waiters[0] = resWaiter{}
		r.waiters = r.waiters[1:]
		r.engine.ScheduleWake(next)
		return
	}
	if r.inUse <= 0 {
		panic("sim: Release without matching Acquire")
	}
	r.inUse--
}
