package sim

import "time"

// Signal is a one-shot broadcast event. Processes that Wait or Await before
// Fire are queued; Fire wakes all of them (in wait order) and any later Wait
// or Await returns immediately.
//
// The first waiter sits inline and the others in a list behind a pointer,
// allocated on the second waiter and kept across Reset, so a signal with one
// waiter allocates nothing past itself. Each waiter is woken on its own
// process's engine.
type Signal struct {
	first *Proc
	more  *[]*Proc
	fired bool
}

// NewSignal returns an unfired signal for processes of e. The zero Signal
// is unfired too: embedding one in a pooled struct, and rearming it with
// Reset, avoids the allocation of NewSignal on hot paths.
func NewSignal(_ *Engine) *Signal { return &Signal{} }

// Reset rearms the signal for reuse. It must only be called once every
// waiter woken by the previous Fire has resumed — i.e. when the owner knows
// the signal's last cycle is fully drained.
func (s *Signal) Reset() {
	s.fired = false
	s.first = nil
	if s.more != nil {
		*s.more = (*s.more)[:0]
	}
}

// Fired reports whether the signal has fired.
func (s *Signal) Fired() bool { return s.fired }

// Wait suspends p until the signal fires, holding its carrier. If it has
// already fired, Wait returns immediately.
func (s *Signal) Wait(p *Proc) {
	if s.fired {
		return
	}
	p.mustRun()
	s.add(p)
	p.suspend()
}

// Await is Wait that parks p at the top. If the signal has fired it returns
// true and p runs on. Otherwise it queues p exactly where Wait would and
// returns false: p's body must then return, its carrier goes back to the
// pool, and the wake Fire schedules runs the body again from the top, where
// an Await of the same signal returns true.
func (s *Signal) Await(p *Proc) bool {
	if s.fired {
		return true
	}
	p.mustRun()
	s.add(p)
	p.c = nil
	return false
}

// add queues p behind the signal's earlier waiters.
func (s *Signal) add(p *Proc) {
	if s.first == nil {
		s.first = p
		return
	}
	if s.more == nil {
		s.more = new([]*Proc)
	}
	*s.more = append(*s.more, p)
}

// Fire marks the signal fired and schedules all waiters to resume at the
// current instant, first waiter first. Firing an already-fired signal is a
// no-op.
func (s *Signal) Fire() {
	if s.fired {
		return
	}
	s.fired = true
	if s.first == nil {
		return
	}
	s.first.engine.scheduleWake(0, s.first)
	s.first = nil
	if s.more == nil {
		return
	}
	more := *s.more
	for i, p := range more {
		p.engine.scheduleWake(0, p)
		more[i] = nil
	}
	// Keep the backing array: pooled signals (Reset) re-fill it on the next
	// cycle without reallocating.
	*s.more = more[:0]
}

// resWaiter is one queued acquirer: the process plus its priority class and
// enqueue instant (the instant feeds priority aging).
type resWaiter struct {
	p   *Proc
	pri int32
	at  time.Duration
}

// Resource is a counting resource (e.g. a GPU compute slot) with QoS
// classes. AcquirePri and TryAcquirePri queue the caller when capacity is
// exhausted, in one queue; Release hands the slot to the frontmost waiter:
// higher-priority waiters are granted slots before lower-priority ones,
// equal priorities in FIFO order, with optional aging (SetAging) so a
// sustained high-priority stream cannot starve low-priority work. Each
// waiter is woken on its own process's engine.
type Resource struct {
	cap   int
	inUse int
	aging time.Duration
	// waiters[head:] is the queue, front first. Release advances head
	// instead of re-slicing, and AcquirePri compacts the queue to the front
	// of the array before appending would grow it, so a steady queue reuses
	// one backing array.
	waiters []resWaiter
	head    int
}

// NewResource returns a resource with the given capacity (must be >= 1).
func NewResource(capacity int) *Resource {
	if capacity < 1 {
		panic("sim: resource capacity must be >= 1")
	}
	return &Resource{cap: capacity}
}

// InUse returns the number of held slots.
func (r *Resource) InUse() int { return r.inUse }

// QueueLen returns the number of processes waiting to acquire.
func (r *Resource) QueueLen() int { return len(r.waiters) - r.head }

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

// AcquirePri obtains a slot at the given priority, suspending p (holding its
// carrier) until one is available. When capacity is exhausted, the waiter is
// inserted behind every queued waiter whose effective (aged) priority is at
// least its own and ahead of the rest — equal priorities keep FIFO order, so
// a fleet of priority-0 acquirers queues first come, first served.
func (r *Resource) AcquirePri(p *Proc, pri int32) {
	if r.inUse < r.cap {
		r.inUse++
		return
	}
	p.mustRun()
	r.enqueue(p, pri)
	p.suspend()
}

// TryAcquirePri is AcquirePri that parks p at the top. With a slot free it
// takes it and returns true. Otherwise it queues p exactly where AcquirePri
// would and returns false: p's body must then return, and the wake Release
// schedules when it hands p the slot runs the body again from the top,
// already holding the slot.
func (r *Resource) TryAcquirePri(p *Proc, pri int32) bool {
	if r.inUse < r.cap {
		r.inUse++
		return true
	}
	p.mustRun()
	r.enqueue(p, pri)
	p.c = nil
	return false
}

// enqueue inserts p into the wait queue at its priority.
func (r *Resource) enqueue(p *Proc, pri int32) {
	if r.head > 0 && len(r.waiters) == cap(r.waiters) {
		n := copy(r.waiters, r.waiters[r.head:])
		clear(r.waiters[n:])
		r.waiters = r.waiters[:n]
		r.head = 0
	}
	now := p.Now()
	idx := len(r.waiters)
	for idx > r.head && r.effectivePri(&r.waiters[idx-1], now) < pri {
		idx--
	}
	r.waiters = append(r.waiters, resWaiter{})
	copy(r.waiters[idx+1:], r.waiters[idx:])
	r.waiters[idx] = resWaiter{p: p, pri: pri, at: now}
}

// Release returns a slot. If processes are waiting, the slot transfers to
// the frontmost waiter (oldest within the highest effective priority).
func (r *Resource) Release() {
	if r.head < len(r.waiters) {
		next := r.waiters[r.head].p
		r.waiters[r.head] = resWaiter{}
		r.head++
		next.engine.scheduleWake(0, next)
		return
	}
	if r.inUse <= 0 {
		panic("sim: Release without matching AcquirePri")
	}
	r.inUse--
}
