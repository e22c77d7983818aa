// Package sim provides a deterministic discrete-event simulation engine with
// SimPy-style cooperative processes.
//
// The engine maintains a virtual clock and an event heap ordered by
// (time, sequence number). A process (Proc) is an identity with a body: the
// engine wakes it, its body runs on a carrier goroutine until it parks on a
// primitive, and control returns to the engine. Sleep, Signal.Wait and
// Resource.AcquirePri park mid-body and keep the carrier until the wake;
// Signal.Await and Resource.TryAcquirePri park at the top: they register the
// process exactly where Wait and AcquirePri would, the body returns, and the
// carrier goes back to the engine's pool, so a process waiting there holds
// no goroutine and its wake runs the body again from the top. Only this
// package parks and wakes processes; code built on it waits on those
// primitives. Because only one goroutine is ever runnable and ties are
// broken by monotonically increasing sequence numbers, a simulation is fully
// deterministic: the same inputs produce bit-identical schedules.
//
// The engine is built for scale replays (10^5..10^6 requests): the event heap
// is a concrete-typed binary heap (no container/heap interface boxing),
// process wake-ups are value events carrying the target process instead of a
// fresh closure, finished process shells park in a free list, and idle
// carrier goroutines park in a pool, so a new Go reuses a shell and a warm
// goroutine instead of allocating and spawning them.
package sim

import (
	"fmt"
	"sync"
	"time"
)

// Engine is a discrete-event simulation engine. The zero value is not usable;
// use NewEngine.
type Engine struct {
	now    time.Duration
	seq    int64
	events eventHeap

	// yield is the handshake channel on which the running carrier signals
	// that its process has parked (or returned) and the engine may proceed.
	yield chan struct{}
	// kill is closed by Close to terminate carriers, idle or holding a
	// process parked mid-body, when the simulation ends.
	kill   chan struct{}
	closed bool
	wg     sync.WaitGroup

	// nonDaemon counts queued non-daemon events; Run(0) stops at zero.
	nonDaemon int
	// executed counts executed events (ShardUtil reporting).
	executed int64

	// free holds retired process shells, and carriers the idle carrier
	// goroutines, each parked on its own channel. Access follows the same
	// single-runner discipline as the event heap: a carrier only touches
	// them while it holds the conceptual run lock (between being resumed and
	// yielding), so no mutex is needed.
	free     []*Proc
	carriers []chan *Proc

	// Obs is an opaque observability slot. Higher layers (internal/obs)
	// attach a tracer here without the engine depending on them; a nil slot
	// means tracing is disabled and costs only a nil check at call sites.
	Obs any
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{
		yield: make(chan struct{}),
		kill:  make(chan struct{}),
	}
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// NextEventAt returns the virtual time of the earliest pending event (daemon
// or not) and whether one exists. Shard coordinators use it to derive the
// next conservative lookahead window.
func (e *Engine) NextEventAt() (time.Duration, bool) {
	if len(e.events) == 0 {
		return 0, false
	}
	return e.events[0].at, true
}

// PendingNonDaemon returns the number of queued non-daemon events — the
// work that keeps Run(0) (and a ShardGroup run) alive.
func (e *Engine) PendingNonDaemon() int { return e.nonDaemon }

// Executed returns the cumulative count of events this engine has executed.
func (e *Engine) Executed() int64 { return e.executed }

// Reserve pre-sizes the event heap for at least events pending entries, so a
// large replay does not grow the heap incrementally.
func (e *Engine) Reserve(events int) {
	if cap(e.events) < events {
		grown := make(eventHeap, len(e.events), events)
		copy(grown, e.events)
		e.events = grown
	}
}

type event struct {
	at  time.Duration
	seq int64
	// daemon events do not keep Run alive: Run(0) returns when only daemon
	// events remain (background maintenance loops must not prevent a
	// simulation from completing).
	daemon bool
	fn     func()
	// wake, when non-nil, makes this a process wake-up event: the engine
	// resumes the process directly instead of calling fn. gen snapshots the
	// process's incarnation at scheduling time so a wake-up that outlives its
	// process cannot leak into a recycled one.
	wake *Proc
	gen  uint64
}

// eventHeap is a concrete-typed binary min-heap over (at, seq). It
// deliberately does not implement container/heap: pushing through that
// interface boxes every event into an allocation, which dominates the event
// loop at replay scale.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = event{} // drop fn/wake references so retired entries don't pin memory
	s = s[:n]
	*h = s
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && s.less(r, l) {
			m = r
		}
		if !s.less(m, i) {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	return top
}

// Schedule arranges for fn to run at now+delay. A negative delay is treated
// as zero. Events at equal times fire in scheduling order.
func (e *Engine) Schedule(delay time.Duration, fn func()) {
	e.schedule(delay, false, fn)
}

// ScheduleDaemon schedules a background-maintenance event that does not keep
// Run(0) alive.
func (e *Engine) ScheduleDaemon(delay time.Duration, fn func()) {
	e.schedule(delay, true, fn)
}

func (e *Engine) schedule(delay time.Duration, daemon bool, fn func()) {
	if delay < 0 {
		delay = 0
	}
	e.seq++
	if !daemon {
		e.nonDaemon++
	}
	e.events.push(event{at: e.now + delay, seq: e.seq, daemon: daemon, fn: fn})
}

// scheduleWake schedules a closure-free wake-up event for p at now+delay,
// inheriting p's daemon status. The event snapshots p's generation; if p
// finishes (and its shell is recycled) before the event fires, delivery
// panics instead of silently resuming an unrelated process.
func (e *Engine) scheduleWake(delay time.Duration, p *Proc) {
	if delay < 0 {
		delay = 0
	}
	e.seq++
	if !p.daemon {
		e.nonDaemon++
	}
	e.events.push(event{at: e.now + delay, seq: e.seq, daemon: p.daemon, wake: p, gen: p.gen})
}

// Run executes events until only daemon events remain, the heap is empty, or
// the clock would pass until. A zero until runs to completion of all
// non-daemon activity and returns at the time of the last executed event.
//
// The clock is monotone: Run never rewinds it. Calling Run with a positive
// until at or before the current time executes nothing and returns the
// current time unchanged. With until beyond the current time, Run returns
// with the clock at exactly until — including when the event heap drains
// before the horizon (virtual time still passes in an idle simulation).
func (e *Engine) Run(until time.Duration) time.Duration {
	if until > 0 && until <= e.now {
		return e.now
	}
	for len(e.events) > 0 {
		if until == 0 && e.nonDaemon == 0 {
			return e.now
		}
		if until > 0 && e.events[0].at > until {
			e.now = until
			return e.now
		}
		next := e.events.pop()
		e.executed++
		if !next.daemon {
			e.nonDaemon--
		}
		if next.at > e.now {
			e.now = next.at
		}
		if next.wake != nil {
			if next.wake.gen != next.gen {
				panic(fmt.Sprintf("sim: stale wake-up for recycled process (scheduled as %q)", next.wake.Name))
			}
			e.wake(next.wake)
		} else {
			next.fn()
		}
	}
	if until > e.now {
		e.now = until
	}
	return e.now
}

// Close terminates the engine's carrier goroutines, idle ones and those
// holding a process parked mid-body, and waits for them to exit. A process
// parked at the top holds no goroutine and needs nothing. Close must only be
// called when Run has returned (no process is mid-step). Close is
// idempotent.
func (e *Engine) Close() {
	if e.closed {
		return
	}
	e.closed = true
	close(e.kill)
	e.wg.Wait()
}

// procKilled is the panic value used to unwind a carrier goroutine when the
// engine shuts down while the carrier is idle or its process is parked.
type procKilled struct{}

// Runner is a process body. Go and GoDaemon wrap a closure in one; GoRun
// takes a value the caller already owns, so pooled per-request state that
// implements Runner is handed to the engine without allocating a closure.
//
// A body that parks at the top (Signal.Await or Resource.TryAcquirePri
// returned false) must return at once; its wake calls Run again, so such a
// body keeps in its own state how far it got.
type Runner interface {
	Run(p *Proc)
}

// runFunc is a closure body as a Runner.
type runFunc func(p *Proc)

func (f runFunc) Run(p *Proc) { f(p) }

// Proc is a cooperative simulation process: an identity, a place in at most
// one wait list, and a body. A carrier goroutine runs the body from a wake
// until it parks at the top or returns. All Proc methods must be called from
// within the process's own body function.
type Proc struct {
	Name string
	// Acct is an opaque per-process accounting slot. Higher layers
	// (internal/obs) attach latency-bucket accumulators here; a nil slot
	// means accounting is disabled and costs only a nil check at call sites.
	// It survives a park at the top.
	Acct   any
	engine *Engine
	// c is the channel of the carrier running the body. A wake sets it
	// (taking a carrier from the pool) when it is nil; parking at the top
	// and retiring clear it.
	c chan *Proc

	// gen counts incarnations of this shell. It bumps when a body finishes
	// and the shell parks in the free list; pending wake events carry the gen
	// they were scheduled against, so a wake crossing a recycle boundary is
	// detected instead of resuming the wrong process.
	gen    uint64
	runner Runner
	// daemon marks a background-maintenance process whose timer events do
	// not keep Run(0) alive.
	daemon bool
}

// Engine returns the engine this process runs on.
func (p *Proc) Engine() *Engine { return p.engine }

// Now returns the current virtual time.
func (p *Proc) Now() time.Duration { return p.engine.now }

// Go spawns a new process whose body starts at the current virtual time
// (after already-pending events at this time).
func (e *Engine) Go(name string, body func(p *Proc)) *Proc {
	return e.spawn(name, runFunc(body), false)
}

// GoDaemon spawns a daemon process: its sleeps and wakeups never keep
// Run(0) alive. Use it for periodic maintenance loops.
func (e *Engine) GoDaemon(name string, body func(p *Proc)) *Proc {
	return e.spawn(name, runFunc(body), true)
}

// GoRun spawns a process that executes r.Run, starting at the current
// virtual time. Unlike Go it takes a caller-owned value rather than a
// closure, so repeated spawns of pooled work items allocate nothing.
func (e *Engine) GoRun(name string, r Runner) *Proc {
	return e.spawn(name, r, false)
}

// spawn gives r a process shell, recycled from the free list when possible,
// and schedules its first wake at the current instant. The shell has no
// carrier until that wake.
func (e *Engine) spawn(name string, r Runner, daemon bool) *Proc {
	var p *Proc
	if n := len(e.free); n > 0 {
		p = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		p.Name = name
	} else {
		p = &Proc{Name: name, engine: e}
	}
	p.runner = r
	p.daemon = daemon
	e.scheduleWake(0, p)
	return p
}

// carrier returns an idle carrier's channel, spawning a carrier goroutine
// when the pool is empty. The spawn does not wait for the goroutine to
// start: the first wake is a send on the channel, which blocks until it has.
func (e *Engine) carrier() chan *Proc {
	if n := len(e.carriers); n > 0 {
		c := e.carriers[n-1]
		e.carriers = e.carriers[:n-1]
		return c
	}
	c := make(chan *Proc)
	e.wg.Add(1)
	go e.carry(c)
	return c
}

// carry is a carrier goroutine's loop: receive a process on c, run its body
// from the top, retire the shell if the body finished rather than parked at
// the top, and return to the pool.
func (e *Engine) carry(c chan *Proc) {
	defer e.wg.Done()
	var p *Proc
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(procKilled); ok {
				return
			}
			panic(fmt.Sprintf("sim: process %q panicked: %v", p.Name, r))
		}
	}()
	for {
		p = e.receive(c)
		p.runner.Run(p)
		if p.c != nil {
			p.retire()
		}
		e.carriers = append(e.carriers, c)
		e.yield <- struct{}{}
	}
}

// retire resets the shell after its body returns and parks it in the free
// list. It runs on the carrier, but only in the window where the carrier
// still holds the run lock (the engine is blocked on yield), so the
// free-list append is ordered with all engine-side accesses.
func (p *Proc) retire() {
	p.gen++
	p.runner = nil
	p.daemon = false
	p.Acct = nil
	p.c = nil
	e := p.engine
	e.free = append(e.free, p)
}

// wake resumes p — on the carrier holding it, or from the top on one from
// the pool — and waits for it to park or finish. It must only be called
// from event context (i.e. while the engine loop is executing an event),
// never from another process.
func (e *Engine) wake(p *Proc) {
	c := p.c
	if c == nil {
		c = e.carrier()
		p.c = c
	}
	c <- p
	<-e.yield
}

// receive parks the calling carrier until the engine sends it a process on
// c, or unwinds it when the engine closes.
func (e *Engine) receive(c chan *Proc) *Proc {
	select {
	case p := <-c:
		return p
	case <-e.kill:
		panic(procKilled{})
	}
}

// suspend yields control to the engine and parks mid-body, holding the
// carrier, until woken.
func (p *Proc) suspend() {
	c := p.c
	p.engine.yield <- struct{}{}
	p.engine.receive(c)
}

// mustRun panics unless p's body is running on a carrier. Every primitive
// that parks calls it before registering p anywhere, so a body that keeps
// running after Await or TryAcquirePri parked it fails at its next park
// instead of corrupting a wait list.
func (p *Proc) mustRun() {
	if p.c == nil {
		p.strayPark()
	}
}

func (p *Proc) strayPark() {
	panic(fmt.Sprintf("sim: process %q parked again after it parked at the top; its body must return once Await or TryAcquirePri reports false", p.Name))
}

// Sleep suspends the process for d of virtual time. A daemon process's
// sleep does not keep Run(0) alive.
func (p *Proc) Sleep(d time.Duration) {
	p.mustRun()
	p.engine.scheduleWake(d, p)
	p.suspend()
}
