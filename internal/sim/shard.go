// Sharded parallel execution.
//
// A ShardGroup partitions a simulation into shards, each owning its own
// Engine — its own typed event heap, clock, and proc pool — so shards can
// execute on separate goroutines. Shards interact only through Mailboxes:
// per-pair ordered queues whose messages are delivered after a fixed,
// positive minimum latency. That latency is the conservative lookahead
// bound: because a message sent at virtual time s cannot take effect before
// s+latency, every shard may safely advance `lookahead` (the minimum latency
// over all open mailboxes) past the globally earliest pending event without
// missing an incoming message.
//
// Execution proceeds in lookahead windows. Each round the coordinator
//
//  1. finds t, the earliest pending event or undelivered message across the
//     group, and sets the window end E = t + lookahead;
//  2. delivers every queued message with delivery time <= E, in
//     (time, destination shard, mailbox, send sequence) order, by moving it
//     to its mailbox's inbox and scheduling the mailbox's pop on the
//     destination engine;
//  3. steps every shard's engine to exactly E — concurrently in parallel
//     mode, in shard-ID order in sequential mode — and barriers.
//
// A window includes its end E, so a message sent as a window opens, over a
// mailbox whose latency is the lookahead, is due exactly at E but is only
// injected at the next barrier: each destination sees (time, injecting
// barrier, mailbox, send sequence) order.
//
// Once every mailbox is closed and drained no message can ever arrive, so
// the lookahead becomes unbounded and each shard drains to completion in a
// single final window.
//
// Determinism: message delivery order is a pure function of virtual times
// and sequence numbers, each engine is single-threaded and deterministic
// within a window, and window boundaries are derived from virtual time only.
// Parallel and sequential runs of the same group are therefore
// byte-identical — RunSequential is the oracle that parallel executions are
// differentially tested against — and results never depend on goroutine
// scheduling or worker count.
package sim

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"
)

// farFuture is an unreachable virtual time.
const farFuture = time.Duration(math.MaxInt64)

// drainWindow is the sentinel "window end" used when no open mailbox
// remains: shards run to completion instead of to a horizon.
const drainWindow = time.Duration(-1)

// Shard is one member of a ShardGroup: an engine plus its synchronization
// state.
type Shard struct {
	id     int
	engine *Engine
	group  *ShardGroup

	work chan time.Duration

	busy    time.Duration
	windows int64
}

// ID returns the shard's index within its group.
func (s *Shard) ID() int { return s.id }

// Engine returns the shard's private engine. Simulation state built on it
// must not be shared with other shards; cross-shard interaction goes through
// mailboxes.
func (s *Shard) Engine() *Engine { return s.engine }

// ShardUtil reports one shard's wall-clock utilization over a group run:
// Busy is time spent executing the shard's event windows, Wait is the rest
// of the run (barrier waits and coordinator time). Busy/(Busy+Wait) low on
// one shard and high on another means the partition is imbalanced; Wait
// dominated by many small windows means the lookahead bound is too tight.
type ShardUtil struct {
	Shard   int
	Busy    time.Duration
	Wait    time.Duration
	Windows int64
	// Events is the cumulative event count the shard's engine executed.
	Events int64
}

// String renders the utilization as a one-line summary.
func (u ShardUtil) String() string {
	total := u.Busy + u.Wait
	pct := 0.0
	if total > 0 {
		pct = 100 * float64(u.Busy) / float64(total)
	}
	return fmt.Sprintf("shard %d: busy %v wait %v (%.0f%% busy) windows=%d events=%d",
		u.Shard, u.Busy.Round(time.Millisecond), u.Wait.Round(time.Millisecond),
		pct, u.Windows, u.Events)
}

// envelope is one queued cross-shard message.
type envelope struct {
	at      time.Duration // delivery time: send time + mailbox latency
	seq     int64         // per-mailbox send sequence
	payload any
}

// Mailbox is an ordered, latency-bounded message queue from one shard to
// another. Send may only be called from event context on the sending shard
// (i.e. while its engine is executing an event); the handler runs in event
// context on the destination shard at exactly send time + latency.
type Mailbox struct {
	id       int
	from, to *Shard
	latency  time.Duration
	handler  func(payload any)
	queue    []envelope
	// inbox holds delivered payloads, oldest at head, each awaiting the pop
	// event deliver scheduled for it; pop is bound once at construction.
	inbox  []any
	head   int
	pop    func()
	seq    int64
	closed bool
}

// Close marks the mailbox as finished: no further Send is allowed, and once
// every queued message is delivered the mailbox no longer bounds the group's
// lookahead. Call it from the sending shard (or before the run starts).
func (m *Mailbox) Close() { m.closed = true }

// Closed reports whether the mailbox has been closed.
func (m *Mailbox) Closed() bool { return m.closed }

// Latency returns the mailbox's delivery latency (its lookahead
// contribution).
func (m *Mailbox) Latency() time.Duration { return m.latency }

// Send queues payload for delivery to the destination shard at the current
// virtual time plus the mailbox latency. Messages on one mailbox are
// delivered in send order.
func (m *Mailbox) Send(payload any) {
	if m.closed {
		panic(fmt.Sprintf("sim: send on closed mailbox %d->%d", m.from.id, m.to.id))
	}
	m.seq++
	m.queue = append(m.queue, envelope{at: m.from.engine.now + m.latency, seq: m.seq, payload: payload})
}

// delivery pairs an envelope with its mailbox for the global merge sort.
type delivery struct {
	env envelope
	box *Mailbox
}

// ShardGroup coordinates a set of shards under the conservative lookahead
// protocol. Construct with NewShardGroup, wire mailboxes, build per-shard
// simulation state on each shard's engine, then call Run (parallel) or
// RunSequential (the determinism oracle).
type ShardGroup struct {
	shards []*Shard
	mail   []*Mailbox

	started bool
	workers bool
	done    chan struct{}
	wg      sync.WaitGroup

	wall    time.Duration
	scratch []delivery
}

// NewShardGroup builds a group of n shards, each with a fresh engine.
func NewShardGroup(n int) *ShardGroup {
	if n < 1 {
		panic("sim: shard group needs at least one shard")
	}
	g := &ShardGroup{}
	for i := 0; i < n; i++ {
		g.shards = append(g.shards, &Shard{id: i, engine: NewEngine(), group: g})
	}
	return g
}

// Shards returns the number of shards in the group.
func (g *ShardGroup) Shards() int { return len(g.shards) }

// Shard returns the i-th shard.
func (g *ShardGroup) Shard(i int) *Shard { return g.shards[i] }

// NewMailbox registers an ordered message queue from one shard to another
// with the given delivery latency. The latency must be positive — it is the
// lookahead this mailbox imposes on the whole group — and both shards must
// belong to this group. Mailboxes must be wired before the first run.
func (g *ShardGroup) NewMailbox(from, to *Shard, latency time.Duration, handler func(payload any)) *Mailbox {
	switch {
	case g.started:
		panic("sim: mailboxes must be wired before the group runs")
	case from == nil || to == nil || from.group != g || to.group != g:
		panic("sim: mailbox endpoints must be shards of this group")
	case from == to:
		panic("sim: mailbox endpoints must be distinct shards")
	case latency <= 0:
		panic("sim: mailbox latency must be positive (it bounds the lookahead)")
	case handler == nil:
		panic("sim: mailbox needs a delivery handler")
	}
	m := &Mailbox{id: len(g.mail), from: from, to: to, latency: latency, handler: handler}
	m.pop = m.popInbox
	g.mail = append(g.mail, m)
	return m
}

// popInbox hands the oldest delivered payload to the handler. A mailbox's
// deliveries have non-decreasing times and are scheduled in send order, so
// they fire in inbox order; every window fires all it delivered, so the
// inbox empties and is reused from the front.
func (m *Mailbox) popInbox() {
	payload := m.inbox[m.head]
	m.inbox[m.head] = nil
	m.head++
	if m.head == len(m.inbox) {
		m.inbox, m.head = m.inbox[:0], 0
	}
	m.handler(payload)
}

// Run executes the group to completion with one goroutine per shard,
// synchronized at window barriers. Output is byte-identical to
// RunSequential.
func (g *ShardGroup) Run() { g.run(true) }

// RunSequential executes the identical window protocol on the calling
// goroutine, stepping shards in ID order: the single-threaded determinism
// oracle for Run.
func (g *ShardGroup) RunSequential() { g.run(false) }

func (g *ShardGroup) run(parallel bool) {
	g.started = true
	t0 := time.Now()
	if parallel && len(g.shards) > 1 && !g.workers {
		g.startWorkers()
	}
	useWorkers := g.workers && parallel
	for {
		// Earliest pending work: the soonest engine event or queued message.
		next := farFuture
		pendingWork := 0
		for _, sh := range g.shards {
			if at, ok := sh.engine.NextEventAt(); ok && at < next {
				next = at
			}
			pendingWork += sh.engine.PendingNonDaemon()
		}
		look := time.Duration(0) // 0 = unbounded (no open mailbox)
		for _, m := range g.mail {
			if len(m.queue) > 0 {
				pendingWork += len(m.queue)
				if m.queue[0].at < next {
					next = m.queue[0].at
				}
			}
			if !m.closed && (look == 0 || m.latency < look) {
				look = m.latency
			}
		}
		if pendingWork == 0 {
			break
		}
		until := drainWindow
		if look > 0 {
			until = next + look
		}
		g.deliver(until)
		if useWorkers {
			for _, sh := range g.shards {
				sh.work <- until
			}
			for range g.shards {
				<-g.done
			}
		} else {
			for _, sh := range g.shards {
				sh.step(until)
			}
		}
	}
	g.wall += time.Since(t0)
}

// deliver injects every queued message with delivery time at or before the
// window end (all of them for a drain window) into its destination engine,
// in (time, destination shard, mailbox, send sequence) order. Injection
// happens at the barrier, before any shard enters the window, so a
// destination engine always receives the event before its clock can pass
// the delivery time. A steady-state window allocates nothing: the queues
// compact in place and each delivery schedules its mailbox's bound pop.
func (g *ShardGroup) deliver(until time.Duration) {
	due := g.scratch[:0]
	for _, m := range g.mail {
		n := 0
		for n < len(m.queue) && (until == drainWindow || m.queue[n].at <= until) {
			due = append(due, delivery{env: m.queue[n], box: m})
			n++
		}
		if n > 0 {
			left := copy(m.queue, m.queue[n:])
			clear(m.queue[left:])
			m.queue = m.queue[:left]
		}
	}
	slices.SortFunc(due, func(a, b delivery) int {
		return cmp.Or(cmp.Compare(a.env.at, b.env.at), cmp.Compare(a.box.to.id, b.box.to.id),
			cmp.Compare(a.box.id, b.box.id), cmp.Compare(a.env.seq, b.env.seq))
	})
	for i := range due {
		d := &due[i]
		eng := d.box.to.engine
		if d.env.at < eng.now {
			panic(fmt.Sprintf("sim: lookahead violated: delivery at %v behind shard %d clock %v",
				d.env.at, d.box.to.id, eng.now))
		}
		d.box.inbox = append(d.box.inbox, d.env.payload)
		eng.Schedule(d.env.at-eng.now, d.box.pop)
	}
	clear(due)
	g.scratch = due[:0]
}

// step advances the shard's engine through one window: to exactly `until`,
// or to completion of all its non-daemon work for a drain window.
func (sh *Shard) step(until time.Duration) {
	t0 := time.Now()
	if until == drainWindow {
		sh.engine.Run(0)
	} else {
		sh.engine.Run(until)
	}
	sh.busy += time.Since(t0)
	sh.windows++
}

// startWorkers spawns one persistent goroutine per shard. Workers block on
// their work channel between windows; Close tears them down.
func (g *ShardGroup) startWorkers() {
	g.workers = true
	g.done = make(chan struct{}, len(g.shards))
	for _, sh := range g.shards {
		sh.work = make(chan time.Duration, 1)
		g.wg.Add(1)
		go func(sh *Shard) {
			defer g.wg.Done()
			for until := range sh.work {
				sh.step(until)
				g.done <- struct{}{}
			}
		}(sh)
	}
}

// Wall returns the total wall-clock time spent inside Run/RunSequential.
func (g *ShardGroup) Wall() time.Duration { return g.wall }

// Util reports per-shard wall-clock utilization for the runs so far: each
// shard's busy time inside its event windows, with the remainder of the
// group's wall time counted as barrier wait.
func (g *ShardGroup) Util() []ShardUtil {
	out := make([]ShardUtil, len(g.shards))
	for i, sh := range g.shards {
		wait := g.wall - sh.busy
		if wait < 0 {
			wait = 0
		}
		out[i] = ShardUtil{
			Shard: sh.id, Busy: sh.busy, Wait: wait,
			Windows: sh.windows, Events: sh.engine.Executed(),
		}
	}
	return out
}

// Close stops the worker goroutines and closes every shard engine. Like
// Engine.Close it must only be called once runs have returned.
func (g *ShardGroup) Close() {
	if g.workers {
		g.workers = false
		for _, sh := range g.shards {
			close(sh.work)
		}
		g.wg.Wait()
	}
	for _, sh := range g.shards {
		sh.engine.Close()
	}
}
