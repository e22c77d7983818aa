package sim

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// logEntry records one observed handler/proc action for determinism
// comparisons. Each shard appends only to its own slice (single-threaded
// within a shard), and logs are merged by (time, shard, local order) — the
// same total order the group's mail merge defines.
type logEntry struct {
	at    time.Duration
	shard int
	msg   string
}

func mergeLogs(perShard [][]logEntry) []logEntry {
	var all []logEntry
	for _, l := range perShard {
		all = append(all, l...)
	}
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].at != all[j].at {
			return all[i].at < all[j].at
		}
		return all[i].shard < all[j].shard
	})
	return all
}

func TestMailboxDeliveryTimeExact(t *testing.T) {
	g := NewShardGroup(2)
	defer g.Close()
	var got []time.Duration
	dst := g.Shard(1)
	box := g.NewMailbox(g.Shard(0), dst, 7*time.Millisecond, func(payload any) {
		got = append(got, dst.Engine().Now())
	})
	g.Shard(0).Engine().Go("sender", func(p *Proc) {
		box.Send(0)
		p.Sleep(3 * time.Millisecond)
		box.Send(1)
		box.Close()
	})
	g.RunSequential()
	want := []time.Duration{7 * time.Millisecond, 10 * time.Millisecond}
	if len(got) != len(want) {
		t.Fatalf("deliveries %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delivery %d at %v, want %v", i, got[i], want[i])
		}
	}
}

func TestMailboxPreservesSendOrder(t *testing.T) {
	g := NewShardGroup(2)
	defer g.Close()
	var got []int
	box := g.NewMailbox(g.Shard(0), g.Shard(1), time.Millisecond, func(payload any) {
		got = append(got, payload.(int))
	})
	g.Shard(0).Engine().Go("sender", func(p *Proc) {
		for i := 0; i < 10; i++ {
			box.Send(i)
		}
		box.Close()
	})
	g.Run()
	if len(got) != 10 {
		t.Fatalf("delivered %d messages, want 10", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("message %d = %d, want %d (send order violated)", i, v, i)
		}
	}
}

// pingPong wires two shards that bounce a counter back and forth across
// mailboxes until it reaches rounds, logging every receipt.
func pingPong(g *ShardGroup, rounds int, logs [][]logEntry) {
	a, b := g.Shard(0), g.Shard(1)
	var ab, ba *Mailbox
	ab = g.NewMailbox(a, b, 2*time.Millisecond, func(payload any) {
		n := payload.(int)
		logs[1] = append(logs[1], logEntry{b.Engine().Now(), 1, fmt.Sprintf("recv %d", n)})
		if n >= rounds {
			ba.Close()
			return
		}
		ba.Send(n + 1)
	})
	ba = g.NewMailbox(b, a, 3*time.Millisecond, func(payload any) {
		n := payload.(int)
		logs[0] = append(logs[0], logEntry{a.Engine().Now(), 0, fmt.Sprintf("recv %d", n)})
		if n >= rounds {
			ab.Close()
			return
		}
		ab.Send(n + 1)
	})
	a.Engine().Go("kick", func(p *Proc) { ab.Send(1) })
}

func TestShardGroupPingPong(t *testing.T) {
	run := func(parallel bool) []logEntry {
		g := NewShardGroup(2)
		defer g.Close()
		logs := make([][]logEntry, 2)
		pingPong(g, 20, logs)
		if parallel {
			g.Run()
		} else {
			g.RunSequential()
		}
		return mergeLogs(logs)
	}
	seq := run(false)
	par := run(true)
	if len(seq) != 20 {
		t.Fatalf("sequential run logged %d receipts, want 20", len(seq))
	}
	if len(par) != len(seq) {
		t.Fatalf("parallel logged %d receipts, sequential %d", len(par), len(seq))
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("log %d: parallel %+v != sequential %+v", i, par[i], seq[i])
		}
	}
}

// TestShardGroupRandomizedDeterminism drives a randomized multi-shard
// messaging topology and checks that parallel and sequential executions
// produce identical merged logs for every seed.
func TestShardGroupRandomizedDeterminism(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		build := func(g *ShardGroup, logs [][]logEntry) {
			rng := rand.New(rand.NewSource(seed))
			n := g.Shards()
			// A ring of mailboxes plus a few random chords. outs[i] lists
			// shard i's outgoing mailboxes: a handler running on shard i may
			// only Send on those (the sender side of a mailbox is
			// single-threaded).
			outs := make([][]*Mailbox, n)
			handler := func(sh *Shard, hop int) func(any) {
				return func(payload any) {
					v := payload.(int)
					logs[sh.ID()] = append(logs[sh.ID()], logEntry{sh.Engine().Now(), sh.ID(), fmt.Sprintf("hop%d recv %d", hop, v)})
					if mine := outs[sh.ID()]; v > 0 && len(mine) > 0 {
						mine[(hop+v)%len(mine)].Send(v - 1)
					}
				}
			}
			add := func(from, to *Shard, hop int) {
				lat := time.Duration(1+rng.Intn(5)) * time.Millisecond
				outs[from.ID()] = append(outs[from.ID()], g.NewMailbox(from, to, lat, handler(to, hop)))
			}
			for i := 0; i < n; i++ {
				add(g.Shard(i), g.Shard((i+1)%n), i)
			}
			for i := 0; i < n; i++ {
				from, to := g.Shard(rng.Intn(n)), g.Shard(rng.Intn(n))
				if from != to {
					add(from, to, n+i)
				}
			}
			// Each shard runs local work, seeds the message flood on its own
			// outboxes, and closes them once the flood has provably died out
			// (hop counts drop to zero well before the 10s mark).
			for i := 0; i < n; i++ {
				sh := g.Shard(i)
				hops := 5 + rng.Intn(10)
				sh.Engine().Go("local", func(p *Proc) {
					for h := 0; h < hops; h++ {
						p.Sleep(time.Duration(1+h) * time.Millisecond)
						logs[sh.ID()] = append(logs[sh.ID()], logEntry{p.Now(), sh.ID(), "tick"})
					}
					for _, b := range outs[sh.ID()] {
						b.Send(200)
					}
					p.Sleep(10 * time.Second)
					for _, b := range outs[sh.ID()] {
						b.Close()
					}
				})
			}
		}
		run := func(parallel bool) []logEntry {
			g := NewShardGroup(4)
			defer g.Close()
			logs := make([][]logEntry, 4)
			build(g, logs)
			if parallel {
				g.Run()
			} else {
				g.RunSequential()
			}
			return mergeLogs(logs)
		}
		seq := run(false)
		par := run(true)
		if len(seq) == 0 {
			t.Fatalf("seed %d: empty log", seed)
		}
		if len(par) != len(seq) {
			t.Fatalf("seed %d: parallel %d entries, sequential %d", seed, len(par), len(seq))
		}
		for i := range seq {
			if seq[i] != par[i] {
				t.Fatalf("seed %d log %d: parallel %+v != sequential %+v", seed, i, par[i], seq[i])
			}
		}
	}
}

func TestShardGroupUtil(t *testing.T) {
	g := NewShardGroup(2)
	defer g.Close()
	logs := make([][]logEntry, 2)
	pingPong(g, 10, logs)
	g.Run()
	util := g.Util()
	if len(util) != 2 {
		t.Fatalf("got %d util rows, want 2", len(util))
	}
	for _, u := range util {
		if u.Windows == 0 {
			t.Fatalf("shard %d executed no windows", u.Shard)
		}
		if u.Events == 0 {
			t.Fatalf("shard %d executed no events", u.Shard)
		}
		if s := u.String(); s == "" {
			t.Fatal("empty util summary")
		}
	}
	if g.Wall() <= 0 {
		t.Fatal("group wall-clock time not recorded")
	}
}

func TestShardGroupSingleShardDrains(t *testing.T) {
	g := NewShardGroup(1)
	defer g.Close()
	ran := false
	g.Shard(0).Engine().Go("work", func(p *Proc) {
		p.Sleep(5 * time.Millisecond)
		ran = true
	})
	g.Run()
	if !ran {
		t.Fatal("single-shard group did not drain its engine")
	}
	if now := g.Shard(0).Engine().Now(); now != 5*time.Millisecond {
		t.Fatalf("clock %v, want 5ms", now)
	}
}

func TestMailboxPanics(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	g := NewShardGroup(2)
	defer g.Close()
	expectPanic("zero latency", func() {
		g.NewMailbox(g.Shard(0), g.Shard(1), 0, func(any) {})
	})
	expectPanic("same shard", func() {
		g.NewMailbox(g.Shard(0), g.Shard(0), time.Millisecond, func(any) {})
	})
	expectPanic("nil handler", func() {
		g.NewMailbox(g.Shard(0), g.Shard(1), time.Millisecond, nil)
	})
	other := NewShardGroup(1)
	defer other.Close()
	expectPanic("foreign shard", func() {
		g.NewMailbox(g.Shard(0), other.Shard(0), time.Millisecond, func(any) {})
	})
	box := g.NewMailbox(g.Shard(0), g.Shard(1), time.Millisecond, func(any) {})
	box.Close()
	if !box.Closed() {
		t.Fatal("mailbox not closed")
	}
	panicked := false
	g.Shard(0).Engine().Go("sender", func(p *Proc) {
		defer func() { panicked = recover() != nil }()
		box.Send(1)
	})
	g.Run()
	if !panicked {
		t.Fatal("send on closed mailbox did not panic")
	}
	expectPanic("zero shards", func() { NewShardGroup(0) })
	expectPanic("wire after run", func() {
		g.NewMailbox(g.Shard(0), g.Shard(1), time.Millisecond, func(any) {})
	})
}

// sent is one message as the delivery order sees it: delivery time,
// destination shard, mailbox, and per-mailbox send sequence; win is the
// destination's window that handled it (zero on the sending side).
type sent struct {
	at       time.Duration
	win      int64
	dst, box int
	seq      int64
}

// TestDeliveryOrderRandomized sends random traffic between four shards over
// up to three mailboxes per shard pair, with latencies and send instants on
// a millisecond grid so deliveries collide at equal times. Every message
// must be handled once, at its send time plus its mailbox's latency, and
// each destination must see the documented order: time, then the barrier
// that injected it, then mailbox, then send sequence. Messages at one
// instant split across barriers only at a window's end, for a message sent
// over a minimum-latency mailbox as the window opened.
func TestDeliveryOrderRandomized(t *testing.T) {
	const shards = 4
	splits := 0
	for seed := int64(0); seed < 6; seed++ {
		for _, parallel := range []bool{false, true} {
			rng := rand.New(rand.NewSource(seed))
			g := NewShardGroup(shards)
			outs := make([][]*Mailbox, shards)
			sends := make([][]sent, shards) // by sending shard
			recvs := make([][]sent, shards) // by destination shard
			look := time.Duration(math.MaxInt64)
			for from := 0; from < shards; from++ {
				for to := 0; to < shards; to++ {
					for k := rng.Intn(3); from != to && k >= 0; k-- {
						var box *Mailbox
						lat := time.Duration(1+rng.Intn(3)) * time.Millisecond
						look = min(look, lat)
						dst := g.Shard(to)
						box = g.NewMailbox(g.Shard(from), dst, lat, func(payload any) {
							recvs[to] = append(recvs[to], sent{dst.Engine().Now(), dst.windows, to, box.id, payload.(int64)})
						})
						outs[from] = append(outs[from], box)
					}
				}
			}
			// Send sequences by mailbox ID; only the sending shard touches one.
			seqs := make([]int64, len(g.mail))
			for from := 0; from < shards; from++ {
				n, gaps := 100+rng.Intn(100), rng.Int63()
				g.Shard(from).Engine().Go("sender", func(p *Proc) {
					r := rand.New(rand.NewSource(gaps))
					for i := 0; i < n; i++ {
						p.Sleep(time.Duration(r.Intn(3)) * time.Millisecond)
						box := outs[from][r.Intn(len(outs[from]))]
						seqs[box.id]++
						sends[from] = append(sends[from], sent{p.Now() + box.latency, 0, box.to.id, box.id, seqs[box.id]})
						box.Send(seqs[box.id])
					}
					for _, b := range outs[from] {
						b.Close()
					}
				})
			}
			if parallel {
				g.Run()
			} else {
				g.RunSequential()
			}
			g.Close()
			type id struct {
				box int
				seq int64
			}
			due := make(map[id]time.Duration)
			for _, s := range sends {
				for _, m := range s {
					due[id{m.box, m.seq}] = m.at
				}
			}
			got, collisions := 0, 0
			for dst, r := range recvs {
				for i, m := range r {
					if at, ok := due[id{m.box, m.seq}]; !ok || at != m.at || m.dst != dst {
						t.Fatalf("seed %d parallel=%v: shard %d handled %+v, sent for %v (known %v)",
							seed, parallel, dst, m, at, ok)
					}
					delete(due, id{m.box, m.seq})
					got++
					if i == 0 {
						continue
					}
					prev := r[i-1]
					if cmp.Or(cmp.Compare(prev.at, m.at), cmp.Compare(prev.win, m.win),
						cmp.Compare(prev.box, m.box), cmp.Compare(prev.seq, m.seq)) >= 0 {
						t.Fatalf("seed %d parallel=%v: shard %d handled %+v after %+v",
							seed, parallel, dst, m, prev)
					}
					switch {
					case prev.at != m.at:
					case prev.win == m.win:
						collisions++
					case g.mail[m.box].latency != look:
						t.Fatalf("seed %d parallel=%v: shard %d handled %+v a window after %+v over a %v mailbox (lookahead %v)",
							seed, parallel, dst, m, prev, g.mail[m.box].latency, look)
					default:
						splits++
					}
				}
			}
			if len(due) != 0 {
				t.Fatalf("seed %d parallel=%v: %d of %d messages never handled", seed, parallel, len(due), got+len(due))
			}
			if collisions == 0 {
				t.Fatalf("seed %d: no equal-time deliveries to one shard; nothing was ordered", seed)
			}
		}
	}
	if splits == 0 {
		t.Fatal("no equal-time deliveries split across a window's end; the boundary rule went untested")
	}
}

// TestShardWindowAllocFree: once warm, a two-shard group runs windows that
// deliver messages without allocating, sequential or parallel.
func TestShardWindowAllocFree(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		g := NewShardGroup(2)
		got := 0
		box := g.NewMailbox(g.Shard(0), g.Shard(1), time.Millisecond, func(any) { got++ })
		send := func() {
			for i := 0; i < 8; i++ {
				box.Send(i)
			}
		}
		// Each run is two windows: the send, then the delivery.
		window := func() {
			g.Shard(0).Engine().Schedule(0, send)
			if parallel {
				g.Run()
			} else {
				g.RunSequential()
			}
		}
		if n := testing.AllocsPerRun(50, window); n != 0 {
			t.Errorf("parallel=%v: %d allocations per delivering run, want 0", parallel, int(n))
		}
		if got != 51*8 {
			t.Errorf("parallel=%v: %d messages handled, want %d", parallel, got, 51*8)
		}
		g.Close()
	}
}
