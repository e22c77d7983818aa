package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// refHeap is a container/heap reference implementation with the engine's
// (at, seq) ordering, used to cross-check the concrete-typed eventHeap.
type refHeap []event

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old) - 1
	ev := old[n]
	*h = old[:n]
	return ev
}

// TestEventHeapMatchesReference drives the concrete-typed event heap and a
// container/heap reference through identical random push/pop interleavings
// (times drawn from a tiny set to force heavy ties) and requires the same pop
// order — in particular FIFO among equal-time events, the property the
// engine's determinism guarantee rests on.
func TestEventHeapMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		var h eventHeap
		ref := &refHeap{}
		var seq int64
		check := func() {
			got := h.pop()
			want := heap.Pop(ref).(event)
			if got.at != want.at || got.seq != want.seq {
				t.Fatalf("trial %d: pop (%v, %d), reference (%v, %d)",
					trial, got.at, got.seq, want.at, want.seq)
			}
		}
		for step := 0; step < 400; step++ {
			if len(h) == 0 || rng.Intn(3) < 2 {
				seq++
				ev := event{at: time.Duration(rng.Intn(6)) * time.Millisecond, seq: seq}
				h.push(ev)
				heap.Push(ref, ev)
			} else {
				check()
			}
		}
		prev := event{at: -1}
		for len(h) > 0 {
			got := h[0]
			check()
			if got.at < prev.at || (got.at == prev.at && got.seq <= prev.seq) {
				t.Fatalf("trial %d: pop order (%v, %d) after (%v, %d)",
					trial, got.at, got.seq, prev.at, prev.seq)
			}
			prev = got
		}
		if ref.Len() != 0 {
			t.Fatalf("trial %d: reference has %d leftover events", trial, ref.Len())
		}
	}
}

// TestRecycledProcReceivesNoStaleWake pins down the proc-pool safety
// property: a wake-up event scheduled against one incarnation of a process
// shell must never resume a later incarnation. The victim finishes while a
// second wake for it is still in the heap; a thief process then claims the
// recycled shell, so without the generation guard the stale wake would
// resume the thief. The engine must panic instead.
func TestRecycledProcReceivesNoStaleWake(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	victim := e.Go("victim", func(p *Proc) { p.suspend() })
	thiefResumed := false
	var thief *Proc
	e.Schedule(0, func() {
		e.scheduleWake(0, victim) // resumes the victim; its body returns and the shell retires
		// This runs after the retire, before the stale wake below.
		e.Schedule(0, func() {
			thief = e.Go("thief", func(p *Proc) {
				p.suspend()
				thiefResumed = true
			})
			if thief != victim {
				t.Error("thief did not claim the recycled shell (regression target gone)")
			}
		})
		e.scheduleWake(0, victim) // stale: fires with the thief holding the shell
	})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("stale wake-up across a recycled proc did not panic")
		}
		if !strings.Contains(fmt.Sprint(r), "stale wake-up") {
			t.Fatalf("unexpected panic: %v", r)
		}
		if thiefResumed {
			t.Fatal("stale wake-up leaked into the recycled shell's new body")
		}
	}()
	e.Run(0)
}

// TestRecycledProcRunsNewBody is the positive half of the recycle contract:
// after a body finishes, the next Go reuses the parked shell, and wake-ups
// scheduled for the new incarnation are delivered to the new body.
func TestRecycledProcRunsNewBody(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	first := e.Go("first", func(p *Proc) {})
	e.Run(0)
	ran := false
	second := e.Go("second", func(p *Proc) {
		p.suspend()
		ran = true
	})
	if second != first {
		t.Fatalf("second Go did not reuse the retired shell (regression target gone)")
	}
	if second.gen == 0 {
		t.Fatal("recycled shell did not bump its generation")
	}
	e.Schedule(time.Millisecond, func() { e.scheduleWake(0, second) })
	e.Run(0)
	if !ran {
		t.Fatal("recycled shell's new body never resumed")
	}
}
