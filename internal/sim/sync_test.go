package sim

import (
	"fmt"
	"slices"
	"testing"
	"time"
	"unsafe"
)

// TestSignalSize pins the signal in Go's 24 B size class: a NewSignal per
// operation is one of the objects callers allocate most often, and a 40 B
// signal took a 48 B slot.
func TestSignalSize(t *testing.T) {
	if got := unsafe.Sizeof(Signal{}); got > 24 {
		t.Errorf("Signal is %d B, want at most 24 (the 24 B size class; 25 to 32 B take a 32 B slot)", got)
	}
}

// TestSignalOneWaiterAllocs pins the inline first waiter: a NewSignal with
// one Wait and its Fire allocates the signal and nothing else.
func TestSignalOneWaiterAllocs(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	var cur *Signal
	firer := e.Go("firer", func(p *Proc) {
		for {
			p.Suspend()
			cur.Fire()
		}
	})
	cycles := 0
	var allocs float64
	e.Go("waiter", func(p *Proc) {
		p.Sleep(time.Microsecond) // let the firer park first
		allocs = testing.AllocsPerRun(100, func() {
			cur = NewSignal(e)
			e.ScheduleWake(firer)
			cur.Wait(p)
			cycles++
		})
	})
	e.Run(0)
	if cycles != 101 {
		t.Fatalf("%d signal cycles ran, want 101", cycles)
	}
	if allocs != 1 {
		t.Errorf("NewSignal + Wait + Fire allocates %.1f objects, want 1 (the signal)", allocs)
	}
}

// TestSignalWakeOrderAcrossReset waits n processes on one pooled signal in
// an order unlike their spawn order, fires it, rearms it with Reset and does
// it again in another order: each Fire wakes its cycle's waiters in wait
// order, first waiter first, and the overflow list allocated on the first
// cycle's second Wait serves the second cycle too.
func TestSignalWakeOrderAcrossReset(t *testing.T) {
	for _, n := range []int{1, 2, 5} {
		t.Run(fmt.Sprintf("waiters=%d", n), func(t *testing.T) {
			e := NewEngine()
			defer e.Close()
			s := MakeSignal(e)
			var woke []int
			// cycle spawns waiters 0..n-1 in order; waiter i waits after
			// delay(i) and records its index when it wakes. The firer fires
			// once every waiter waits.
			cycle := func(delay func(i int) time.Duration) []int {
				woke = woke[:0]
				for i := 0; i < n; i++ {
					i := i
					e.GoAfter(delay(i), fmt.Sprint("waiter-", i), func(p *Proc) {
						s.Wait(p)
						woke = append(woke, i)
					})
				}
				e.GoAfter(time.Duration(n+1)*time.Millisecond, "firer", func(*Proc) {
					if s.Fired() {
						t.Error("signal fired before Fire")
					}
					s.Fire()
					s.Fire() // no-op
				})
				e.Run(0)
				if !s.Fired() {
					t.Error("signal not fired after Fire")
				}
				return slices.Clone(woke)
			}
			// First cycle: waiter i waits at (n−i) ms, so the wait order is
			// the spawn order reversed.
			got := cycle(func(i int) time.Duration { return time.Duration(n-i) * time.Millisecond })
			want := make([]int, n)
			for i := range want {
				want[i] = n - 1 - i
			}
			if !slices.Equal(got, want) {
				t.Errorf("first cycle woke %v, want wait order %v", got, want)
			}
			more := s.more
			if (more != nil) != (n > 1) {
				t.Errorf("after %d waiters the overflow list is %v, want allocated only from the second waiter", n, more)
			}

			s.Reset()
			if s.Fired() {
				t.Error("signal still fired after Reset")
			}
			// Second cycle: the odd waiters first, then the even ones, each
			// group in spawn order.
			got = cycle(func(i int) time.Duration {
				if i%2 == 1 {
					return time.Duration(i) * time.Microsecond
				}
				return time.Duration(n+i) * time.Microsecond
			})
			want = want[:0]
			for _, odd := range []int{1, 0} {
				for i := 0; i < n; i++ {
					if i%2 == odd {
						want = append(want, i)
					}
				}
			}
			if !slices.Equal(got, want) {
				t.Errorf("second cycle woke %v, want wait order %v", got, want)
			}
			if s.more != more {
				t.Error("Reset dropped the overflow list; the second cycle allocated a new one")
			}

			// A Wait on the fired signal returns at once.
			late := false
			e.Go("late", func(p *Proc) {
				s.Wait(p)
				late = true
			})
			e.Run(0)
			if !late {
				t.Error("a Wait on a fired signal did not return")
			}
		})
	}
}
