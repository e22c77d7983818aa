package sim

import (
	"testing"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	var got []int
	e.Schedule(2*time.Millisecond, func() { got = append(got, 3) })
	e.Schedule(time.Millisecond, func() { got = append(got, 1) })
	e.Schedule(time.Millisecond, func() { got = append(got, 2) })
	e.Run(0)
	want := []int{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestRunUntilStopsClock(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	fired := false
	e.Schedule(10*time.Second, func() { fired = true })
	now := e.Run(time.Second)
	if fired {
		t.Fatal("event beyond horizon fired")
	}
	if now != time.Second {
		t.Fatalf("clock = %v, want 1s", now)
	}
	// Continuing the run executes the remaining event.
	e.Run(0)
	if !fired {
		t.Fatal("event not fired after resuming")
	}
	if e.Now() != 10*time.Second {
		t.Fatalf("clock = %v, want 10s", e.Now())
	}
}

// TestRunNeverRewindsClock is the regression test for the clock-rewind bug:
// Run(10s) followed by Run(5s) used to set the clock back to 5s, breaking
// monotonicity for every timeline sampled afterwards.
func TestRunNeverRewindsClock(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	e.Schedule(20*time.Second, func() {})
	if now := e.Run(10 * time.Second); now != 10*time.Second {
		t.Fatalf("clock = %v, want 10s", now)
	}
	if now := e.Run(5 * time.Second); now != 10*time.Second {
		t.Fatalf("Run(5s) after Run(10s) returned %v, want 10s (no rewind)", now)
	}
	if e.Now() != 10*time.Second {
		t.Fatalf("clock rewound to %v", e.Now())
	}
	// An exactly-equal horizon is also a no-op.
	if now := e.Run(10 * time.Second); now != 10*time.Second {
		t.Fatalf("Run(now) returned %v, want 10s", now)
	}
}

// TestRunDrainedHeapAdvancesToHorizon pins the drained-heap contract: when
// every event fires before the horizon, Run(until) still returns with the
// clock at exactly until — virtual time passes in an idle simulation.
func TestRunDrainedHeapAdvancesToHorizon(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	fired := time.Duration(-1)
	e.Schedule(time.Second, func() { fired = e.Now() })
	if now := e.Run(30 * time.Second); now != 30*time.Second {
		t.Fatalf("clock = %v, want 30s after heap drained", now)
	}
	if fired != time.Second {
		t.Fatalf("event fired at %v, want 1s", fired)
	}
	// Run(0) on an empty heap stays put: completion time is the last event.
	if now := e.Run(0); now != 30*time.Second {
		t.Fatalf("Run(0) on empty heap returned %v, want 30s", now)
	}
}

func TestNegativeDelayClampedToNow(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	var at time.Duration = -1
	e.Schedule(time.Second, func() {
		e.Schedule(-5*time.Second, func() { at = e.Now() })
	})
	e.Run(0)
	if at != time.Second {
		t.Fatalf("negative-delay event at %v, want 1s", at)
	}
}

func TestProcessSleep(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	var wake time.Duration
	e.Go("sleeper", func(p *Proc) {
		p.Sleep(3 * time.Second)
		wake = p.Now()
	})
	e.Run(0)
	if wake != 3*time.Second {
		t.Fatalf("woke at %v, want 3s", wake)
	}
}

func TestProcessesInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		e := NewEngine()
		defer e.Close()
		var log []string
		for _, name := range []string{"a", "b", "c"} {
			name := name
			e.Go(name, func(p *Proc) {
				for i := 0; i < 3; i++ {
					p.Sleep(time.Second)
					log = append(log, name)
				}
			})
		}
		e.Run(0)
		return log
	}
	first := run()
	if len(first) != 9 {
		t.Fatalf("log length = %d, want 9", len(first))
	}
	for trial := 0; trial < 10; trial++ {
		again := run()
		for i := range first {
			if first[i] != again[i] {
				t.Fatalf("nondeterministic interleaving: %v vs %v", first, again)
			}
		}
	}
}

func TestSignalBroadcast(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	s := NewSignal(e)
	var woke []string
	for _, name := range []string{"w1", "w2"} {
		name := name
		e.Go(name, func(p *Proc) {
			s.Wait(p)
			woke = append(woke, name)
		})
	}
	e.Go("firer", func(p *Proc) {
		p.Sleep(time.Second)
		s.Fire()
	})
	e.Run(0)
	if len(woke) != 2 || woke[0] != "w1" || woke[1] != "w2" {
		t.Fatalf("woke = %v, want [w1 w2]", woke)
	}
	// Waiting on a fired signal returns immediately.
	done := false
	e.Go("late", func(p *Proc) {
		s.Wait(p)
		done = true
	})
	e.Run(0)
	if !done {
		t.Fatal("late waiter did not return from fired signal")
	}
}

func TestResourceFIFO(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	r := NewResource(1)
	var order []string
	hold := func(name string, start, dur time.Duration) {
		e.Go(name, func(p *Proc) {
			p.Sleep(start)
			r.AcquirePri(p, 0)
			order = append(order, name+"+")
			p.Sleep(dur)
			order = append(order, name+"-")
			r.Release()
		})
	}
	hold("a", 0, 10*time.Millisecond)
	hold("b", time.Millisecond, time.Millisecond)
	hold("c", 2*time.Millisecond, time.Millisecond)
	e.Run(0)
	want := []string{"a+", "a-", "b+", "b-", "c+", "c-"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestResourceCapacityTwo(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	r := NewResource(2)
	maxInUse := 0
	for i := 0; i < 5; i++ {
		e.Go("worker", func(p *Proc) {
			r.AcquirePri(p, 0)
			if r.InUse() > maxInUse {
				maxInUse = r.InUse()
			}
			p.Sleep(time.Millisecond)
			r.Release()
		})
	}
	e.Run(0)
	if maxInUse != 2 {
		t.Fatalf("max in use = %d, want 2", maxInUse)
	}
}

func TestCloseUnblocksStuckProcesses(t *testing.T) {
	e := NewEngine()
	s := NewSignal(e)
	e.Go("stuck", func(p *Proc) {
		s.Wait(p) // never fired
		t.Error("stuck process resumed unexpectedly")
	})
	e.Run(0)
	e.Close() // must not hang
	e.Close() // idempotent
}
