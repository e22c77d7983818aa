package xfer

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"grouter/internal/fabric"
	"grouter/internal/netsim"
	"grouter/internal/sim"
	"grouter/internal/topology"
)

func TestRequestValidationTypedErrors(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	f := v100Fabric(e, 1)
	m := NewManager(f)
	n := f.Topo(0)
	path := PathOf(f.Net, n.AppendNVLinkPathLinks(nil, []int{0, 1}))
	e.Go("t", func(p *sim.Proc) {
		if _, err := m.Transfer(p, Request{Label: "empty", Bytes: MB}); !errors.Is(err, ErrNoPaths) {
			t.Errorf("no paths: err = %v, want ErrNoPaths", err)
		}
		if _, err := m.Transfer(p, Request{Label: "zero", Paths: []Path{path}}); !errors.Is(err, ErrZeroBytes) {
			t.Errorf("zero bytes: err = %v, want ErrZeroBytes", err)
		}
		if _, err := m.Transfer(p, Request{Label: "neg", Bytes: -5, Paths: []Path{path}}); !errors.Is(err, ErrZeroBytes) {
			t.Errorf("negative bytes: err = %v, want ErrZeroBytes", err)
		}
	})
	e.Run(0)
	if f.Net.ActiveFlows() != 0 {
		t.Errorf("invalid requests left %d flows", f.Net.ActiveFlows())
	}
}

// TestRetryAfterLinkFlap kills the transfer's only path mid-flight and
// restores it shortly after: the retry loop must back off, re-send only the
// undelivered bytes, and complete — slower than fault-free, but complete.
func TestRetryAfterLinkFlap(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	f := v100Fabric(e, 1)
	m := NewManager(f)
	n := f.Topo(0)
	link := n.NVLinkTo(0, 3)
	var elapsed time.Duration
	var err error
	e.Go("t", func(p *sim.Proc) {
		// ~1 ms fault-free (48 MB at 48 GB/s).
		elapsed, err = m.Transfer(p, Request{
			Label: "flap",
			Bytes: 48 * MB,
			Paths: []Path{PathOf(f.Net, n.AppendNVLinkPathLinks(nil, []int{0, 3}))},
		})
	})
	e.Go("fault", func(p *sim.Proc) {
		p.Sleep(500 * time.Microsecond)
		f.Net.FailLink(link)
		p.Sleep(200 * time.Microsecond)
		f.Net.RestoreLink(link)
	})
	e.Run(0)
	if err != nil {
		t.Fatalf("transfer did not survive the flap: %v", err)
	}
	faultFree := time.Duration(float64(48*MB)/topology.GBps(48)*float64(time.Second)) +
		SetupLatency + BatchLatency
	if elapsed <= faultFree {
		t.Errorf("flapped transfer took %v, expected more than fault-free %v", elapsed, faultFree)
	}
	fs := f.Net.Faults()
	if fs.Retries == 0 {
		t.Error("no retry recorded for a mid-flight kill")
	}
	if fs.FlowsKilled == 0 {
		t.Error("no flow kill recorded")
	}
	if fs.DegradedBytes == 0 {
		t.Error("completion on a retry attempt recorded no degraded bytes")
	}
	if fs.TransfersFailed != 0 {
		t.Errorf("transfers-failed = %d, want 0", fs.TransfersFailed)
	}
}

// TestReplanFallsBackToPCIe fails the NVLink permanently: the retry loop must
// consult Replan and finish the residue over the PCIe fallback path.
func TestReplanFallsBackToPCIe(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	f := v100Fabric(e, 1)
	m := NewManager(f)
	n := f.Topo(0)
	link := n.NVLinkTo(0, 3)
	var err error
	replanned := 0
	e.Go("t", func(p *sim.Proc) {
		_, err = m.Transfer(p, Request{
			Label: "replan",
			Bytes: 48 * MB,
			Paths: []Path{PathOf(f.Net, n.AppendNVLinkPathLinks(nil, []int{0, 3}))},
			Replan: func(attempt int) []Path {
				replanned++
				return []Path{PathOf(f.Net, n.AppendPCIeP2PLinks(nil, 0, 3))}
			},
		})
	})
	e.Go("fault", func(p *sim.Proc) {
		p.Sleep(500 * time.Microsecond)
		f.Net.FailLink(link) // permanent: only the re-plan can finish this
	})
	e.Run(0)
	if err != nil {
		t.Fatalf("transfer did not recover over the fallback: %v", err)
	}
	if replanned == 0 {
		t.Fatal("Replan was never consulted")
	}
	fs := f.Net.Faults()
	if fs.Replans == 0 {
		t.Error("no replan recorded")
	}
	if fs.Retries == 0 {
		t.Error("no retry recorded")
	}
}

// TestAllPathsDownExhaustsRetries keeps the only path dead with no Replan:
// the transfer must give up with ErrPathsDown after DefaultMaxAttempts
// attempts.
func TestAllPathsDownExhaustsRetries(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	f := v100Fabric(e, 1)
	m := NewManager(f)
	n := f.Topo(0)
	var err error
	e.Go("t", func(p *sim.Proc) {
		f.Net.FailLink(n.NVLinkTo(0, 3))
		_, err = m.Transfer(p, Request{
			Label: "doomed",
			Bytes: MB,
			Paths: []Path{PathOf(f.Net, n.AppendNVLinkPathLinks(nil, []int{0, 3}))},
		})
	})
	e.Run(0)
	if !errors.Is(err, ErrPathsDown) {
		t.Fatalf("err = %v, want ErrPathsDown", err)
	}
	fs := f.Net.Faults()
	if got := fs.Retries; got != DefaultMaxAttempts-1 {
		t.Errorf("retries = %d, want %d (every attempt after the first)", got, DefaultMaxAttempts-1)
	}
	if fs.TransfersFailed != 1 {
		t.Errorf("transfers-failed = %d, want 1", fs.TransfersFailed)
	}
}

// TestMidFlightLossOnEveryAttemptIsPathsDown kills the transfer's only path
// mid-flight on every attempt, restoring it before the next one: once the
// retries run out, the error must wrap ErrPathsDown and still name the bytes
// left undelivered.
func TestMidFlightLossOnEveryAttemptIsPathsDown(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	f := v100Fabric(e, 1)
	m := NewManager(f)
	n := f.Topo(0)
	link := n.NVLinkTo(0, 3)
	// Each attempt's flow starts at once (after setup on the first), and
	// 48 MB at 48 GB/s needs ~1 ms: a kill 100 µs in is mid-flight.
	killSoon := func() { e.Schedule(100*time.Microsecond, func() { f.Net.FailLink(link) }) }
	var err error
	e.Go("t", func(p *sim.Proc) {
		killSoon()
		_, err = m.Transfer(p, Request{
			Label: "cursed",
			Bytes: 48 * MB,
			Paths: []Path{PathOf(f.Net, n.AppendNVLinkPathLinks(nil, []int{0, 3}))},
			Replan: func(int) []Path {
				f.Net.RestoreLink(link)
				killSoon()
				return nil
			},
		})
	})
	e.Run(0)
	if !errors.Is(err, ErrPathsDown) {
		t.Fatalf("err = %v, want one wrapping ErrPathsDown", err)
	}
	if !strings.Contains(err.Error(), "bytes undelivered") {
		t.Errorf("err = %v, want the undelivered byte count", err)
	}
	fs := f.Net.Faults()
	if fs.FlowsKilled != DefaultMaxAttempts {
		t.Errorf("flows killed = %d, want one per attempt (%d)", fs.FlowsKilled, DefaultMaxAttempts)
	}
	if fs.TransfersFailed != 1 {
		t.Errorf("transfers-failed = %d, want 1", fs.TransfersFailed)
	}
}

// TestBackoffDeterministic pins the exponential schedule before each retry:
// 50, 100 and 200 µs, with no jitter, so chaos scenarios replay
// bit-identically.
func TestBackoffDeterministic(t *testing.T) {
	want := []time.Duration{50 * time.Microsecond, 100 * time.Microsecond, 200 * time.Microsecond}
	if len(want) != DefaultMaxAttempts-1 {
		t.Fatalf("%d retries pinned, want %d", len(want), DefaultMaxAttempts-1)
	}
	for i, w := range want {
		if got := backoff(i + 1); got != w {
			t.Errorf("backoff(%d) = %v, want %v", i+1, got, w)
		}
	}
}

// TestRetryPreservesMinRateScaling checks that a retry re-sending a residue
// scales its MinRate reservation down proportionally instead of demanding the
// full-payload floor for a fraction of the bytes.
func TestRetryPreservesMinRateScaling(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	f := v100Fabric(e, 1)
	m := NewManager(f)
	flows := m.startFlows(nil, "resend", 12*MB, []Path{PathOf(f.Net, f.Topo(0).AppendNVLinkPathLinks(nil, []int{0, 1}))},
		netsim.Options{MinRate: topology.GBps(24)}, 48*MB)
	if len(flows) != 1 {
		t.Fatalf("got %d flows", len(flows))
	}
	// A quarter of the payload keeps a quarter of the reservation: 6 GB/s of
	// the 24 GB/s link, leaving room for the peers the floor was sized against.
	if got, want := flows[0].Rate(), topology.GBps(24); got > want {
		t.Errorf("residual flow rate %f exceeds link capacity %f", got, want)
	}
	e.Run(0)
}

// startAllocs reports the heap allocations of starting one flow: none when
// the network reuses a released flow, some when it has none to reuse. Like
// testing.AllocsPerRun it runs on one P, so no other goroutine allocates
// inside the count.
func startAllocs(f *fabric.Fabric, links []topology.LinkID) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f.Engine.Reserve(1024) // keep the event heap from growing inside the count
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f.Net.Start("probe", links, float64(MB), netsim.Options{})
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestFinishedAttemptReleasesFlows: a finished attempt hands its flows and
// its flow slice back for reuse, including a flow that finished well before
// the attempt's last one.
func TestFinishedAttemptReleasesFlows(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	f := v100Fabric(e, 1)
	m := NewManager(f)
	n := f.Topo(0)
	fast, slow := n.AppendNVLinkPathLinks(nil, []int{0, 3}), n.AppendPCIeP2PLinks(nil, 0, 5)
	// A hog halves the PCIe path's share, so its flow (~8.4 ms) finishes
	// well after the NVLink flow (~4.2 ms).
	f.Net.Start("hog", slow[:1], 1e15, netsim.Options{})
	var err error
	e.Schedule(5*time.Millisecond, func() {
		if got := f.Net.ActiveFlows(); got != 2 {
			t.Errorf("at 5 ms: %d active flows, want the hog and the PCIe flow", got)
		}
	})
	e.Go("t", func(p *sim.Proc) {
		_, err = m.Transfer(p, Request{
			Label: "split",
			Bytes: 240 * MB,
			Paths: []Path{PathOf(f.Net, fast), PathOf(f.Net, slow)},
		})
	})
	e.Run(20 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.flowBufs) != 1 {
		t.Errorf("%d flow slices pooled, want 1", len(m.flowBufs))
	}
	if got := startAllocs(f, fast); got != 0 {
		t.Errorf("the next Start allocated %d times, want 0 (reused flow)", got)
	}
}
