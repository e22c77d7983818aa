package xfer

import (
	"errors"
	"testing"
	"time"

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
	path := PathOf(f.Net, n.NVLinkPathLinks([]int{0, 1}))
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

func TestTransferAsyncPanicsOnInvalidRequest(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	m := NewManager(v100Fabric(e, 1))
	defer func() {
		if recover() == nil {
			t.Error("TransferAsync accepted a request with no paths")
		}
	}()
	m.TransferAsync(Request{Label: "bad", Bytes: MB})
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
			Paths: []Path{PathOf(f.Net, n.NVLinkPathLinks([]int{0, 3}))},
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
			Paths: []Path{PathOf(f.Net, n.NVLinkPathLinks([]int{0, 3}))},
			Replan: func(attempt int) []Path {
				replanned++
				return []Path{PathOf(f.Net, n.PCIeP2PLinks(0, 3))}
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
// the transfer must give up with ErrPathsDown after MaxAttempts backoffs.
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
			Paths: []Path{PathOf(f.Net, n.NVLinkPathLinks([]int{0, 3}))},
			Retry: RetryPolicy{MaxAttempts: 3},
		})
	})
	e.Run(0)
	if !errors.Is(err, ErrPathsDown) {
		t.Fatalf("err = %v, want ErrPathsDown", err)
	}
	fs := f.Net.Faults()
	if got := fs.Retries; got != 2 {
		t.Errorf("retries = %d, want 2 (attempts 2 and 3)", got)
	}
	if fs.TransfersFailed != 1 {
		t.Errorf("transfers-failed = %d, want 1", fs.TransfersFailed)
	}
}

// TestDeadlineCancelsFlows gives a large transfer a deadline far shorter than
// its fault-free duration: Transfer must return ErrDeadline at the deadline
// instant with every in-flight flow canceled.
func TestDeadlineCancelsFlows(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	f := v100Fabric(e, 1)
	m := NewManager(f)
	n := f.Topo(0)
	var elapsed time.Duration
	var err error
	e.Go("t", func(p *sim.Proc) {
		// ~10 ms fault-free; deadline at 2 ms.
		elapsed, err = m.Transfer(p, Request{
			Label:    "late",
			Bytes:    480 * MB,
			Paths:    []Path{PathOf(f.Net, n.NVLinkPathLinks([]int{0, 3}))},
			Deadline: 2 * time.Millisecond,
		})
	})
	e.Run(0)
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	approxDur(t, elapsed, 2*time.Millisecond, 0.01, "gave up at the deadline")
	if f.Net.ActiveFlows() != 0 {
		t.Errorf("%d flows still active after deadline cancel", f.Net.ActiveFlows())
	}
	if f.Net.Faults().TransfersFailed != 1 {
		t.Errorf("transfers-failed = %d, want 1", f.Net.Faults().TransfersFailed)
	}
}

// TestBackoffDeterministic pins the exponential schedule: base, 2x, 4x, …,
// capped — and no jitter, so chaos scenarios replay bit-identically.
func TestBackoffDeterministic(t *testing.T) {
	pol := RetryPolicy{BackoffBase: 100 * time.Microsecond, BackoffCap: 500 * time.Microsecond}.withDefaults()
	want := []time.Duration{100 * time.Microsecond, 200 * time.Microsecond,
		400 * time.Microsecond, 500 * time.Microsecond, 500 * time.Microsecond}
	for i, w := range want {
		if got := pol.backoff(i + 1); got != w {
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
	flows := m.startFlows("resend", 12*MB, []Path{PathOf(f.Net, f.Topo(0).NVLinkPathLinks([]int{0, 1}))},
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
