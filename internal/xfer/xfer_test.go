package xfer

import (
	"math"
	"testing"
	"time"

	"grouter/internal/fabric"
	"grouter/internal/netsim"
	"grouter/internal/sim"
	"grouter/internal/topology"
)

const MB = int64(1) << 20

func v100Fabric(e *sim.Engine, nodes int) *fabric.Fabric {
	return fabric.New(e, topology.DGXV100(), nodes)
}

func approxDur(t *testing.T, got, want time.Duration, tol float64, msg string) {
	t.Helper()
	g, w := got.Seconds(), want.Seconds()
	if math.Abs(g-w) > tol*w {
		t.Errorf("%s: got %v, want %v (±%.0f%%)", msg, got, want, tol*100)
	}
}

func TestSplitBytesProportional(t *testing.T) {
	paths := []Path{{Bps: 100}, {Bps: 300}}
	got := SplitBytes(400*MB, paths, 2*MB)
	if got[0]+got[1] != 400*MB {
		t.Fatalf("split loses bytes: %v", got)
	}
	// Path 1 should get ~3x path 0.
	ratio := float64(got[1]) / float64(got[0])
	if math.Abs(ratio-3) > 0.2 {
		t.Errorf("split ratio = %.2f, want ~3", ratio)
	}
	// Chunk alignment on the non-remainder path.
	if got[0]%(2*MB) != 0 {
		t.Errorf("path 0 share %d not chunk aligned", got[0])
	}
}

func TestSplitBytesSmallUsesFastestOnly(t *testing.T) {
	paths := []Path{{Bps: 100}, {Bps: 300}}
	got := SplitBytes(MB, paths, 2*MB)
	if got[0] != 0 || got[1] != MB {
		t.Errorf("small transfer split = %v, want all on fastest", got)
	}
}

func TestSplitBytesZero(t *testing.T) {
	got := SplitBytes(0, []Path{{Bps: 1}}, 2*MB)
	if got[0] != 0 {
		t.Errorf("zero split = %v", got)
	}
}

func TestSinglePathTransferLatency(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	f := v100Fabric(e, 1)
	m := NewManager(f)
	n := f.Topo(0)
	var elapsed time.Duration
	e.Go("t", func(p *sim.Proc) {
		// 48 MB over the 0→3 double NVLink (48 GB/s) ≈ 1 ms.
		elapsed, _ = m.Transfer(p, Request{
			Label: "t",
			Bytes: 48 * MB,
			Paths: []Path{PathOf(f.Net, n.AppendNVLinkPathLinks(nil, []int{0, 3}))},
		})
	})
	e.Run(0)
	want := time.Duration(float64(48*MB) / topology.GBps(48) * float64(time.Second))
	approxDur(t, elapsed, want+SetupLatency+BatchLatency, 0.05, "48MB over NVLink 0→3")
}

func TestParallelPathsAggregateBandwidth(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	f := v100Fabric(e, 1)
	m := NewManager(f)
	n := f.Topo(0)
	direct := PathOf(f.Net, n.AppendNVLinkPathLinks(nil, []int{0, 3}))      // 48 GB/s
	indirect := PathOf(f.Net, n.AppendNVLinkPathLinks(nil, []int{0, 1, 3})) // 24 GB/s
	var one, both time.Duration
	e.Go("single", func(p *sim.Proc) {
		one, _ = m.Transfer(p, Request{Label: "s", Bytes: 288 * MB, Paths: []Path{direct}})
		both, _ = m.Transfer(p, Request{Label: "d", Bytes: 288 * MB, Paths: []Path{direct, indirect}})
	})
	e.Run(0)
	// Two paths at 48+24 = 72 GB/s vs 48 GB/s: ~1.5x speedup.
	speedup := one.Seconds() / both.Seconds()
	if speedup < 1.3 || speedup > 1.6 {
		t.Errorf("multi-path speedup = %.2f, want ~1.5 (one=%v both=%v)", speedup, one, both)
	}
}

func TestHostStackAddsLatency(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	f := v100Fabric(e, 2)
	m := NewManager(f)
	tx := f.Topo(0).NICTx(0)
	rx := f.Topo(1).NICRx(0)
	var plain, stack time.Duration
	e.Go("t", func(p *sim.Proc) {
		plain, _ = m.Transfer(p, Request{Label: "p", Bytes: MB, Paths: []Path{PathOf(f.Net, []topology.LinkID{tx, rx})}})
		stack, _ = m.Transfer(p, Request{Label: "s", Bytes: MB, Paths: []Path{PathOf(f.Net, []topology.LinkID{tx, rx})}, HostStack: true})
	})
	e.Run(0)
	if d := stack - plain; d < HostStackLatency*9/10 || d > HostStackLatency*11/10 {
		t.Errorf("host stack delta = %v, want ~%v", d, HostStackLatency)
	}
}

func TestPinnedGateSerializesHugeTransfers(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	f := v100Fabric(e, 1)
	m := NewManager(f)
	n := f.Topo(0)
	gate := f.NodeF(0).Pinned
	var d1, d2 time.Duration
	mk := func(label string, out *time.Duration) {
		e.Go(label, func(p *sim.Proc) {
			m.Transfer(p, Request{
				Label:  label,
				Bytes:  fabric.DefaultPinnedBufferBytes, // fills the gate
				Paths:  []Path{PathOf(f.Net, n.AppendGPUToHostLinks(nil, 0))},
				Pinned: gate,
			})
			*out = p.Now()
		})
	}
	mk("first", &d1)
	mk("second", &d2)
	e.Run(0)
	if !(d2 > d1) {
		t.Errorf("second gated transfer finished at %v, not after first at %v", d2, d1)
	}
}

func TestRateControlledTransferMeetsFloor(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	f := v100Fabric(e, 1)
	m := NewManager(f)
	n := f.Topo(0)
	hostPath := PathOf(f.Net, n.AppendGPUToHostLinks(nil, 0)) // 12 GB/s PCIe
	// Background hog without reservation.
	e.Go("hog", func(p *sim.Proc) {
		m.Transfer(p, Request{Label: "hog", Bytes: 1200 * MB, Paths: []Path{hostPath}})
	})
	var controlled time.Duration
	e.Go("slo", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		start := p.Now()
		m.Transfer(p, Request{
			Label: "slo",
			Bytes: 120 * MB,
			Paths: []Path{hostPath},
			Opt:   netsim.Options{MinRate: topology.GBps(9), Priority: 1},
		})
		controlled = p.Now() - start
	})
	e.Run(0)
	// With ≥9 GB/s guaranteed, 120 MB takes ≤ ~14 ms. Without the
	// reservation fair sharing would give 6 GB/s → ~20 ms.
	if controlled > 15*time.Millisecond {
		t.Errorf("SLO transfer took %v, want < 15ms with reservation", controlled)
	}
}
