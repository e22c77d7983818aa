package faults_test

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"grouter/internal/core"
	"grouter/internal/dataplane"
	"grouter/internal/fabric"
	"grouter/internal/faults"
	"grouter/internal/metrics"
	"grouter/internal/sim"
	"grouter/internal/topology"
)

const mb = int64(1) << 20

// chaosEnv is one freshly-built simulated cluster a scenario runs against.
type chaosEnv struct {
	t   *testing.T
	e   *sim.Engine
	f   *fabric.Fabric
	pl  *core.Plane
	in  *faults.Injector
	log *strings.Builder
}

func (c *chaosEnv) logf(at time.Duration, format string, args ...interface{}) {
	fmt.Fprintf(c.log, "[%v] %s\n", at, fmt.Sprintf(format, args...))
}

// must fails the test when a fault could not be scheduled.
func (c *chaosEnv) must(err error) {
	c.t.Helper()
	if err != nil {
		c.t.Fatal(err)
	}
}

// runScenario builds a fresh engine/fabric/plane, executes the scenario, and
// returns its event log plus the fault counters of the run's network.
func runScenario(t *testing.T, scenario func(*chaosEnv)) (string, metrics.FaultStats) {
	t.Helper()
	env := &chaosEnv{t: t, e: sim.NewEngine(), log: &strings.Builder{}}
	env.f = fabric.New(env.e, topology.DGXV100(), 1)
	env.pl = core.New(env.f, core.FullConfig())
	env.in = faults.NewInjector(env.f)
	scenario(env)
	env.e.Run(0)
	env.e.Close()
	return env.log.String(), *env.f.Net.Faults()
}

// requireDeterministic runs the scenario twice on fresh simulations and fails
// unless both the event logs and the fault counters are identical — the
// property that makes chaos scenarios usable as regression tests.
func requireDeterministic(t *testing.T, scenario func(*chaosEnv)) (string, metrics.FaultStats) {
	t.Helper()
	log1, stats1 := runScenario(t, scenario)
	log2, stats2 := runScenario(t, scenario)
	if log1 != log2 {
		t.Errorf("two identical runs diverged:\n--- first ---\n%s--- second ---\n%s", log1, log2)
	}
	if stats1 != stats2 {
		t.Errorf("fault counters diverged:\nfirst:  %+v\nsecond: %+v", stats1, stats2)
	}
	return log1, stats1
}

// gpuFn returns a function context pinned to a GPU.
func gpuFn(name string, gpu int) *dataplane.FnCtx {
	return &dataplane.FnCtx{Fn: name, Workflow: "chaos", Loc: fabric.Location{Node: 0, GPU: gpu}}
}

// failAllNVLinksFrom schedules an outage of every NVLink out-edge of the GPU,
// cutting it off from the NVLink mesh (PCIe stays up).
func failAllNVLinksFrom(env *chaosEnv, at time.Duration, gpu int) {
	topo := env.f.Topo(gpu / env.f.Spec().NumGPUs)
	for j := 0; j < env.f.Spec().NumGPUs; j++ {
		if env.f.Spec().NVLinkBps(gpu, j) > 0 {
			env.must(env.in.FailLinkAt(at, env.f.Cluster.LinkName(topo.NVLinkTo(gpu, j))))
		}
	}
}

// TestChaosNVLinkDiesMidTransfer is the headline self-healing scenario: a
// GPU0→GPU3 transfer loses every NVLink out of GPU0 mid-flight. The transfer
// must complete anyway — killed flows are retried with backoff, the re-plan
// finds no live NVLink path and degrades to PCIe — and the whole episode must
// replay deterministically.
func TestChaosNVLinkDiesMidTransfer(t *testing.T) {
	scenario := func(env *chaosEnv) {
		// The outage lands at 1.3ms, inside the ~1ms transfer the consumer
		// starts at t=1ms (48 MB at 48-72 GB/s aggregate NVLink).
		failAllNVLinksFrom(env, 1300*time.Microsecond, 0)
		env.e.Go("consumer", func(p *sim.Proc) {
			ref, err := env.pl.Put(p, gpuFn("producer", 0), 48*mb)
			if err != nil {
				env.logf(p.Now(), "put failed: %v", err)
				return
			}
			env.logf(p.Now(), "put done")
			p.Sleep(time.Millisecond - p.Now())
			if err := env.pl.Get(p, gpuFn("consumer", 3), ref); err != nil {
				env.logf(p.Now(), "get failed: %v", err)
				return
			}
			env.logf(p.Now(), "get done (transfer survived the outage)")
			env.pl.Free(ref)
		})
	}
	log, stats := requireDeterministic(t, scenario)
	if !strings.Contains(log, "get done") {
		t.Fatalf("transfer did not survive the NVLink outage:\n%s\nfaults: %+v", log, stats)
	}
	if stats.FlowsKilled == 0 {
		t.Error("outage killed no flows — the fault was not mid-flight")
	}
	if stats.Retries == 0 {
		t.Error("no retry recorded")
	}
	if stats.Replans == 0 {
		t.Error("no re-plan recorded")
	}
	if stats.DegradedBytes == 0 {
		t.Error("no degraded bytes recorded for the PCIe fallback delivery")
	}
	if stats.TransfersFailed != 0 {
		t.Errorf("transfers-failed = %d, want 0", stats.TransfersFailed)
	}
}

// TestChaosFlappingLink drives a sequence of transfers across a link flapping
// at a 25% duty cycle; every transfer must eventually deliver (routing around
// the outage, retrying, or degrading) and the run must be deterministic.
func TestChaosFlappingLink(t *testing.T) {
	scenario := func(env *chaosEnv) {
		env.must(env.in.FlapLink("n0.nv.0>3", 200*time.Microsecond, 250*time.Microsecond,
			time.Millisecond, 20*time.Millisecond))
		env.e.Go("consumer", func(p *sim.Proc) {
			for i := 0; i < 8; i++ {
				ref, err := env.pl.Put(p, gpuFn("producer", 0), 24*mb)
				if err != nil {
					env.logf(p.Now(), "put %d failed: %v", i, err)
					return
				}
				if err := env.pl.Get(p, gpuFn("consumer", 3), ref); err != nil {
					env.logf(p.Now(), "get %d failed: %v", i, err)
					return
				}
				env.logf(p.Now(), "round %d delivered", i)
				env.pl.Free(ref)
			}
		})
	}
	log, stats := requireDeterministic(t, scenario)
	for i := 0; i < 8; i++ {
		if !strings.Contains(log, fmt.Sprintf("round %d delivered", i)) {
			t.Fatalf("round %d lost under the flap:\n%s\nfaults: %+v", i, log, stats)
		}
	}
	if stats.LinksFailed == 0 {
		t.Error("flap schedule injected no outages")
	}
}

// TestChaosDegradedLink shrinks the direct NVLink to 5% of its capacity
// mid-transfer: the transfer finishes (slower) without any retry — capacity
// changes re-rate flows instead of killing them.
func TestChaosDegradedLink(t *testing.T) {
	scenario := func(env *chaosEnv) {
		env.must(env.in.DegradeLinkFor(1200*time.Microsecond, 10*time.Millisecond, "n0.nv.0>3", 0.05))
		env.e.Go("consumer", func(p *sim.Proc) {
			ref, err := env.pl.Put(p, gpuFn("producer", 0), 48*mb)
			if err != nil {
				env.logf(p.Now(), "put failed: %v", err)
				return
			}
			p.Sleep(time.Millisecond - p.Now())
			start := p.Now()
			if err := env.pl.Get(p, gpuFn("consumer", 3), ref); err != nil {
				env.logf(p.Now(), "get failed: %v", err)
				return
			}
			env.logf(p.Now(), "get done in %v", p.Now()-start)
			env.pl.Free(ref)
		})
	}
	log, stats := requireDeterministic(t, scenario)
	if !strings.Contains(log, "get done") {
		t.Fatalf("transfer lost under degradation:\n%s\nfaults: %+v", log, stats)
	}
	if stats.LinksDegraded == 0 {
		t.Error("no degradation recorded")
	}
	if stats.FlowsKilled != 0 {
		t.Errorf("degradation killed %d flows; capacity changes must re-rate, not kill", stats.FlowsKilled)
	}
}

// TestChaosMemoryPressureDuringStorage squeezes GPU0's memory while the
// store holds objects on it: subsequent Puts/Gets must keep working (the
// elastic store spills to host under pressure) and the run stays
// deterministic.
func TestChaosMemoryPressureDuringStorage(t *testing.T) {
	scenario := func(env *chaosEnv) {
		dev := env.f.Mem(fabric.Location{Node: 0, GPU: 0})
		// Grab nearly everything that is free 1ms in, for the rest of the run.
		env.in.MemPressureFor(time.Millisecond, 0, dev, dev.Free())
		env.e.Go("workload", func(p *sim.Proc) {
			var refs []dataplane.DataRef
			for i := 0; i < 6; i++ {
				ref, err := env.pl.Put(p, gpuFn("producer", 0), 256*mb)
				if err != nil {
					env.logf(p.Now(), "put %d failed: %v", i, err)
					return
				}
				refs = append(refs, ref)
				p.Sleep(500 * time.Microsecond)
			}
			for i, ref := range refs {
				if err := env.pl.Get(p, gpuFn("consumer", 3), ref); err != nil {
					env.logf(p.Now(), "get %d failed: %v", i, err)
					return
				}
				env.logf(p.Now(), "object %d readable under pressure", i)
				env.pl.Free(ref)
			}
		})
	}
	log, stats := requireDeterministic(t, scenario)
	for i := 0; i < 6; i++ {
		if !strings.Contains(log, fmt.Sprintf("object %d readable", i)) {
			t.Fatalf("object %d lost under memory pressure:\n%s\nfaults: %+v", i, log, stats)
		}
	}
	if stats.MemPressure == 0 {
		t.Error("no memory-pressure event recorded")
	}
}

// TestChaosEvictionStorm squeezes GPU0 until barely two objects fit, then
// streams Puts at it so the store must pick an eviction victim on every
// subsequent Put. The storm must not lose data — the oldest (evicted) objects
// stay readable from host — and the whole episode, including the store's
// eviction/restore/spill counters, must replay byte-identically.
func TestChaosEvictionStorm(t *testing.T) {
	const storms = 12
	scenario := func(env *chaosEnv) {
		dev := env.f.Mem(fabric.Location{Node: 0, GPU: 0})
		// Leave ~640MB free before any Put: two 256MB objects fit, the third
		// forces an eviction, and every later Put keeps the pressure on.
		env.in.MemPressureFor(0, 0, dev, dev.Free()-640*mb)
		env.e.Go("storm", func(p *sim.Proc) {
			var refs []dataplane.DataRef
			for i := 0; i < storms; i++ {
				ref, err := env.pl.Put(p, gpuFn("producer", 0), 256*mb)
				if err != nil {
					env.logf(p.Now(), "put %d failed: %v", i, err)
					return
				}
				env.logf(p.Now(), "put %d done", i)
				refs = append(refs, ref)
			}
			// The oldest objects were evicted to host; they must still be
			// readable (restore / host-path transfer), not lost.
			for i := 0; i < 4; i++ {
				if err := env.pl.Get(p, gpuFn("consumer", 3), refs[i]); err != nil {
					env.logf(p.Now(), "get %d failed: %v", i, err)
					return
				}
				env.logf(p.Now(), "object %d survived the storm", i)
			}
			st := env.pl.Store(0)
			env.logf(p.Now(), "store: evictions=%d restores=%d spills=%d",
				st.Evictions.N, st.Restores.N, st.Spills.N)
		})
	}
	log, stats := requireDeterministic(t, scenario)
	for i := 0; i < storms; i++ {
		if !strings.Contains(log, fmt.Sprintf("put %d done", i)) {
			t.Fatalf("put %d did not complete:\n%s\nfaults: %+v", i, log, stats)
		}
	}
	for i := 0; i < 4; i++ {
		if !strings.Contains(log, fmt.Sprintf("object %d survived", i)) {
			t.Fatalf("object %d lost in the eviction storm:\n%s\nfaults: %+v", i, log, stats)
		}
	}
	if !strings.Contains(log, "evictions=") || strings.Contains(log, "evictions=0 ") {
		t.Fatalf("storm forced no evictions:\n%s", log)
	}
}

// TestChaosCrashRematerialize crashes GPU0 after an object is stored there:
// the object is lost, and the next Get must re-materialize it from its
// durable origin (paying RematerializeLatency + a host→GPU move) instead of
// failing.
func TestChaosCrashRematerialize(t *testing.T) {
	scenario := func(env *chaosEnv) {
		env.e.Go("workload", func(p *sim.Proc) {
			ref, err := env.pl.Put(p, gpuFn("producer", 0), 48*mb)
			if err != nil {
				env.logf(p.Now(), "put failed: %v", err)
				return
			}
			env.logf(p.Now(), "put done")
			p.Sleep(time.Millisecond - p.Now())
			p.Sleep(time.Millisecond) // crash fires at 1.5ms, between put and get
			start := p.Now()
			if err := env.pl.Get(p, gpuFn("consumer", 3), ref); err != nil {
				env.logf(p.Now(), "get failed: %v", err)
				return
			}
			elapsed := p.Now() - start
			env.logf(p.Now(), "get done in %v", elapsed)
			if elapsed < core.RematerializeLatency {
				env.logf(p.Now(), "BUG: get faster than re-materialization latency")
			}
			env.pl.Free(ref)
		})
		env.in.CrashGPUAt(1500*time.Microsecond, env.pl, 0, 0)
	}
	log, stats := requireDeterministic(t, scenario)
	if !strings.Contains(log, "get done") || strings.Contains(log, "BUG") {
		t.Fatalf("crash recovery broken:\n%s\nfaults: %+v", log, stats)
	}
	if stats.Crashes == 0 {
		t.Error("no crash recorded")
	}
	if stats.ObjectsLost == 0 {
		t.Error("crash lost no objects — the scenario no longer covers recovery")
	}
	if stats.Rematerialized == 0 {
		t.Error("no re-materialization recorded")
	}
}

// TestChaosRandomScheduleDeterministic seeds a random fault schedule over the
// whole NVLink mesh under a steady transfer workload and requires two runs to
// agree byte-for-byte — the same guarantee the table-driven scenarios pin,
// but over an adversarial schedule nobody hand-picked.
func TestChaosRandomScheduleDeterministic(t *testing.T) {
	scenario := func(env *chaosEnv) {
		topo := env.f.Topo(0)
		var links []string
		for i := 0; i < env.f.Spec().NumGPUs; i++ {
			for j := 0; j < env.f.Spec().NumGPUs; j++ {
				if env.f.Spec().NVLinkBps(i, j) > 0 {
					links = append(links, env.f.Cluster.LinkName(topo.NVLinkTo(i, j)))
				}
			}
		}
		env.must(env.in.RandomLinkFaults(99, links, 30*time.Millisecond, 2*time.Millisecond, time.Millisecond))
		env.e.Go("workload", func(p *sim.Proc) {
			for i := 0; i < 10; i++ {
				src, dst := i%4, (i+3)%4
				ref, err := env.pl.Put(p, gpuFn("producer", src), 24*mb)
				if err != nil {
					env.logf(p.Now(), "put %d failed: %v", i, err)
					continue
				}
				if err := env.pl.Get(p, gpuFn("consumer", dst), ref); err != nil {
					env.logf(p.Now(), "get %d failed: %v", i, err)
				} else {
					env.logf(p.Now(), "round %d delivered %d->%d", i, src, dst)
				}
				env.pl.Free(ref)
				p.Sleep(time.Millisecond)
			}
		})
	}
	log, _ := requireDeterministic(t, scenario)
	if strings.Count(log, "delivered") == 0 {
		t.Fatalf("no transfer delivered under the random schedule:\n%s", log)
	}
}

// TestInjectorValidation pins the injector's argument checking: a call
// naming an unknown link, a degradation fraction outside (0,1), or a flap
// without 0 < downFor < period returns an error wrapping its sentinel and
// schedules nothing. The run then completes under a workload that outlives
// every fault time, with no fault fired or counted.
func TestInjectorValidation(t *testing.T) {
	const ms = time.Millisecond
	type call func(in *faults.Injector) error
	for name, tc := range map[string]struct {
		call call
		want error
	}{
		"fail unknown link":    {func(in *faults.Injector) error { return in.FailLinkAt(ms, "n0.nope") }, faults.ErrUnknownLink},
		"restore unknown link": {func(in *faults.Injector) error { return in.RestoreLinkAt(ms, "n1.nic0.tx") }, faults.ErrUnknownLink},
		"down-for absent link": {func(in *faults.Injector) error { return in.LinkDownFor(ms, ms, "n0.nv.0>5") }, faults.ErrUnknownLink},
		"degrade unknown link": {func(in *faults.Injector) error { return in.DegradeLinkFor(ms, ms, "n9.nic0.tx", 0.5) }, faults.ErrUnknownLink},
		"degrade fraction 0":   {func(in *faults.Injector) error { return in.DegradeLinkFor(ms, ms, "n0.nv.0>1", 0) }, faults.ErrBadWindow},
		"degrade fraction 1":   {func(in *faults.Injector) error { return in.DegradeLinkFor(ms, ms, "n0.nv.0>1", 1) }, faults.ErrBadWindow},
		"degrade fraction NaN": {func(in *faults.Injector) error { return in.DegradeLinkFor(ms, ms, "n0.nv.0>1", math.NaN()) }, faults.ErrBadWindow},
		"flap unknown link":    {func(in *faults.Injector) error { return in.FlapLink("n0.nope", 0, ms, 4*ms, 10*ms) }, faults.ErrUnknownLink},
		"flap zero downtime":   {func(in *faults.Injector) error { return in.FlapLink("n0.nv.0>1", 0, 0, ms, 10*ms) }, faults.ErrBadWindow},
		"flap period too low":  {func(in *faults.Injector) error { return in.FlapLink("n0.nv.0>1", 0, ms, ms, 10*ms) }, faults.ErrBadWindow},
		"random unknown link": {func(in *faults.Injector) error {
			return in.RandomLinkFaults(1, []string{"n0.nv.0>1", "n0.nope"}, 10*ms, ms, ms)
		}, faults.ErrUnknownLink},
		"random absent link": {func(in *faults.Injector) error {
			return in.RandomLinkFaults(1, []string{"n0.nvsw.g0.out"}, 10*ms, ms, ms)
		}, faults.ErrUnknownLink},
	} {
		e := sim.NewEngine()
		f := fabric.New(e, topology.DGXV100(), 1)
		in := faults.NewInjector(f)
		if err := tc.call(in); !errors.Is(err, tc.want) {
			t.Errorf("%s: error %v, want %v", name, err, tc.want)
		}
		if at, ok := e.NextEventAt(); ok {
			t.Errorf("%s: an event is scheduled at %v", name, at)
		}
		e.Go("workload", func(p *sim.Proc) { p.Sleep(20 * ms) })
		e.Run(0)
		if fs := *f.Net.Faults(); fs != (metrics.FaultStats{}) {
			t.Errorf("%s: fault counters moved: %+v", name, fs)
		}
		e.Close()
	}
}

// TestNamedLinkOutages: an outage window and a fail/restore pair, each
// scheduled by link name, take exactly the named link down for its window
// and count one failure and one restore each; an empty random schedule
// schedules nothing.
func TestNamedLinkOutages(t *testing.T) {
	const ms = time.Millisecond
	e := sim.NewEngine()
	defer e.Close()
	f := fabric.New(e, topology.DGXV100(), 2)
	in := faults.NewInjector(f)
	for _, err := range []error{
		in.LinkDownFor(ms, 2*ms, "n1.nic2.rx"),
		in.FailLinkAt(2*ms, "n0.nv.0>3"),
		in.RestoreLinkAt(5*ms, "n0.nv.0>3"),
		in.RandomLinkFaults(1, nil, time.Second, ms, ms),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	rx, nv := f.Topo(1).NICRx(2), f.Topo(0).NVLinkTo(0, 3)
	var up [][2]bool
	for _, at := range []time.Duration{ms / 2, 3 * ms / 2, 5 * ms / 2, 7 * ms / 2, 11 * ms / 2} {
		e.Schedule(at, func() { up = append(up, [2]bool{f.Net.LinkUp(rx), f.Net.LinkUp(nv)}) })
	}
	e.Run(0)
	want := [][2]bool{{true, true}, {false, true}, {false, false}, {true, false}, {true, true}}
	if !reflect.DeepEqual(up, want) {
		t.Errorf("(rx, nv) up at 0.5/1.5/2.5/3.5/5.5 ms = %v, want %v", up, want)
	}
	if fs := f.Net.Faults(); fs.LinksFailed != 2 || fs.LinksRestored != 2 {
		t.Errorf("failed/restored = %d/%d, want 2/2", fs.LinksFailed, fs.LinksRestored)
	}
}

// countingCrasher loses a fixed number of objects per crash and records
// every GPU it was asked to crash.
type countingCrasher struct {
	lost    int
	crashed []fabric.Location
}

func (c *countingCrasher) CrashGPU(node, gpu int) int {
	c.crashed = append(c.crashed, fabric.Location{Node: node, GPU: gpu})
	return c.lost
}

// TestCrashGPUAtNotifiesSubscribers: one scheduled crash reaches every
// OnGPUCrash subscriber exactly once, with the crashed (node, gpu), at the
// crash instant, and the run's network counts the crash and the objects the
// Crasher reported lost.
func TestCrashGPUAtNotifiesSubscribers(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	f := fabric.New(e, topology.DGXV100(), 2)
	in := faults.NewInjector(f)
	type crash struct {
		at  time.Duration
		loc fabric.Location
	}
	var seen [2][]crash
	for i := range seen {
		in.OnGPUCrash(func(node, gpu int) {
			seen[i] = append(seen[i], crash{e.Now(), fabric.Location{Node: node, GPU: gpu}})
		})
	}
	c := &countingCrasher{lost: 3}
	const at = 3 * time.Millisecond
	in.CrashGPUAt(at, c, 1, 5)
	// Injections are daemon events: a workload must outlive the crash.
	e.Go("workload", func(p *sim.Proc) { p.Sleep(2 * at) })
	e.Run(0)

	want := crash{at, fabric.Location{Node: 1, GPU: 5}}
	for i, got := range seen {
		if len(got) != 1 || got[0] != want {
			t.Errorf("subscriber %d saw %+v, want one %+v", i, got, want)
		}
	}
	if len(c.crashed) != 1 || c.crashed[0] != want.loc {
		t.Errorf("Crasher crashed %+v, want one %+v", c.crashed, want.loc)
	}
	fs := f.Net.Faults()
	if fs.Crashes != 1 {
		t.Errorf("crashes = %d, want 1", fs.Crashes)
	}
	if fs.ObjectsLost != int64(c.lost) {
		t.Errorf("objects lost = %d, want %d", fs.ObjectsLost, c.lost)
	}
}

// TestDegradeWindowsOverlap: degradation windows on one link do not compound
// and never strand the link degraded. While windows are open the link runs
// at its undegraded capacity times the smallest open fraction; when the last
// window closes it is back at the undegraded capacity.
func TestDegradeWindowsOverlap(t *testing.T) {
	ms := time.Millisecond
	cases := []struct {
		name   string
		first  float64 // fraction of the window over [0, 10ms)
		second float64 // fraction of the window over [5ms, 15ms)
		want   [4]float64
	}{
		// Capacity at 2, 7, 12 and 16 ms, as a share of the link's own.
		{"equal fractions", 0.5, 0.5, [4]float64{0.5, 0.5, 0.5, 1}},
		{"deeper second", 0.5, 0.25, [4]float64{0.5, 0.25, 0.25, 1}},
		{"deeper first", 0.25, 0.5, [4]float64{0.25, 0.25, 0.5, 1}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := sim.NewEngine()
			defer e.Close()
			f := fabric.New(e, topology.DGXV100(), 1)
			net, in, nic := f.Net, faults.NewInjector(f), f.Topo(0).NICTx(0)
			for _, w := range []struct {
				at       time.Duration
				fraction float64
			}{{0, c.first}, {5 * ms, c.second}} {
				if err := in.DegradeLinkFor(w.at, 10*ms, "n0.nic0.tx", w.fraction); err != nil {
					t.Fatal(err)
				}
			}
			var got [4]float64
			for i, at := range []time.Duration{2 * ms, 7 * ms, 12 * ms, 16 * ms} {
				i := i
				e.Schedule(at, func() { got[i] = net.Capacity(nic) / f.Spec().NICBps })
			}
			e.Run(0)
			if got != c.want {
				t.Errorf("capacity at 2/7/12/16 ms = %v, want %v", got, c.want)
			}
			if fs := net.Faults(); fs.LinksDegraded != 2 || fs.LinksRestored != 2 {
				t.Errorf("degraded/restored = %d/%d, want 2/2", fs.LinksDegraded, fs.LinksRestored)
			}
		})
	}
}
