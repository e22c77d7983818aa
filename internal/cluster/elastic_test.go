package cluster

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"
	"time"

	"grouter/internal/autoscale"
	"grouter/internal/core"
	"grouter/internal/dataplane"
	"grouter/internal/fabric"
	"grouter/internal/faults"
	"grouter/internal/scheduler"
	"grouter/internal/sim"
	"grouter/internal/topology"
	"grouter/internal/trace"
	"grouter/internal/workflow"
)

// completion is one OnComplete observation, the byte-identity unit of the
// determinism and differential-oracle tests.
type completion struct {
	seq int64
	at  time.Duration
	e2e time.Duration
}

func recordCompletions(app *App) *[]completion {
	out := &[]completion{}
	app.OnComplete = func(seq int64, at, e2e time.Duration) {
		*out = append(*out, completion{seq, at, e2e})
	}
	return out
}

func burst(e *sim.Engine, app *App, spec trace.Spec) {
	for _, at := range trace.Generate(spec) {
		at := at
		e.Schedule(at, func() { mustSubmit(app, Request{}) })
	}
}

func TestInstanceForHugeSeq(t *testing.T) {
	// Regression: int(seq) % len(pool) overflows 32-bit ints past seq 2^31
	// and yields a negative index. The 10M-request regime reaches it.
	e := sim.NewEngine()
	defer e.Close()
	c := New(e, topology.DGXV100(), 1, grouterPlane)
	app := c.Deploy(workflow.Driving(), 0, scheduler.Options{Node: 0})
	// A three-member pool whose ids equal routable indices.
	ps := app.pool(scheduler.StageInst{Stage: "segmentation", Replica: 0})
	ps.members = nil
	for gpu := 1; gpu <= 3; gpu++ {
		ps.members = append(ps.members, &poolMember{id: gpu - 1,
			loc: fabric.Location{Node: 0, GPU: gpu}, phase: memberActive, healthy: true})
	}
	app.rebuild(ps)
	pool := ps.locs
	for _, seq := range []int64{
		int64(math.MaxInt32) + 1, // the 32-bit overflow point
		int64(math.MaxInt32) * 7,
		math.MaxInt64,
		1 << 40,
	} {
		m := app.instanceFor(ps, RouteInfo{Seq: seq})
		want := int(seq % int64(len(pool)))
		if m.id != want || m.loc != pool[want] {
			t.Fatalf("seq %d: got (%v, %d), want (%v, %d)", seq, m.loc, m.id, pool[want], want)
		}
	}
	// Negative seq (no caller sends one today) must still pick, not panic.
	m := app.instanceFor(ps, RouteInfo{Seq: -5})
	if m.id < 0 || m.id >= len(pool) || m.loc != pool[m.id] {
		t.Fatalf("negative seq: got (%v, %d)", m.loc, m.id)
	}
}

func TestElasticScaleOutAndDrain(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	c := New(e, topology.DGXV100(), 1, grouterPlane)
	app := c.Deploy(workflow.Driving(), 0, scheduler.Options{Node: 0})
	ep := app.EnableElastic(ElasticConfig{
		Scaler:          autoscale.Reactive{ScaleOutDepth: 2, ScaleIn: true},
		Min:             1,
		Max:             4,
		Interval:        100 * time.Millisecond,
		ScaleInCooldown: 200 * time.Millisecond,
	})
	burst(e, app, trace.Spec{Pattern: trace.Sporadic, Duration: 3 * time.Second, MeanRPS: 80, Seed: 3})
	// Run past the burst so the idle controller can drain back down.
	e.Run(10 * time.Second)
	if ep.Stats.ScaleOuts == 0 {
		t.Fatal("no scale-out under overload")
	}
	if ep.Stats.ScaleIns == 0 {
		t.Fatal("no scale-in after the burst ended")
	}
	if ep.Stats.Drained != ep.Stats.ScaleIns {
		t.Fatalf("Drained = %d, ScaleIns = %d — every cordoned member must finish draining",
			ep.Stats.Drained, ep.Stats.ScaleIns)
	}
	// Idle pools are back at Min with nothing in flight or mid-drain.
	for _, st := range []string{"denoise", "segmentation", "colorize"} {
		active, prov, drain := ep.Replicas(st, 0)
		if active != 1 || prov != 0 || drain != 0 {
			t.Errorf("%s: active/prov/drain = %d/%d/%d, want 1/0/0", st, active, prov, drain)
		}
	}
	if ep.GPUSeconds() <= 0 {
		t.Error("GPU-seconds accounting is empty")
	}
}

func TestElasticMinFloor(t *testing.T) {
	// Min above the deployed size provisions up to the floor even when idle.
	e := sim.NewEngine()
	defer e.Close()
	c := New(e, topology.DGXV100(), 1, grouterPlane)
	app := c.Deploy(workflow.Driving(), 0, scheduler.Options{Node: 0})
	ep := app.EnableElastic(ElasticConfig{
		Scaler:   autoscale.Fixed{},
		Min:      2,
		Max:      2,
		Interval: 50 * time.Millisecond,
	})
	e.Run(time.Second)
	for _, st := range []string{"denoise", "segmentation", "colorize"} {
		if active, _, _ := ep.Replicas(st, 0); active != 2 {
			t.Errorf("%s actives = %d, want Min floor 2", st, active)
		}
	}
	if ep.Stats.ScaleOuts != 3 {
		t.Errorf("ScaleOuts = %d, want exactly one per pool", ep.Stats.ScaleOuts)
	}
}

func TestElasticDrainCordonSemantics(t *testing.T) {
	// White-box drain contract: a draining member takes no new picks, and
	// teardown waits for its last in-flight request.
	e := sim.NewEngine()
	defer e.Close()
	c := New(e, topology.DGXV100(), 1, grouterPlane)
	app := c.Deploy(workflow.Driving(), 0, scheduler.Options{Node: 0})
	ep := app.EnableElastic(ElasticConfig{
		Scaler:   autoscale.Fixed{},
		Min:      1,
		Max:      4,
		Interval: time.Hour, // controller never steps; the test drives directly
	})
	ps := app.pool(scheduler.StageInst{Stage: "segmentation", Replica: 0})
	ep.scaleOut(ps, e.Now())
	if len(ps.locs) != 2 {
		t.Fatalf("pool size = %d after scale-out, want 2", len(ps.locs))
	}
	// Pick member id 1 (seq 1 → index 1) and leave it in flight.
	picked := app.instanceFor(ps, RouteInfo{Seq: 1})
	if picked.id != 1 {
		t.Fatalf("pick id = %d, want 1", picked.id)
	}
	ep.scaleIn(ps, 1, e.Now())
	if ep.Stats.ScaleIns != 1 {
		t.Fatalf("ScaleIns = %d, want 1", ep.Stats.ScaleIns)
	}
	if ep.Stats.Drained != 0 {
		t.Fatal("member torn down with a request still in flight")
	}
	if len(ps.locs) != 1 {
		t.Fatalf("draining member still routable: pool size %d", len(ps.locs))
	}
	// Every new pick lands on the surviving member.
	for seq := int64(2); seq < 8; seq++ {
		m := app.instanceFor(ps, RouteInfo{Seq: seq})
		if m.id != 0 {
			t.Fatalf("seq %d picked drained member %d", seq, m.id)
		}
		app.poolDone(ps, m)
	}
	// The in-flight request completing finalizes the teardown.
	app.poolDone(ps, picked)
	if ep.Stats.Drained != 1 {
		t.Fatalf("Drained = %d after last in-flight completed, want 1", ep.Stats.Drained)
	}
	if _, _, draining := ep.Replicas("segmentation", 0); draining != 0 {
		t.Fatal("drained member still counted")
	}
	if len(ps.members) != 1 || picked.phase != memberGone {
		t.Fatalf("pool holds %d members, drained phase %d: the torn-down member stayed",
			len(ps.members), picked.phase)
	}
}

// TestScaleInKeepsMemberIDs: a scale-in that cordons a middle member
// compacts the routable slice, but retirements and cold-start warmth still
// reach the member picked, never the one at its former routable index, and
// teardown removes only that member.
func TestScaleInKeepsMemberIDs(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	c := New(e, topology.DGXV100(), 1, grouterPlane)
	app := c.Deploy(workflow.Driving(), 0, scheduler.Options{Node: 0})
	ep := app.EnableElastic(ElasticConfig{
		Scaler:   autoscale.Fixed{},
		Min:      1,
		Max:      4,
		Interval: time.Hour, // controller never steps; the test drives directly
	})
	ps := app.pool(scheduler.StageInst{Stage: "segmentation", Replica: 0})
	ep.scaleOut(ps, e.Now())
	ep.scaleOut(ps, e.Now()) // members 0, 1, 2
	// Leave member 1 in flight, then cordon it: unhealthy, so scale-in picks
	// it over the newest member.
	m1 := app.instanceFor(ps, RouteInfo{Seq: 1})
	if m1.id != 1 {
		t.Fatalf("pick id = %d, want 1", m1.id)
	}
	m1.healthy = false
	ep.scaleIn(ps, 1, e.Now())
	if len(ps.slots) != 2 || ps.slots[0].id != 0 || ps.slots[1].id != 2 {
		t.Fatalf("routable slice after scale-in has %d members, want ids 0 and 2", len(ps.slots))
	}

	// Warmth configured after the compaction: member 2 sits at routable
	// index 1 and must start warm, like every other routable replica.
	app.SetColdStart(ColdStartPolicy{Enabled: true, ContainerLatency: 200 * time.Millisecond,
		KeepAlive: time.Minute, Prewarm: true})
	mustSubmit(app, Request{}) // seq 1: routable index 1, member 2
	e.Run(0)
	if got := app.ColdStarts(); got != 0 {
		t.Errorf("cold starts = %d, want 0: warmth did not follow member ids", got)
	}
	if n := ps.members[2].inflight; n != 0 {
		t.Errorf("member 2 in flight = %d after its request completed, want 0", n)
	}

	// Member 1's last pick retires and tears the draining member down,
	// leaving members 0 and 2 in order.
	app.poolDone(ps, m1)
	if ep.Stats.Drained != 1 || m1.phase != memberGone {
		t.Fatalf("Drained = %d, member 1 phase %d: the retirement missed the draining member",
			ep.Stats.Drained, m1.phase)
	}
	if len(ps.members) != 2 || ps.members[0].id != 0 || ps.members[1].id != 2 {
		t.Fatalf("pool after teardown has %d members, want ids 0 and 2", len(ps.members))
	}
}

func TestElasticCrashRecovery(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	var pl *core.Plane
	c := New(e, topology.DGXV100(), 1, func(f *fabric.Fabric) dataplane.Plane {
		pl = core.New(f, core.FullConfig())
		return pl
	})
	app := c.Deploy(workflow.Driving(), 0, scheduler.Options{Node: 0})
	ep := app.EnableElastic(ElasticConfig{
		Scaler:   autoscale.Fixed{},
		Min:      2,
		Max:      2,
		Interval: 50 * time.Millisecond,
	})
	in := faults.NewInjector(c.Fabric)
	ep.WatchFaults(in)
	e.Run(200 * time.Millisecond)
	ps := app.pool(scheduler.StageInst{Stage: "segmentation", Replica: 0})
	if len(ps.slots) != 2 {
		t.Fatalf("pool at %d members before crash, want 2", len(ps.slots))
	}
	victim := ps.members[1]
	const crashAt = 210 * time.Millisecond
	in.CrashGPUAt(crashAt, pl, victim.loc.Node, victim.loc.GPU)
	e.Run(250 * time.Millisecond)
	if victim.healthy {
		t.Fatal("member still healthy after its GPU crashed")
	}
	if ep.Stats.Crashes == 0 {
		t.Fatal("crash not counted")
	}
	for _, m := range ps.slots {
		if m == victim {
			t.Fatal("crashed member still routable")
		}
	}
	e.Run(crashAt + RecoverAfter - time.Nanosecond)
	if victim.healthy || slices.Contains(ps.slots, victim) {
		t.Fatal("member back in the pool before RecoverAfter elapsed")
	}
	// RecoverAfter elapses → back in the pool.
	e.Run(crashAt + RecoverAfter)
	if !victim.healthy || !slices.Contains(ps.slots, victim) {
		t.Fatal("member not back in the pool once RecoverAfter elapsed")
	}
	if ep.Stats.Recoveries == 0 {
		t.Fatal("recovery not counted")
	}
	// The next controller steps shed the replacement ordered during the
	// outage.
	e.Run(crashAt + RecoverAfter + 100*time.Millisecond)
	if len(ps.slots) != 2 {
		t.Fatalf("pool at %d members after recovery, want 2", len(ps.slots))
	}
}

// TestElasticDifferentialOracle pins the tentpole's oracle: the elastic
// machinery at a pinned pool size (Fixed, Min=Max=initial) must reproduce
// the plain fixed-pool replay byte for byte — member ids, in-flight
// accounting, and the controller daemon change nothing observable.
func TestElasticDifferentialOracle(t *testing.T) {
	spec := trace.Spec{Pattern: trace.Bursty, Duration: 3 * time.Second, MeanRPS: 60, Seed: 7}
	run := func(elastic bool) []completion {
		e := sim.NewEngine()
		defer e.Close()
		c := New(e, topology.DGXV100(), 1, grouterPlane)
		app := c.Deploy(workflow.Driving(), 0, scheduler.Options{Node: 0})
		out := recordCompletions(app)
		if elastic {
			app.EnableElastic(ElasticConfig{
				Scaler:   autoscale.Fixed{Replicas: 1},
				Min:      1,
				Max:      1,
				Interval: 100 * time.Millisecond,
			})
		}
		burst(e, app, spec)
		e.Run(0)
		return *out
	}
	plain := run(false)
	pinned := run(true)
	if len(plain) == 0 {
		t.Fatal("no completions")
	}
	if !reflect.DeepEqual(plain, pinned) {
		t.Fatalf("pinned elastic replay diverged from plain replay: %d vs %d completions",
			len(pinned), len(plain))
	}
}

func TestElasticDoubleRunDeterminism(t *testing.T) {
	run := func() ([]completion, ElasticStats) {
		e := sim.NewEngine()
		defer e.Close()
		c := New(e, topology.DGXV100(), 1, grouterPlane)
		app := c.Deploy(workflow.Driving(), 0, scheduler.Options{Node: 0})
		out := recordCompletions(app)
		app.SetColdStart(ColdStartPolicy{Enabled: true, ContainerLatency: 200 * time.Millisecond,
			KeepAlive: time.Minute, Prewarm: true})
		ep := app.EnableElastic(ElasticConfig{
			Scaler:          autoscale.Predictive{PerInstance: 1.5},
			Min:             1,
			Max:             4,
			Interval:        100 * time.Millisecond,
			ScaleInCooldown: 300 * time.Millisecond,
		})
		burst(e, app, trace.Spec{Pattern: trace.Bursty, Duration: 4 * time.Second, MeanRPS: 80, Seed: 11})
		e.Run(8 * time.Second)
		return *out, ep.Stats
	}
	c1, s1 := run()
	c2, s2 := run()
	if len(c1) == 0 {
		t.Fatal("no completions")
	}
	if !reflect.DeepEqual(c1, c2) {
		t.Fatal("elastic replay is not byte-identical across runs")
	}
	if s1 != s2 {
		t.Fatalf("controller stats diverged: %+v vs %+v", s1, s2)
	}
}

// TestElasticScaleOutMemoryPressure pins the placement bugfix: when the home
// node's GPUs lack the free memory a replica needs, scale-out falls back to
// another node instead of piling onto a memory-starved GPU, and evictions on
// the starved node do not regress versus not scaling at all.
func TestElasticScaleOutMemoryPressure(t *testing.T) {
	spec := trace.Spec{Pattern: trace.Sporadic, Duration: 4 * time.Second, MeanRPS: 80, Seed: 3}
	run := func(elastic bool) (node0Evicts int64, ep *ElasticPools, app *App) {
		e := sim.NewEngine()
		defer e.Close()
		var pl *core.Plane
		c := New(e, topology.DGXV100(), 2, func(f *fabric.Fabric) dataplane.Plane {
			pl = core.New(f, core.FullConfig())
			return pl
		})
		app = c.Deploy(workflow.Driving(), 0, scheduler.Options{Node: 0})
		// Starve node 0: leave 100 MB per GPU — activations fit, but a
		// segmentation replica (240 MB of weights + activations) does not.
		for _, dev := range c.Fabric.Nodes[0].GPUs {
			if free := dev.Free(); free > 100<<20 {
				if _, err := dev.Alloc(free - 100<<20); err != nil {
					t.Fatal(err)
				}
			}
		}
		if elastic {
			ep = app.EnableElastic(ElasticConfig{
				Scaler:   autoscale.Reactive{ScaleOutDepth: 2},
				Min:      1,
				Max:      4,
				Interval: 100 * time.Millisecond,
			})
		}
		burst(e, app, spec)
		e.Run(0)
		return pl.Store(0).Evictions.N, ep, app
	}
	fixedEvicts, _, _ := run(false)
	elasticEvicts, ep, app := run(true)
	if ep.Stats.ScaleOuts == 0 {
		t.Fatal("no scale-out under overload")
	}
	// The segmentation replica cannot fit on node 0: every scaled member of
	// that pool must have crossed to node 1.
	ps := app.pool(scheduler.StageInst{Stage: "segmentation", Replica: 0})
	if len(ps.members) < 2 {
		t.Fatal("segmentation pool never grew")
	}
	for _, m := range ps.members[1:] {
		if m.loc.Node != 1 {
			t.Errorf("scaled segmentation replica landed on starved node %d GPU %d", m.loc.Node, m.loc.GPU)
		}
	}
	// Offloading work to node 1 must not add eviction pressure on node 0.
	slack := fixedEvicts/10 + 5
	if elasticEvicts > fixedEvicts+slack {
		t.Errorf("node-0 evictions regressed under scale-out: %d (elastic) vs %d (fixed)",
			elasticEvicts, fixedEvicts)
	}
	if app.Completed == 0 {
		t.Fatal("no completions under memory pressure")
	}
}

// livePoolsErr reports, if any, how an elastic pool breaks the live-only
// rule: each pool holds exactly its live (active, provisioning, draining)
// members, with ids strictly increasing in pool order and below the pool's
// next id, so no id is ever reused.
func livePoolsErr(ep *ElasticPools) error {
	for _, ps := range ep.order {
		active, prov, drain := ep.Replicas(ps.si.Stage, ps.si.Replica)
		if live := active + prov + drain; len(ps.members) != live {
			return fmt.Errorf("%v holds %d members, %d live", ps.si, len(ps.members), live)
		}
		for i, m := range ps.members {
			if m.id >= ps.nextID || (i > 0 && m.id <= ps.members[i-1].id) {
				return fmt.Errorf("%v member %d has id %d after %d (next id %d)",
					ps.si, i, m.id, ps.members[max(i-1, 0)].id, ps.nextID)
			}
		}
	}
	return nil
}

// TestElasticChurnKeepsPoolsLive replays a sporadic load under
// DefaultElastic that scales the pools out and in over a hundred times:
// after every controller tick and at drain, each pool holds only its live
// members.
func TestElasticChurnKeepsPoolsLive(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	c := New(e, topology.DGXV100(), 1, grouterPlane)
	app := c.Deploy(workflow.Driving(), 0, scheduler.Options{Node: 0})
	cfg := DefaultElastic()
	ep := app.EnableElastic(cfg)
	// Started after the controller with the same period, the checker wakes
	// right after each controller step. It runs on a process goroutine, so
	// it records the first violation instead of failing the test there.
	var bad error
	e.GoDaemon("check", func(p *sim.Proc) {
		for bad == nil {
			p.Sleep(cfg.Interval)
			if err := livePoolsErr(ep); err != nil {
				bad = fmt.Errorf("tick at %v: %w", p.Now(), err)
			}
		}
	})
	burst(e, app, trace.Spec{Pattern: trace.Sporadic, Duration: 3 * time.Minute, MeanRPS: 40, Seed: 5})
	e.Run(0)
	if bad != nil {
		t.Fatal(bad)
	}
	if err := livePoolsErr(ep); err != nil {
		t.Fatalf("at drain: %v", err)
	}
	if ep.Stats.ScaleOuts < 100 || ep.Stats.ScaleIns < 100 {
		t.Fatalf("scale-outs %d, scale-ins %d: want at least 100 cycles", ep.Stats.ScaleOuts, ep.Stats.ScaleIns)
	}
}

// TestElasticStepAllocFreeAfterChurn: a controller step over pools that have
// churned a thousand members costs what it costs over a fresh pool, and
// allocates nothing. Each run covers two full turns of the load history.
func TestElasticStepAllocFreeAfterChurn(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	c := New(e, topology.DGXV100(), 1, grouterPlane)
	app := c.Deploy(workflow.Driving(), 0, scheduler.Options{Node: 0})
	cfg := DefaultElastic()
	cfg.Interval = time.Hour // the test steps the controller itself
	ep := app.EnableElastic(cfg)
	ps := app.pool(scheduler.StageInst{Stage: "segmentation", Replica: 0})
	for i := 0; i < 1000; i++ {
		ep.scaleOut(ps, e.Now())
		ep.scaleIn(ps, 1, e.Now())
	}
	if ep.Stats.Drained != 1000 || len(ps.members) != 1 || ps.nextID != 1001 {
		t.Fatalf("after 1000 cycles: drained %d, %d members, next id %d; want 1000, 1, 1001",
			ep.Stats.Drained, len(ps.members), ps.nextID)
	}
	steps := func() {
		for i := 0; i < 2*historyWindow; i++ {
			ep.step()
		}
	}
	if n := testing.AllocsPerRun(20, steps); n != 0 {
		t.Errorf("%d allocations per %d idle controller steps, want 0", int(n), 2*historyWindow)
	}
	if ep.Stats.ScaleOuts != 1000 || ep.Stats.ScaleIns != 1000 {
		t.Errorf("idle steps scaled: %+v", ep.Stats)
	}
}

// TestElasticScaleCycleAllocFree: once the pools have warmed, a scale-out,
// a scale-in that cordons the new member while a pick still holds it, and
// the retirement of that pick, which drains and tears the member down,
// allocate nothing. The member comes off the pool's free list and the
// routable view is refilled in place. Without cold starts the member is
// routable at once; with them its provisioning timer is a recycled one.
func TestElasticScaleCycleAllocFree(t *testing.T) {
	for _, cold := range []bool{false, true} {
		t.Run(fmt.Sprintf("cold=%v", cold), func(t *testing.T) {
			e := sim.NewEngine()
			defer e.Close()
			c := New(e, topology.DGXV100(), 1, grouterPlane)
			app := c.Deploy(workflow.Driving(), 0, scheduler.Options{Node: 0})
			const delay = 10 * time.Millisecond
			if cold {
				// A new member provisions for the container launch of a
				// cold start, so with cold starts on the timer is armed.
				app.SetColdStart(ColdStartPolicy{Enabled: true, ContainerLatency: delay})
			}
			ep := app.EnableElastic(ElasticConfig{
				Scaler:   autoscale.Fixed{},
				Min:      1,
				Max:      4,
				Interval: time.Hour, // controller never steps; the test drives directly
			})
			ps := app.pool(scheduler.StageInst{Stage: "segmentation", Replica: 0})
			cycle := func() {
				ep.scaleOut(ps, e.Now())
				routable := 2 // without cold starts the new member is routable at once
				if cold {
					routable = 1 // a provisioning member takes no pick before its timer fires
				}
				if len(ps.slots) != routable {
					t.Fatalf("%d routable after scale-out, want %d", len(ps.slots), routable)
				}
				e.Run(e.Now() + delay) // a provisioning member turns routable
				m := app.instanceFor(ps, RouteInfo{Seq: 1})
				if m.id != ps.nextID-1 || m.phase != memberActive || !m.warm {
					t.Fatalf("pick landed on member %d (phase %d, warm %v), want the new warm member %d",
						m.id, m.phase, m.warm, ps.nextID-1)
				}
				ep.scaleIn(ps, 1, e.Now())
				if m.phase != memberDraining {
					t.Fatalf("scale-in left the picked member in phase %d", m.phase)
				}
				app.poolDone(ps, m)
			}
			cycle()
			if n := testing.AllocsPerRun(100, cycle); n != 0 {
				t.Errorf("%v allocations per scale cycle, want 0", n)
			}
			if ep.Stats.ScaleOuts != 102 || ep.Stats.Drained != 102 || len(ps.members) != 1 || len(ps.slots) != 1 {
				t.Fatalf("after 102 cycles: %+v, %d members, %d routable", ep.Stats, len(ps.members), len(ps.slots))
			}
			if len(ep.free) != 1 {
				t.Errorf("%d members on the free list, want the one every cycle reuses", len(ep.free))
			}
		})
	}
}

// TestPrewarmTimerOutlivesMember: a member torn down while it provisions
// leaves its provisioning timer armed. When scale-out reuses the
// member, the old timer must not make the new incarnation routable early,
// though its phase is provisioning again. No controller path tears down a
// provisioning member today, so the test calls finalize itself.
func TestPrewarmTimerOutlivesMember(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	c := New(e, topology.DGXV100(), 1, grouterPlane)
	app := c.Deploy(workflow.Driving(), 0, scheduler.Options{Node: 0})
	app.SetColdStart(ColdStartPolicy{Enabled: true, ContainerLatency: 100 * time.Millisecond})
	ep := app.EnableElastic(ElasticConfig{
		Scaler:   autoscale.Fixed{},
		Min:      1,
		Max:      4,
		Interval: time.Hour, // controller never steps; the test drives directly
	})
	ps := app.pool(scheduler.StageInst{Stage: "segmentation", Replica: 0})
	ep.scaleOut(ps, e.Now()) // routable at 100ms
	m := ps.members[1]
	e.Run(40 * time.Millisecond)
	ep.finalize(ps, m, e.Now())
	ep.scaleOut(ps, e.Now()) // routable at 140ms
	if len(ps.members) != 2 || ps.members[1] != m {
		t.Fatal("scale-out did not reuse the torn-down member")
	}
	e.Run(120 * time.Millisecond) // the first timer fired at 100ms
	if m.phase != memberProvisioning || len(ps.slots) != 1 {
		t.Fatalf("at 120ms: member phase %d, %d routable; the first incarnation's timer ended the second's provisioning",
			m.phase, len(ps.slots))
	}
	e.Run(150 * time.Millisecond)
	if m.phase != memberActive || !m.warm || len(ps.slots) != 2 {
		t.Fatalf("at 150ms: member phase %d, warm %v, %d routable; want active, warm, 2", m.phase, m.warm, len(ps.slots))
	}
}

// TestRecoveryTimerOutlivesMember: a crashed member is cordoned and torn
// down before RecoverAfter elapses, scale-out reuses it, and its new
// incarnation crashes too. The first crash's recovery timer must leave the
// new incarnation blacklisted until its own timer fires.
func TestRecoveryTimerOutlivesMember(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	var pl *core.Plane
	c := New(e, topology.DGXV100(), 1, func(f *fabric.Fabric) dataplane.Plane {
		pl = core.New(f, core.FullConfig())
		return pl
	})
	app := c.Deploy(workflow.Driving(), 0, scheduler.Options{Node: 0})
	ep := app.EnableElastic(ElasticConfig{
		Scaler:   autoscale.Fixed{},
		Min:      1,
		Max:      4,
		Interval: time.Hour, // controller never steps; the test drives directly
	})
	in := faults.NewInjector(c.Fabric)
	ep.WatchFaults(in)
	ps := app.pool(scheduler.StageInst{Stage: "segmentation", Replica: 0})
	ep.scaleOut(ps, e.Now())
	m := ps.members[1]
	in.CrashGPUAt(10*time.Millisecond, pl, m.loc.Node, m.loc.GPU) // recovers at 510ms
	e.Run(20 * time.Millisecond)
	if m.healthy {
		t.Fatal("member still healthy after its GPU crashed")
	}
	ep.scaleIn(ps, 1, e.Now()) // the unhealthy member goes first and drains at once
	ep.scaleOut(ps, e.Now())
	if ep.Stats.Drained != 1 || len(ps.members) != 2 || ps.members[1] != m || !m.healthy {
		t.Fatalf("drained %d, %d members: scale-out did not reuse the torn-down member as a healthy one",
			ep.Stats.Drained, len(ps.members))
	}
	in.CrashGPUAt(100*time.Millisecond, pl, m.loc.Node, m.loc.GPU) // recovers at 600ms
	e.Run(550 * time.Millisecond)
	if m.healthy || ep.Stats.Recoveries != 0 || len(ps.slots) != 1 {
		t.Fatalf("at 550ms: healthy %v, %d recoveries, %d routable; the first crash's timer recovered the second incarnation",
			m.healthy, ep.Stats.Recoveries, len(ps.slots))
	}
	e.Run(650 * time.Millisecond)
	if !m.healthy || ep.Stats.Recoveries != 1 || len(ps.slots) != 2 {
		t.Fatalf("at 650ms: healthy %v, %d recoveries, %d routable; want the second crash recovered", m.healthy,
			ep.Stats.Recoveries, len(ps.slots))
	}
}
