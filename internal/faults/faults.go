// Package faults injects failures into a simulated cluster at exact virtual
// timestamps: link outages and degradations (netsim), memory-pressure spikes
// (memsim), and node/GPU crashes that invalidate stored objects (data
// planes). Because the sim engine is deterministic, a fault schedule replays
// bit-identically, which makes chaos scenarios usable as regression tests
// rather than flaky add-ons.
//
// Injection events are scheduled as daemon events: a fault armed past the
// natural end of the workload never fires and never keeps Run(0) alive.
package faults

import (
	"math/rand"
	"time"

	"grouter/internal/memsim"
	"grouter/internal/netsim"
	"grouter/internal/sim"
	"grouter/internal/topology"
)

// Crasher is the data-plane hook for crash injection: invalidate every
// object resident on the given GPU and report how many were lost.
// (*core.Plane) implements it.
type Crasher interface {
	CrashGPU(node, gpu int) int
}

// Injector schedules faults on one simulated cluster.
type Injector struct {
	eng *sim.Engine
	net *netsim.Network
	// onCrash subscribers observe every injected GPU crash at fire time
	// (the request router marks the worker unhealthy from here).
	onCrash []func(node, gpu int)
}

// NewInjector returns an injector over the engine and network.
func NewInjector(e *sim.Engine, net *netsim.Network) *Injector {
	return &Injector{eng: e, net: net}
}

// At schedules an arbitrary fault action at the given virtual time (from the
// current instant if the engine is already running).
func (in *Injector) At(at time.Duration, fn func()) {
	in.eng.ScheduleDaemon(at-in.eng.Now(), fn)
}

// FailLinkAt takes the link down at the given virtual time.
func (in *Injector) FailLinkAt(at time.Duration, id topology.LinkID) {
	in.At(at, func() {
		in.net.FailLink(id)
		in.net.Faults().LinksFailed++
	})
}

// RestoreLinkAt brings the link back at the given virtual time.
func (in *Injector) RestoreLinkAt(at time.Duration, id topology.LinkID) {
	in.At(at, func() {
		in.net.RestoreLink(id)
		in.net.Faults().LinksRestored++
	})
}

// LinkDownFor schedules an outage window: the link fails at `at` and is
// restored dur later (dur <= 0 means the outage is permanent).
func (in *Injector) LinkDownFor(at, dur time.Duration, id topology.LinkID) {
	in.FailLinkAt(at, id)
	if dur > 0 {
		in.RestoreLinkAt(at+dur, id)
	}
}

// DegradeLinkFor shrinks the link to fraction of its capacity at `at`,
// restoring the original capacity dur later (dur <= 0 = permanent). The
// original capacity is captured at fire time so stacked degradations of the
// same link do not compound on restore.
func (in *Injector) DegradeLinkFor(at, dur time.Duration, id topology.LinkID, fraction float64) {
	if fraction <= 0 || fraction >= 1 {
		panic("faults: degrade fraction must be in (0,1)")
	}
	in.At(at, func() {
		orig := in.net.Capacity(id)
		in.net.SetLinkBps(id, orig*fraction)
		in.net.Faults().LinksDegraded++
		if dur > 0 {
			in.At(in.eng.Now()+dur, func() {
				in.net.SetLinkBps(id, orig)
				in.net.Faults().LinksRestored++
			})
		}
	})
}

// FlapLink schedules a periodic outage: starting at `first`, the link goes
// down for downFor at the start of every period, until the horizon.
func (in *Injector) FlapLink(id topology.LinkID, first, downFor, period, until time.Duration) {
	if downFor <= 0 || period <= downFor {
		panic("faults: flap needs 0 < downFor < period")
	}
	for at := first; at < until; at += period {
		in.LinkDownFor(at, downFor, id)
	}
}

// MemPressureFor squeezes the device by up to bytes for dur (dur <= 0 =
// permanent), modeling a co-located tenant's allocation spike. The grab is
// clamped to the device's free bytes at fire time, so the spike pressures
// the storage layer without crashing the simulation.
func (in *Injector) MemPressureFor(at, dur time.Duration, dev *memsim.Device, bytes int64) {
	in.At(at, func() {
		grab := bytes
		if free := dev.Free(); grab > free {
			grab = free
		}
		in.net.Faults().MemPressure++
		if grab <= 0 {
			return
		}
		blk, err := dev.Alloc(grab)
		if err != nil {
			return
		}
		if dur > 0 {
			in.At(in.eng.Now()+dur, blk.Free)
		}
	})
}

// OnGPUCrash registers a subscriber notified (in event context, at fire
// time) of every GPU crash this injector schedules. Health-aware layers —
// the request router's failover — use it as their crash signal.
func (in *Injector) OnGPUCrash(fn func(node, gpu int)) {
	in.onCrash = append(in.onCrash, fn)
}

// CrashGPUAt invalidates every object stored on the GPU at the given virtual
// time, via the data plane's Crasher hook.
func (in *Injector) CrashGPUAt(at time.Duration, c Crasher, node, gpu int) {
	in.At(at, func() {
		in.net.Faults().Crashes++
		in.net.Faults().ObjectsLost += int64(c.CrashGPU(node, gpu))
		for _, fn := range in.onCrash {
			fn(node, gpu)
		}
	})
}

// RandomLinkFaults seeds a reproducible random outage schedule over the
// given links: each fault picks a link uniformly, fails it after an
// exponential gap with mean meanUp, and restores it after an exponential
// outage with mean meanDown, until the horizon. The same seed produces the
// same schedule.
func (in *Injector) RandomLinkFaults(seed int64, links []topology.LinkID, horizon, meanUp, meanDown time.Duration) {
	if len(links) == 0 {
		return
	}
	rng := rand.New(rand.NewSource(seed))
	at := time.Duration(0)
	for {
		at += time.Duration(rng.ExpFloat64() * float64(meanUp))
		if at >= horizon {
			return
		}
		id := links[rng.Intn(len(links))]
		down := time.Duration(rng.ExpFloat64() * float64(meanDown))
		if down < time.Microsecond {
			down = time.Microsecond
		}
		in.LinkDownFor(at, down, id)
	}
}
