// Package faults injects failures into a simulated cluster at exact virtual
// timestamps: link outages and degradations (netsim), memory-pressure spikes
// (memsim), and node/GPU crashes that invalidate stored objects (data
// planes). Because the sim engine is deterministic, a fault schedule replays
// bit-identically, which makes chaos scenarios usable as regression tests
// rather than flaky add-ons.
//
// Injection events are scheduled as daemon events: a fault armed past the
// natural end of the workload never fires and never keeps Run(0) alive.
//
// Links are named as the topology names them ("n0.nic1.tx", "n1.nv.0>3").
// A scheduling call resolves the name once and checks its arguments; on bad
// input it returns an error wrapping ErrUnknownLink or ErrBadWindow and
// schedules nothing.
package faults

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"grouter/internal/fabric"
	"grouter/internal/memsim"
	"grouter/internal/netsim"
	"grouter/internal/sim"
	"grouter/internal/topology"
)

var (
	// ErrUnknownLink reports a link name that no link of the cluster has.
	ErrUnknownLink = errors.New("faults: unknown link")
	// ErrBadWindow reports a fault window that cannot happen: a degradation
	// fraction outside (0,1), or a flap without 0 < downFor < period.
	ErrBadWindow = errors.New("faults: bad fault window")
)

// Crasher is the data-plane hook for crash injection: invalidate every
// object resident on the given GPU and report how many were lost.
// (*core.Plane) implements it.
type Crasher interface {
	CrashGPU(node, gpu int) int
}

// Injector schedules faults on one simulated cluster.
type Injector struct {
	eng     *sim.Engine
	net     *netsim.Network
	cluster *topology.Cluster
	// onCrash subscribers observe every injected GPU crash at fire time
	// (the request router marks the worker unhealthy from here).
	onCrash []func(node, gpu int)
	// degraded holds, per link with an open degradation window, the link's
	// undegraded capacity and the fractions of its open windows.
	degraded map[topology.LinkID]*degradation
}

// degradation is the state of one link while degradation windows are open.
type degradation struct {
	base float64   // capacity before the first open window fired
	open []float64 // fractions of the open windows, in opening order
}

// bps is the capacity the link runs at: the undegraded capacity times the
// smallest open fraction, or the undegraded capacity with none open.
func (d *degradation) bps() float64 {
	if len(d.open) == 0 {
		return d.base
	}
	return d.base * slices.Min(d.open)
}

// NewInjector returns an injector over a fabric's engine and network.
func NewInjector(f *fabric.Fabric) *Injector {
	return &Injector{eng: f.Engine, net: f.Net, cluster: f.Cluster}
}

// link resolves a link name to its handle.
func (in *Injector) link(name string) (topology.LinkID, error) {
	id, ok := in.cluster.LinkByName(name)
	if !ok {
		return 0, fmt.Errorf("%w %q", ErrUnknownLink, name)
	}
	return id, nil
}

// At schedules an arbitrary fault action at the given virtual time (from the
// current instant if the engine is already running).
func (in *Injector) At(at time.Duration, fn func()) {
	in.eng.ScheduleDaemon(at-in.eng.Now(), fn)
}

// FailLinkAt takes the named link down at the given virtual time.
func (in *Injector) FailLinkAt(at time.Duration, link string) error {
	return in.LinkDownFor(at, 0, link)
}

// RestoreLinkAt brings the named link back at the given virtual time.
func (in *Injector) RestoreLinkAt(at time.Duration, link string) error {
	id, err := in.link(link)
	if err == nil {
		in.restoreAt(at, id)
	}
	return err
}

// LinkDownFor schedules an outage window: the named link fails at `at` and
// is restored dur later (dur <= 0 means the outage is permanent).
func (in *Injector) LinkDownFor(at, dur time.Duration, link string) error {
	id, err := in.link(link)
	if err == nil {
		in.downFor(at, dur, id)
	}
	return err
}

// downFor schedules the outage window of a resolved link.
func (in *Injector) downFor(at, dur time.Duration, id topology.LinkID) {
	in.At(at, func() {
		in.net.FailLink(id)
		in.net.Faults().LinksFailed++
	})
	if dur > 0 {
		in.restoreAt(at+dur, id)
	}
}

func (in *Injector) restoreAt(at time.Duration, id topology.LinkID) {
	in.At(at, func() {
		in.net.RestoreLink(id)
		in.net.Faults().LinksRestored++
	})
}

// DegradeLinkFor shrinks the named link to fraction of its capacity at `at`,
// restoring it dur later (dur <= 0 = permanent). Windows on the same link may
// overlap without compounding: while any window is open the link runs at its
// undegraded capacity — captured when the first open window fired — times
// the smallest open fraction, and it returns to that capacity when the last
// window closes.
func (in *Injector) DegradeLinkFor(at, dur time.Duration, link string, fraction float64) error {
	if !(fraction > 0 && fraction < 1) {
		return fmt.Errorf("%w: degrade fraction %v is outside (0,1)", ErrBadWindow, fraction)
	}
	id, err := in.link(link)
	if err != nil {
		return err
	}
	in.At(at, func() {
		d := in.degraded[id]
		if d == nil {
			if in.degraded == nil {
				in.degraded = make(map[topology.LinkID]*degradation)
			}
			d = &degradation{base: in.net.Capacity(id)}
			in.degraded[id] = d
		}
		d.open = append(d.open, fraction)
		in.net.SetLinkBps(id, d.bps())
		in.net.Faults().LinksDegraded++
		if dur > 0 {
			in.At(in.eng.Now()+dur, func() {
				i := slices.Index(d.open, fraction)
				d.open = slices.Delete(d.open, i, i+1)
				in.net.SetLinkBps(id, d.bps())
				if len(d.open) == 0 {
					delete(in.degraded, id)
				}
				in.net.Faults().LinksRestored++
			})
		}
	})
	return nil
}

// FlapLink schedules a periodic outage: starting at `first`, the named link
// goes down for downFor at the start of every period, until the horizon.
func (in *Injector) FlapLink(link string, first, downFor, period, until time.Duration) error {
	if downFor <= 0 || period <= downFor {
		return fmt.Errorf("%w: flap needs 0 < downFor (%v) < period (%v)", ErrBadWindow, downFor, period)
	}
	id, err := in.link(link)
	if err != nil {
		return err
	}
	for at := first; at < until; at += period {
		in.downFor(at, downFor, id)
	}
	return nil
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
// named links: each fault picks a link uniformly, fails it after an
// exponential gap with mean meanUp, and restores it after an exponential
// outage with mean meanDown, until the horizon. The same seed produces the
// same schedule.
func (in *Injector) RandomLinkFaults(seed int64, links []string, horizon, meanUp, meanDown time.Duration) error {
	ids := make([]topology.LinkID, len(links))
	for i, name := range links {
		id, err := in.link(name)
		if err != nil {
			return err
		}
		ids[i] = id
	}
	if len(ids) == 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	at := time.Duration(0)
	for {
		at += time.Duration(rng.ExpFloat64() * float64(meanUp))
		if at >= horizon {
			return nil
		}
		id := ids[rng.Intn(len(ids))]
		down := time.Duration(rng.ExpFloat64() * float64(meanDown))
		if down < time.Microsecond {
			down = time.Microsecond
		}
		in.downFor(at, down, id)
	}
}
