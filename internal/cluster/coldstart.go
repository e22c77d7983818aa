package cluster

import (
	"time"

	"grouter/internal/fabric"
	"grouter/internal/scheduler"
	"grouter/internal/sim"
	"grouter/internal/xfer"
)

// ColdStartPolicy models serverless function provisioning. The paper's
// deployments pre-warm functions and models (§5, following SHEPHERD), which
// is the default here (Enabled=false ⇒ everything is always warm); enabling
// it lets experiments quantify what pre-warming buys.
type ColdStartPolicy struct {
	// Enabled turns cold starts on.
	Enabled bool
	// ContainerLatency is the container/runtime launch cost of a cold start
	// (sandbox boot, CUDA context creation).
	ContainerLatency time.Duration
	// KeepAlive is how long an idle instance stays warm.
	KeepAlive time.Duration
	// Prewarm starts every instance warm at deployment.
	Prewarm bool
}

// DefaultColdStart returns a realistic cold-start model for GPU functions.
func DefaultColdStart() ColdStartPolicy {
	return ColdStartPolicy{
		Enabled:          true,
		ContainerLatency: 800 * time.Millisecond,
		KeepAlive:        30 * time.Second,
		Prewarm:          false,
	}
}

// instanceState tracks one function instance's warmth.
type instanceState struct {
	warm     bool
	lastUsed time.Duration
}

// instKey identifies one pool replica of one stage instance by the replica's
// stable member id: ids survive membership churn (a drain compacts the
// routable slice but never renumbers survivors), so warmth state always
// follows the same physical instance.
type instKey struct {
	si scheduler.StageInst
	id int
}

// SetColdStart configures the app's provisioning model; call before the
// first request. With p.Prewarm every routable replica starts warm.
func (a *App) SetColdStart(p ColdStartPolicy) {
	a.Cold = p
	a.instances = make(map[instKey]*instanceState)
	for _, ps := range a.pools {
		for _, m := range ps.slots {
			a.instances[instKey{ps.si, m.id}] = &instanceState{warm: p.Prewarm}
		}
	}
}

// ColdStarts returns how many cold starts the app has paid.
func (a *App) ColdStarts() int64 { return a.coldStarts }

// ensureWarm pays the cold-start penalty if the instance is cold or its
// keep-alive expired. It must run while the instance's compute slot is held.
// Model weights load from host memory over the instance's local PCIe route
// at full pinned bandwidth; a load that still fails after its retries
// panics, as a failed input Get does, so the instance never turns warm
// without its weights. loc is the activation's resolved location: the
// pool may have been rebuilt (drain, crash, scale) since the pick, so the
// member id must never be re-indexed into the current routable slice.
func (a *App) ensureWarm(p *sim.Proc, si scheduler.StageInst, memberID int, loc fabric.Location, weights int64) {
	if !a.Cold.Enabled || a.instances == nil {
		return
	}
	st := a.instances[instKey{si, memberID}]
	if st == nil {
		// Autoscaled instance created after SetColdStart: starts cold.
		st = &instanceState{}
		a.instances[instKey{si, memberID}] = st
	}
	now := p.Now()
	if st.warm && a.Cold.KeepAlive > 0 && now-st.lastUsed > a.Cold.KeepAlive {
		st.warm = false
	}
	if !st.warm {
		p.Sleep(a.Cold.ContainerLatency)
		if weights > 0 {
			if !loc.IsHost() {
				topo := a.C.Fabric.Topo(loc.Node)
				if _, err := a.C.xm.Transfer(p, xfer.Request{
					Label: "model-load:" + si.Stage,
					Bytes: weights,
					Paths: []xfer.Path{xfer.PathOf(a.C.Fabric.Net, topo.HostToGPULinks(loc.GPU))},
				}); err != nil {
					panic(err)
				}
			}
		}
		st.warm = true
		a.coldStarts++
	}
	st.lastUsed = p.Now()
}
