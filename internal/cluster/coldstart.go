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

// SetColdStart configures the app's provisioning model; call before the
// first request. It resets every pool member's warmth; with p.Prewarm every
// routable replica starts warm.
func (a *App) SetColdStart(p ColdStartPolicy) {
	a.Cold = p
	for _, ps := range a.pools {
		for _, m := range ps.members {
			m.warm, m.lastUsed = false, 0
		}
		for _, m := range ps.slots {
			m.warm = p.Prewarm
		}
	}
}

// ColdStarts returns how many cold starts the app has paid.
func (a *App) ColdStarts() int64 { return a.coldStarts }

// ensureWarm pays the cold-start penalty if pool member m is cold or its
// keep-alive expired. It must run while the instance's compute slot is held.
// Model weights load from host memory over the member's local PCIe route
// at full pinned bandwidth; a load that still fails after its retries
// panics, as a failed input Get does, so the instance never turns warm
// without its weights.
func (a *App) ensureWarm(p *sim.Proc, si scheduler.StageInst, m *poolMember, weights int64) {
	if !a.Cold.Enabled {
		return
	}
	now := p.Now()
	if m.warm && a.Cold.KeepAlive > 0 && now-m.lastUsed > a.Cold.KeepAlive {
		m.warm = false
	}
	if !m.warm {
		p.Sleep(a.Cold.ContainerLatency)
		if weights > 0 {
			if !m.loc.IsHost() {
				host := fabric.Location{Node: m.loc.Node, GPU: fabric.HostGPU}
				links, _ := a.C.Fabric.SinglePath(host, m.loc)
				if _, err := a.C.xm.Transfer(p, xfer.Request{
					Label: "model-load:" + si.Stage,
					Bytes: weights,
					Paths: []xfer.Path{xfer.PathOf(a.C.Fabric.Net, links)},
				}); err != nil {
					panic(err)
				}
			}
		}
		m.warm = true
		a.coldStarts++
	}
	m.lastUsed = p.Now()
}
