package netsim

import (
	"math/rand"
	"testing"
	"time"

	"grouter/internal/sim"
)

// TestWaterFillTierStarvationSeed pins the randomized-schedule seed that
// exposed a tier-wide water-fill cutoff bug: a sub-eps uniform increment on
// one crowded link used to stop the whole priority tier, starving a flow
// that sat alone on an otherwise-idle link (the incremental allocator filled
// it per component; the reference oracle returned 0). Both water-fills now
// apply sub-eps deltas so only the binding link's flows freeze.
func TestWaterFillTierStarvationSeed(t *testing.T) {
	seed := int64(5113539033122448203)
	rng := rand.New(rand.NewSource(seed))
	e := sim.NewEngine()
	defer e.Close()
	links := diffTopology(rng)
	net := testNet(e, links...)

	var live []*Flow
	nEvents := 10 + rng.Intn(40)
	for i := 0; i < nEvents; i++ {
		at := time.Duration(rng.Intn(5000)) * time.Millisecond
		op := rng.Intn(10)
		e.Schedule(at, func() {
			switch {
			case op < 6 || len(live) == 0:
				f := net.Start("df", diffPath(rng, len(links)),
					float64(100+rng.Intn(500000)), diffOptions(rng))
				live = append(live, f)
			case op < 8:
				live[rng.Intn(len(live))].SetOptions(diffOptions(rng))
			default:
				net.Cancel(live[rng.Intn(len(live))])
			}
		})
		e.Schedule(at+time.Nanosecond, func() {
			if !net.ratesSettled() {
				return
			}
			ref := net.allocateReference()
			for _, f := range net.order {
				if d := f.rate - ref[f]; d > 1.0 || d < -1.0 {
					t.Errorf("at %v flow %q(seq %d) incremental rate %f, reference %f",
						e.Now(), f.label, f.seq, f.rate, ref[f])
				}
			}
			if err := net.checkIntegrity(); err != nil {
				t.Error(err)
			}
		})
	}
	e.Run(0)
}
