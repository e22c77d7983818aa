package netsim

import (
	"math"
	"testing"
	"time"

	"grouter/internal/sim"
	"grouter/internal/topology"
)

// TestWaterFillTierStarvation is the regression for a tier-wide water-fill
// cutoff: a uniform increment below waterFillEps on one crowded link used to
// stop the whole priority tier, so flows whose own links were still idle got
// nothing. Links 0 and 2 carry 1.5 B/s, so their first increments are 0.5
// and 0.75 B/s. Flow b shares link 1 only with x, a crowded flow, and d sits
// alone on link 3 in a component of its own; every flow starts at one
// instant, so one recompute fills them all as one tier. Both water-fills
// must apply the sub-eps increment and freeze only the flows on the binding
// link, leaving b and d the rest of their 1000 B/s links.
func TestWaterFillTierStarvation(t *testing.T) {
	e := sim.NewEngine()
	n := testNet(e, 1.5, 1000, 1.5, 1000)
	paths := map[string][]topology.LinkID{
		"a1": {0}, "a2": {0}, "x": {0, 1},
		"b":  {1},
		"c1": {2}, "c2": {2},
		"d": {3},
	}
	want := map[string]float64{
		"a1": 0.5, "a2": 0.5, "x": 0.5, "b": 999.5,
		"c1": 0.5, "c2": 0.5, "d": 999.5,
	}
	flows := map[string]*Flow{}
	checked := false
	for _, name := range []string{"a1", "a2", "x", "b", "c1", "c2", "d"} {
		flows[name] = n.Start(name, paths[name], 1e6, Options{})
	}
	e.Schedule(time.Nanosecond, func() {
		checked = true
		if !n.ratesSettled() {
			t.Fatal("rates not settled 1ns after the starts")
		}
		ref := n.allocateReference()
		for name, f := range flows {
			if math.Abs(f.Rate()-want[name]) > 1 {
				t.Errorf("flow %s: rate %f, want %f", name, f.Rate(), want[name])
			}
			if d := f.Rate() - ref[f]; d > 1 || d < -1 {
				t.Errorf("flow %s: incremental rate %f, reference %f", name, f.Rate(), ref[f])
			}
		}
		if err := n.checkIntegrity(); err != nil {
			t.Error(err)
		}
	})
	e.Run(time.Nanosecond)
	e.Close()
	if !checked {
		t.Fatal("the rates were never checked")
	}
}
