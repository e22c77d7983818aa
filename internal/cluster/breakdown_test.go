package cluster

import (
	"testing"
	"time"

	"grouter/internal/obs"
	"grouter/internal/scheduler"
	"grouter/internal/sim"
	"grouter/internal/topology"
	"grouter/internal/workflow"
)

// runWithBreakdown invokes n requests of wf on a fresh grouter cluster with
// critical-path accounting enabled.
func runWithBreakdown(t *testing.T, wf *workflow.Workflow, n int) *Breakdown {
	t.Helper()
	e := sim.NewEngine()
	defer e.Close()
	c := New(e, topology.DGXV100(), 1, grouterPlane)
	app := c.Deploy(wf, 0, scheduler.Options{Node: -1})
	bd := app.EnableBreakdown()
	e.Go("driver", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			mustSubmit(app, Request{}).Wait(p)
		}
	})
	e.Run(0)
	if app.Completed != n {
		t.Fatalf("completed %d requests, want %d", app.Completed, n)
	}
	return bd
}

func TestBreakdownSumMatchesE2E(t *testing.T) {
	for _, wf := range workflow.Suite() {
		bd := runWithBreakdown(t, wf, 3)
		if len(bd.Requests) != 3 {
			t.Fatalf("%s: recorded %d breakdowns, want 3", wf.Name, len(bd.Requests))
		}
		for _, rb := range bd.Requests {
			e2e, sum := rb.E2E(), rb.Sum()
			if e2e <= 0 {
				t.Errorf("%s seq %d: non-positive E2E %v", wf.Name, rb.Seq, e2e)
			}
			diff := e2e - sum
			if diff < 0 {
				diff = -diff
			}
			// The critical chain tiles [start, end]; allow only rounding slack.
			if diff > time.Microsecond {
				t.Errorf("%s seq %d: bucket sum %v != E2E %v (diff %v)",
					wf.Name, rb.Seq, sum, e2e, diff)
			}
		}
	}
}

func TestBreakdownAttributesComputeAndTransfer(t *testing.T) {
	bd := runWithBreakdown(t, workflow.Traffic(), 1)
	rb := bd.Requests[0]
	if rb.Buckets[obs.CatCompute] <= 0 {
		t.Errorf("compute bucket = %v, want > 0", rb.Buckets[obs.CatCompute])
	}
	if rb.Buckets[obs.CatTransfer] <= 0 {
		t.Errorf("transfer bucket = %v, want > 0", rb.Buckets[obs.CatTransfer])
	}
	for c, d := range rb.Buckets {
		if d < 0 {
			t.Errorf("bucket %v negative: %v", obs.Category(c), d)
		}
	}
}

func TestBreakdownDeterministic(t *testing.T) {
	a := runWithBreakdown(t, workflow.Traffic(), 2)
	b := runWithBreakdown(t, workflow.Traffic(), 2)
	if len(a.Requests) != len(b.Requests) {
		t.Fatalf("request counts differ: %d vs %d", len(a.Requests), len(b.Requests))
	}
	for i := range a.Requests {
		if a.Requests[i] != b.Requests[i] {
			t.Errorf("request %d differs across identical runs:\n%+v\n%+v",
				i, a.Requests[i], b.Requests[i])
		}
	}
}
