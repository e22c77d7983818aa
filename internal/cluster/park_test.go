package cluster

import (
	"fmt"
	"runtime"
	"sort"
	"testing"
	"unsafe"

	"grouter/internal/obs"
	"grouter/internal/scheduler"
	"grouter/internal/sim"
	"grouter/internal/topology"
	"grouter/internal/workflow"
)

// TestOverloadedReplayParksWithoutGoroutines replays the -short
// BenchmarkScaleReplay setup (1,663 bursty arrivals, about 500 requests in
// flight at the peak) with the breakdown off and on, through the driving
// workflow and through the traffic workflow, whose two last stages are
// probabilistic. A stage instance that waits for an input or a GPU slot
// parks at the top and holds no goroutine, so the process's goroutine count
// rises by at most 32 over the replay, where one goroutine per waiting
// instance read 1,284.
//
// Each replay must also read exactly what it read when every waiting
// instance held its goroutine (the want strings were recorded that way): a
// restart that redid a skip draw would shift the request's random stream
// and change Compute, one that redid the ingress Put would add host
// transfers to XferHost, and one that restarted the queue clock would
// change the breakdown's queue bucket.
func TestOverloadedReplayParksWithoutGoroutines(t *testing.T) {
	arrivals := scaleArrivals(5_000)
	for _, tc := range []struct {
		name      string
		wf        func() *workflow.Workflow
		breakdown bool
		want      string
	}{
		{"driving", workflow.Driving, false,
			"p50=11.393313ms p99=1.321160187s compute=11.641s xfer-gpu=1.146962766s xfer-host=526.058403ms"},
		{"driving/breakdown", workflow.Driving, true,
			"p50=11.393313ms p99=1.321160187s compute=11.641s xfer-gpu=1.146962766s xfer-host=526.058403ms" +
				" buckets=[374136000 417781881267 1315515169 0 0 11641000000 0 0 0]"},
		{"traffic", workflow.Traffic, false,
			"p50=13.346604ms p99=740.475894ms compute=16.9826s xfer-gpu=1.736020213s xfer-host=1.370646389s"},
		{"traffic/breakdown", workflow.Traffic, true,
			"p50=13.346604ms p99=740.475894ms compute=16.9826s xfer-gpu=1.736020213s xfer-host=1.370646389s" +
				" buckets=[856630000 237487138052 2121219521 0 0 15510600000 0 0 0]"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := sim.NewEngine()
			defer e.Close()
			c := New(e, topology.DGXV100(), 2, grouterPlane)
			app := c.Deploy(tc.wf(), 1, scheduler.Options{Node: 0, SplitAcrossNodes: true})
			app.EnableElastic(scaleOutOnly(4, 0))
			var bd *Breakdown
			if tc.breakdown {
				bd = app.EnableBreakdown()
			}
			base := runtime.NumGoroutine()
			peak, inFlight := 0, 0
			var tick func()
			tick = func() {
				peak = max(peak, runtime.NumGoroutine()-base)
				admitted := sort.Search(len(arrivals), func(i int) bool { return arrivals[i] > e.Now() })
				inFlight = max(inFlight, admitted-app.Completed)
				e.ScheduleDaemon(peakPeriod, tick)
			}
			e.ScheduleDaemon(0, tick)
			st, err := app.Replay(arrivals, ReplaySpec{})
			if err != nil {
				t.Fatal(err)
			}
			if st.Completed != len(arrivals) {
				t.Fatalf("completed %d of %d", st.Completed, len(arrivals))
			}
			if inFlight < 400 {
				t.Errorf("at most %d requests in flight, want an overloaded replay (at least 400)", inFlight)
			}
			if peak > 32 {
				t.Errorf("peak goroutines rose by %d over the replay, want at most 32", peak)
			}
			got := fmt.Sprintf("p50=%v p99=%v compute=%v xfer-gpu=%v xfer-host=%v",
				st.P50, st.P99, app.Compute.Sum(), app.XferGPU.Sum(), app.XferHost.Sum())
			if bd != nil {
				var sum [obs.NumBuckets]int64
				for i := range bd.Requests {
					rb := &bd.Requests[i]
					if rb.Sum() != rb.E2E() {
						t.Fatalf("request %d: breakdown sums to %v, E2E is %v", rb.Seq, rb.Sum(), rb.E2E())
					}
					for c, d := range rb.Buckets {
						sum[c] += int64(d)
					}
				}
				got += fmt.Sprintf(" buckets=%v", sum)
			}
			t.Logf("peak goroutines +%d, %d in flight; %s", peak, inFlight, got)
			if got != tc.want {
				t.Errorf("replay read\n%s\nwant\n%s", got, tc.want)
			}
		})
	}
}

// TestActivationSize pins the pooled activation at 152 B, its size when
// every waiting instance held a goroutine: each request state holds one per
// stage instance, so growing it grows every request state. Parking at the
// top costs it nothing: the queued flag sits beside the int32 index, the
// ingress ref waits in the instance's own output slot, and the queue clock
// in its breakdown record.
func TestActivationSize(t *testing.T) {
	if got := unsafe.Sizeof(activation{}); got > 152 {
		t.Errorf("activation is %d B, want at most 152", got)
	}
}
