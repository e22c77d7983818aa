// Traffic pipeline: the paper's Fig. 1 motivating application end to end.
// A traffic-monitoring workflow (video decode → preprocess → YOLO detection
// → postprocess → conditional person/car recognition) is deployed on a
// simulated DGX-V100 and driven with an Azure-like bursty trace, once on
// GROUTER and once on each baseline. The program prints per-system latency
// percentiles and the data-passing/compute breakdown. Everything goes
// through the grouter façade.
package main

import (
	"fmt"
	"time"

	"grouter"
)

func main() {
	arrivals := grouter.GenerateTrace(grouter.TraceSpec{
		Pattern:  grouter.Bursty,
		Duration: 20 * time.Second,
		MeanRPS:  8,
		Seed:     42,
	})
	fmt.Printf("traffic-monitoring workflow, %d requests over 20s (bursty Azure-like trace)\n\n",
		len(arrivals))
	fmt.Printf("%-10s %9s %9s %10s %10s %9s\n",
		"system", "p50(ms)", "p99(ms)", "gfngfn(ms)", "gfnhost(ms)", "comp(ms)")

	systems := []struct {
		name string
		mk   func(s *grouter.Sim) grouter.Plane
	}{
		{"infless+", func(s *grouter.Sim) grouter.Plane { return s.NewINFless() }},
		{"nvshmem+", func(s *grouter.Sim) grouter.Plane { return s.NewNVShmem(1) }},
		{"deepplan+", func(s *grouter.Sim) grouter.Plane { return s.NewDeepPlan(1) }},
		{"grouter", func(s *grouter.Sim) grouter.Plane { return s.NewGRouter() }},
	}
	for _, sys := range systems {
		s := grouter.MustNewSim("dgx-v100")
		c := s.NewCluster(sys.mk)
		app := c.Deploy(grouter.TrafficWorkflow(), 0, grouter.PlaceOptions{Node: 0})
		if _, err := app.Replay(arrivals, grouter.ReplaySpec{}); err != nil {
			panic(err)
		}
		s.Close()
		fmt.Printf("%-10s %9.2f %9.2f %10.2f %10.2f %9.2f\n",
			sys.name,
			msf(app.E2E().P(0.5)), msf(app.E2E().P(0.99)),
			msf(app.XferGPU.Mean()), msf(app.XferHost.Mean()), msf(app.Compute.Mean()))
	}
	fmt.Println("\nOn the host-centric plane, data passing dominates end-to-end latency;")
	fmt.Println("GROUTER keeps intermediate tensors on the producing GPUs and the")
	fmt.Println("workflow becomes compute-bound.")
}

func msf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
