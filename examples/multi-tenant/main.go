// Multi-tenant: SLO-aware bandwidth partitioning in action. A
// latency-critical road-segmentation workflow ("driving") shares a DGX-V100
// node with a transfer-intensive video-analytics workflow that continuously
// loads large chunks over PCIe. The program runs the pair twice — with
// GROUTER's fine-grained bandwidth harvesting and with DeepPlan-style
// uncontrolled sharing — and prints how much of the interference the
// partitioning absorbs. Everything goes through the grouter façade.
package main

import (
	"fmt"
	"time"

	"grouter"
)

func runPair(label string, cfg grouter.Config) (p99 time.Duration, hostXfer time.Duration, compliance float64) {
	s := grouter.MustNewSim("dgx-v100")
	defer s.Close()
	c := s.NewCluster(func(s *grouter.Sim) grouter.Plane { return s.NewGRouter(cfg) })
	driving := c.Deploy(grouter.DrivingWorkflow(), 0, grouter.PlaceOptions{Node: 0})
	video := c.Deploy(grouter.VideoWorkflow(), 0, grouter.PlaceOptions{Node: 0})

	dur := 15 * time.Second
	for _, at := range grouter.GenerateTrace(grouter.TraceSpec{Pattern: grouter.Bursty, Duration: dur, MeanRPS: 6, Seed: 5}) {
		at := at
		s.Schedule(at, func() { driving.Submit(grouter.Request{}) })
	}
	for _, at := range grouter.GenerateTrace(grouter.TraceSpec{Pattern: grouter.Bursty, Duration: dur, MeanRPS: 24, Seed: 6}) {
		at := at
		s.Schedule(at, func() { video.Submit(grouter.Request{}) })
	}
	s.Run()
	fmt.Printf("%-22s driving: %3d reqs  p99 %6.2f ms  gFn-host %5.2f ms  SLO met %3.0f%%   (video: %d reqs)\n",
		label, driving.Completed,
		float64(driving.E2E().P(0.99))/float64(time.Millisecond),
		float64(driving.XferHost.Mean())/float64(time.Millisecond),
		driving.SLOCompliance()*100, video.Completed)
	return driving.E2E().P(0.99), driving.XferHost.Mean(), driving.SLOCompliance()
}

func main() {
	fmt.Println("driving (latency-critical) colocated with video (transfer-intensive), DGX-V100")
	fmt.Println()
	full := grouter.FullConfig()
	_, fullHost, _ := runPair("with partitioning", full)

	shared := grouter.FullConfig()
	shared.NoRateControl = true // DeepPlan-style uncontrolled sharing
	_, sharedHost, _ := runPair("without partitioning", shared)

	fmt.Printf("\nbandwidth partitioning keeps driving's staging transfers %.1fx faster under contention\n",
		sharedHost.Seconds()/fullHost.Seconds())
}
