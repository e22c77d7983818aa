package grouter

// Benchmark harness: one testing.B benchmark per table and figure in the
// paper's evaluation, each running the corresponding experiment end to end,
// plus micro-benchmarks of the simulation substrate itself. Run with
//
//	go test -bench=. -benchmem
//
// Every experiment is deterministic; the wall-clock numbers measure the
// simulator, while the simulated results (what the paper reports) are
// printed by cmd/grouter-bench.

import (
	"testing"
	"time"

	"grouter/internal/experiments"
	"grouter/internal/fabric"
	"grouter/internal/netsim"
	"grouter/internal/sim"
	"grouter/internal/topology"
	"grouter/internal/trace"
)

// benchExperiment runs one paper experiment per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e := experiments.ByID(id)
	if e == nil {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tbl := e.Run()
		if len(tbl.Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

func BenchmarkFig3Breakdown(b *testing.B)      { benchExperiment(b, "fig3") }
func BenchmarkFig5bInterference(b *testing.B)  { benchExperiment(b, "fig5b") }
func BenchmarkFig6aPairBandwidth(b *testing.B) { benchExperiment(b, "fig6a") }
func BenchmarkFig7aMemoryTimeline(b *testing.B) {
	benchExperiment(b, "fig7a")
}
func BenchmarkTable1Capabilities(b *testing.B)  { benchExperiment(b, "tab1") }
func BenchmarkFig13DataPassing(b *testing.B)    { benchExperiment(b, "fig13") }
func BenchmarkFig14EndToEnd(b *testing.B)       { benchExperiment(b, "fig14") }
func BenchmarkFig15Throughput(b *testing.B)     { benchExperiment(b, "fig15") }
func BenchmarkFig16Ablation(b *testing.B)       { benchExperiment(b, "fig16") }
func BenchmarkFig17Partitioning(b *testing.B)   { benchExperiment(b, "fig17") }
func BenchmarkFig18ElasticStorage(b *testing.B) { benchExperiment(b, "fig18") }
func BenchmarkFig19LLMTTFT(b *testing.B)        { benchExperiment(b, "fig19") }
func BenchmarkFig20aNoNVLink(b *testing.B)      { benchExperiment(b, "fig20a") }
func BenchmarkFig20bCPUOverhead(b *testing.B)   { benchExperiment(b, "fig20b") }
func BenchmarkFig20cMemoryOverhead(b *testing.B) {
	benchExperiment(b, "fig20c")
}
func BenchmarkExtColdStart(b *testing.B)      { benchExperiment(b, "ext-coldstart") }
func BenchmarkExtSpatialSharing(b *testing.B) { benchExperiment(b, "ext-spatial") }

// --- substrate micro-benchmarks ---

// BenchmarkEngineEvents measures raw event throughput of the discrete-event
// engine.
func BenchmarkEngineEvents(b *testing.B) {
	b.ReportAllocs()
	e := sim.NewEngine()
	defer e.Close()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			e.Schedule(time.Microsecond, tick)
		}
	}
	e.Schedule(0, tick)
	e.Run(0)
	if n != b.N && b.N > 0 {
		b.Fatalf("ran %d events, want %d", n, b.N)
	}
}

// BenchmarkProcessSwitch measures cooperative process context switches.
func BenchmarkProcessSwitch(b *testing.B) {
	e := sim.NewEngine()
	defer e.Close()
	e.Go("switcher", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(time.Microsecond)
		}
	})
	b.ResetTimer()
	e.Run(0)
}

// BenchmarkNetsimFlowChurn measures rate recomputation under concurrent
// flows on a realistic link graph.
func BenchmarkNetsimFlowChurn(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := sim.NewEngine()
		cl := topology.NewCluster(topology.DGXV100(), 1)
		net := netsim.New(e, cl.Links())
		node := cl.Node(0)
		for g := 0; g < 8; g++ {
			for peer := 0; peer < 8; peer++ {
				if node.Spec.NVAdj[g][peer] > 0 {
					net.Start("churn", node.NVLinkPathLinks([]int{g, peer}), 1<<24, netsim.Options{})
				}
			}
		}
		e.Run(0)
		e.Close()
	}
}

// netsimScaleSpecs builds the flow mix for the netsim scale benchmarks: a
// 4-node DGX-A100 cluster with NVSwitch pair traffic, PCIe host staging, and
// cross-node NIC transfers on every GPU, replicated until well over a
// thousand flows are in flight.
type netsimFlowSpec struct {
	path  []topology.LinkID
	bytes float64
	delay time.Duration
}

func netsimScaleSpecs(cl *topology.Cluster, replicas int) []netsimFlowSpec {
	var specs []netsimFlowSpec
	nodes := len(cl.Nodes)
	for rep := 0; rep < replicas; rep++ {
		for nd := 0; nd < nodes; nd++ {
			node := cl.Node(nd)
			dst := cl.Node((nd + 1) % nodes)
			for g := 0; g < node.Spec.NumGPUs; g++ {
				base := time.Duration(rep*nodes*8+nd*8+g) * 23 * time.Microsecond
				for r := 1; r <= 4; r++ {
					peer := (g + r) % node.Spec.NumGPUs
					specs = append(specs, netsimFlowSpec{
						path:  node.NVLinkPathLinks([]int{g, peer}),
						bytes: float64(int64(32+(g*7+r*3+rep)%32) << 20),
						delay: base + time.Duration(r)*17*time.Microsecond,
					})
				}
				specs = append(specs, netsimFlowSpec{
					path:  node.GPUToHostLinks(g),
					bytes: float64(int64(24+(g+rep)%16) << 20),
					delay: base + 97*time.Microsecond,
				})
				specs = append(specs, netsimFlowSpec{
					path:  node.HostToGPULinks(g),
					bytes: float64(int64(24+(g+rep)%16) << 20),
					delay: base + 131*time.Microsecond,
				})
				k := node.Spec.GPUNIC[g]
				xpath := append(append([]topology.LinkID{}, node.GPUToNICLinks(g, k)...), dst.NICToGPULinks(k, g)...)
				specs = append(specs, netsimFlowSpec{
					path:  xpath,
					bytes: float64(int64(16+(g*5+rep)%16) << 20),
					delay: base + 173*time.Microsecond,
				})
			}
		}
	}
	return specs
}

// BenchmarkNetsimScale1k runs ~1,500 concurrent flows over a 4-node DGX-A100
// cluster topology: every flow arrival and completion triggers a rate
// recomputation, so this measures the allocator's scaling behaviour.
func BenchmarkNetsimScale1k(b *testing.B) {
	b.ReportAllocs()
	cl := topology.NewCluster(topology.DGXA100(), 4)
	links := cl.Links()
	specs := netsimScaleSpecs(cl, 7) // 4 nodes x 8 GPUs x 7 flows x 7 replicas = 1568
	var net *netsim.Network
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := sim.NewEngine()
		net = netsim.New(e, links)
		for _, s := range specs {
			s := s
			e.Schedule(s.delay, func() {
				net.Start("scale", s.path, s.bytes, netsim.Options{})
			})
		}
		e.Run(0)
		e.Close()
		if net.ActiveFlows() != 0 {
			b.Fatalf("flows left: %d", net.ActiveFlows())
		}
	}
	reportAllocatorWork(b, net)
}

// reportAllocatorWork reports the allocator work of one iteration's network:
// recompute passes per run and the mean number of flows each one touched.
// Every iteration replays the same schedule, so any iteration's counts stand
// for all of them.
func reportAllocatorWork(b *testing.B, net *netsim.Network) {
	st := net.NetStats()
	rec := st.Recomputes.Load()
	b.ReportMetric(float64(rec), "recomputes/op")
	if rec > 0 {
		b.ReportMetric(float64(st.FlowsTouched.Load())/float64(rec), "flows/recompute")
	}
}

// BenchmarkNetsimScaleComponents measures multi-component contention: long
// background flows occupy the NVSwitch fabrics of nodes 1-3 while node 0
// sees heavy arrival churn. A component-scoped allocator only recomputes the
// busy island; a global one pays for every idle flow on every event.
func BenchmarkNetsimScaleComponents(b *testing.B) {
	b.ReportAllocs()
	cl := topology.NewCluster(topology.DGXA100(), 4)
	links := cl.Links()
	node0 := cl.Node(0)
	var net *netsim.Network
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := sim.NewEngine()
		net = netsim.New(e, links)
		// Long-lived background flows on nodes 1-3 (disjoint NVSwitch islands).
		for nd := 1; nd < 4; nd++ {
			node := cl.Node(nd)
			for g := 0; g < 8; g++ {
				net.Start("bg", node.NVLinkPathLinks([]int{g, (g + 1) % 8}), 64<<30, netsim.Options{})
			}
		}
		// Churn: 600 short flows arriving on node 0 over time.
		for j := 0; j < 600; j++ {
			j := j
			e.Schedule(time.Duration(j)*50*time.Microsecond, func() {
				g := j % 8
				net.Start("churn", node0.NVLinkPathLinks([]int{g, (g + 1 + j%7) % 8}), float64(int64(4+j%8)<<20), netsim.Options{})
			})
		}
		e.Run(40 * time.Millisecond)
		e.Close()
	}
	reportAllocatorWork(b, net)
}

// BenchmarkDataPassing measures one simulated Put/Get exchange per iteration
// through the full GROUTER stack.
func BenchmarkDataPassing(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := MustNewSim("dgx-v100")
		pl := s.NewGRouter(FullConfig())
		s.Go("pass", func(p *Proc) {
			up := &FnCtx{Fn: "up", Loc: Location{Node: 0, GPU: 0}}
			down := &FnCtx{Fn: "down", Loc: Location{Node: 0, GPU: 3}}
			ref, err := pl.Put(p, up, 64<<20)
			if err != nil {
				panic(err)
			}
			if err := pl.Get(p, down, ref); err != nil {
				panic(err)
			}
			pl.Free(ref)
		})
		s.Run()
		s.Close()
	}
}

// BenchmarkTraceGeneration measures Azure-like trace synthesis.
func BenchmarkTraceGeneration(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		arr := trace.Generate(trace.Spec{
			Pattern: trace.Bursty, Duration: time.Minute, MeanRPS: 50, Seed: int64(i),
		})
		if len(arr) == 0 {
			b.Fatal("empty trace")
		}
	}
}

// BenchmarkFabricConstruction measures building a two-node simulated
// cluster.
func BenchmarkFabricConstruction(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := sim.NewEngine()
		f := fabric.New(e, topology.DGXV100(), 2)
		if f.NumNodes() != 2 {
			b.Fatal("bad fabric")
		}
		e.Close()
	}
}
