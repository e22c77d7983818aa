// Package experiments reproduces every table and figure of the paper's
// evaluation (§2 motivation and §6). Each experiment builds a fresh
// simulated cluster, runs the workloads, and returns a Table with the same
// rows/series the paper reports plus notes comparing measured shape against
// the published numbers.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"grouter/internal/baselines"
	"grouter/internal/cluster"
	"grouter/internal/core"
	"grouter/internal/dataplane"
	"grouter/internal/fabric"
	"grouter/internal/sim"
	"grouter/internal/topology"
)

// Table is one experiment's result in printable form.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	// Notes record paper-vs-measured comparisons and caveats.
	Notes []string
}

// Format renders the table as aligned text.
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Columns)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	return b.String()
}

// Experiment couples an ID with its runner. Sized experiments take a
// request count: Sized runs them at any size, Run at their registered
// default.
type Experiment struct {
	ID    string
	Title string
	Run   func() *Table
	// Sized is nil for an experiment that takes no size.
	Sized func(requests int) *Table
}

// fixed registers an experiment that takes no size.
func fixed(id, title string, run func() *Table) Experiment {
	return Experiment{ID: id, Title: title, Run: run}
}

// sized registers an experiment that takes a request count, run at requests
// by default.
func sized(id, title string, requests int, table func(requests int) *Table) Experiment {
	return Experiment{ID: id, Title: title, Sized: table,
		Run: func() *Table { return table(requests) }}
}

// All lists every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		fixed("fig3", "Host-centric data-passing latency breakdown", Fig3Breakdown),
		fixed("fig5b", "Parallel-PCIe interference without partitioning", Fig5bInterference),
		fixed("fig6a", "DGX-V100 point-to-point bandwidth classes", Fig6aPairBandwidth),
		fixed("fig7a", "Idle GPU memory under an Azure-like trace", Fig7aMemoryTimeline),
		fixed("tab1", "Capability matrix of GPU-side storage systems", Table1Capabilities),
		fixed("fig13", "Data-passing latency across systems and sizes", Fig13DataPassing),
		fixed("fig14", "End-to-end P99 latency on real workflows", Fig14EndToEnd),
		fixed("fig15", "Maximum throughput intra- and inter-node", Fig15Throughput),
		fixed("fig16", "Ablation of GROUTER optimizations", Fig16Ablation),
		fixed("fig17", "SLO-aware bandwidth partitioning", Fig17Partitioning),
		fixed("fig18", "Elastic storage under memory pressure", Fig18ElasticStorage),
		fixed("fig19", "LLM KV-cache passing TTFT", Fig19LLMTTFT),
		fixed("fig20a", "Data passing on a server without NVLink", Fig20aNoNVLink),
		fixed("fig20b", "Control-plane CPU overhead", Fig20bCPUOverhead),
		fixed("fig20c", "GPU memory overhead of storage", Fig20cMemoryOverhead),
		fixed("ext-coldstart", "Extension: function pre-warming sensitivity", ExtColdStart),
		fixed("ext-spatial", "Extension: spatial GPU sharing contention", ExtSpatialSharing),
		fixed("ext-faults", "Extension: self-healing transfers under link faults", ExtFaults),
		fixed("ext-fanout", "Extension: fan-out transfer coalescing", ExtFanout),
		sized("ext-router", "Extension: gateway-grade routed admission vs placement-only", 10_000, RouterTable),
		sized("ext-scale", "Extension: trace replay at scale with batched admission", 10_000, ScaleTable),
		// The table is identical for any shard count; 2 runs the parallel engine.
		sized("ext-scale-shard", "Extension: scale-out fleet replay on the sharded engine", 10_000,
			func(n int) *Table { return ShardedScaleTable(n, 2) }),
		sized("ext-elastic", "Extension: elastic instance pools, GPU-seconds vs p99 per strategy", 10_000, ElasticTable),
		sized("ext-pd", "Extension: prefill/decode disaggregation over the data plane", 2_000, PDTable),
		sized("ext-slo", "Extension: SLO-aware admission control and session affinity", 10_000, SLOTable),
	}
}

// ByID returns the experiment with the given ID, or nil.
func ByID(id string) *Experiment {
	for _, e := range All() {
		if e.ID == id {
			e := e
			return &e
		}
	}
	return nil
}

// IDs returns all experiment IDs in order.
func IDs() []string {
	var out []string
	for _, e := range All() {
		out = append(out, e.ID)
	}
	return out
}

// --- shared helpers ---

// planeMaker builds a plane on a fabric.
type planeMaker struct {
	name string
	mk   func(f *fabric.Fabric) dataplane.Plane
}

// systems returns the four comparison systems in paper order.
func systems(seed int64) []planeMaker {
	return []planeMaker{
		{"infless+", func(f *fabric.Fabric) dataplane.Plane { return baselines.NewINFless(f) }},
		{"nvshmem+", func(f *fabric.Fabric) dataplane.Plane { return baselines.NewNVShmem(f, seed) }},
		{"deepplan+", func(f *fabric.Fabric) dataplane.Plane { return baselines.NewDeepPlan(f, seed) }},
		{"grouter", func(f *fabric.Fabric) dataplane.Plane { return core.New(f, core.FullConfig()) }},
	}
}

// ms formats a duration in milliseconds.
func ms(d time.Duration) string { return fmt.Sprintf("%.2f", float64(d)/float64(time.Millisecond)) }

// pct formats a fraction as a percentage.
func pct(f float64) string { return fmt.Sprintf("%.0f%%", f*100) }

// ratio formats a speedup factor.
func ratio(f float64) string { return fmt.Sprintf("%.2fx", f) }

// mib formats bytes in MiB.
func mib(b int64) string { return fmt.Sprintf("%.0f", float64(b)/float64(1<<20)) }

// passOnce performs rounds Put+Get exchanges between src and dst on a fresh
// cluster (with one warm-up) and returns the mean latency.
func passOnce(mk planeMaker, spec *topology.Spec, nodes int, src, dst fabric.Location, bytes int64, rounds int) time.Duration {
	e := sim.NewEngine()
	defer e.Close()
	f := fabric.New(e, spec, nodes)
	pl := mk.mk(f)
	var mean time.Duration
	e.Go("pass", func(p *sim.Proc) {
		prod := &dataplane.FnCtx{Fn: "up", Workflow: "micro", Loc: src}
		cons := &dataplane.FnCtx{Fn: "down", Workflow: "micro", Loc: dst}
		once := func() {
			ref, err := pl.Put(p, prod, bytes)
			if err != nil {
				panic(err)
			}
			if err := pl.Get(p, cons, ref); err != nil {
				panic(err)
			}
			pl.Free(ref)
		}
		once() // warm pools
		start := p.Now()
		for i := 0; i < rounds; i++ {
			once()
		}
		mean = (p.Now() - start) / time.Duration(rounds)
	})
	e.Run(0)
	return mean
}

// appPlaneStats exposes the data-plane counters behind a cluster app.
func appPlaneStats(app *cluster.App) *dataplane.Stats { return app.C.Plane.Stats() }

// fabric0 names a GPU location on node `node`.
func fabric0(node, gpu int) fabric.Location { return fabric.Location{Node: node, GPU: gpu} }

// fabricHost names host memory on node `node`.
func fabricHost(node int) fabric.Location { return fabric.Location{Node: node, GPU: fabric.HostGPU} }
