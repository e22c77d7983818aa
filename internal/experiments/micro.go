package experiments

import (
	"fmt"
	"time"

	"grouter/internal/fabric"
	"grouter/internal/netsim"
	"grouter/internal/sim"
	"grouter/internal/topology"
)

// Fig13DataPassing reproduces Fig. 13: function-to-function data-passing
// latency for the three patterns (intra-node gFn-gFn, host-gFn, inter-node
// gFn-gFn) across data volumes and systems.
func Fig13DataPassing() *Table {
	sizes := []int64{1 << 20, 16 << 20, 64 << 20, 256 << 20, 1 << 30}
	patterns := []struct {
		name  string
		nodes int
		src   fabric.Location
		dst   fabric.Location
	}{
		{"intra-gfn-gfn", 1, fabric.Location{Node: 0, GPU: 0}, fabric.Location{Node: 0, GPU: 3}},
		{"host-gfn", 1, fabric.Location{Node: 0, GPU: fabric.HostGPU}, fabric.Location{Node: 0, GPU: 0}},
		{"inter-gfn-gfn", 2, fabric.Location{Node: 0, GPU: 2}, fabric.Location{Node: 1, GPU: 5}},
	}
	t := &Table{
		ID:      "fig13",
		Title:   "Data-passing latency (ms) on DGX-V100",
		Columns: []string{"pattern", "size(MiB)", "infless+", "nvshmem+", "deepplan+", "grouter", "reduction"},
	}
	for _, pat := range patterns {
		for _, size := range sizes {
			row := []string{pat.name, mib(size)}
			var best, grt time.Duration
			for _, sys := range systems(3) {
				lat := passOnce(sys, topology.DGXV100(), pat.nodes, pat.src, pat.dst, size, 3)
				row = append(row, ms(lat))
				if sys.name == "grouter" {
					grt = lat
				} else if best == 0 || lat < best {
					best = lat
				}
			}
			row = append(row, pct(1-grt.Seconds()/best.Seconds()))
			t.Rows = append(t.Rows, row)
		}
	}
	t.Notes = append(t.Notes,
		"paper: GROUTER cuts intra-node latency 75-95%, host-gFn 63-75%, inter-node 87-91%",
		"reduction column compares GROUTER against the best baseline per row")
	return t
}

// Fig6aPairBandwidth reproduces Fig. 6(a): the asymmetric point-to-point
// bandwidth distribution of a DGX-V100.
func Fig6aPairBandwidth() *Table {
	spec := topology.DGXV100()
	classes := spec.PairClasses()
	total := 0
	for _, c := range classes {
		total += c
	}
	// Measure one representative pair per class with a raw flow.
	measure := func(src, dst int) float64 {
		e := sim.NewEngine()
		defer e.Close()
		cl := topology.NewCluster(spec, 1)
		net := netsim.New(e, cl)
		n := cl.Node(0)
		var links []topology.LinkID
		if spec.NVLinkBps(src, dst) > 0 {
			links = n.AppendNVLinkPathLinks(nil, []int{src, dst})
		} else {
			links = n.AppendPCIeP2PLinks(nil, src, dst)
		}
		bytes := int64(1) << 30
		var elapsed time.Duration
		e.Go("bw", func(p *sim.Proc) {
			start := p.Now()
			f := net.Start("bw", links, float64(bytes), netsim.Options{})
			f.Done().Wait(p)
			elapsed = p.Now() - start
		})
		e.Run(0)
		return float64(bytes) / elapsed.Seconds() / 1e9
	}
	t := &Table{
		ID:      "fig6a",
		Title:   "DGX-V100 GPU-pair connectivity (28 unordered pairs)",
		Columns: []string{"class", "pairs", "share", "example", "measured GB/s"},
	}
	t.Rows = append(t.Rows,
		[]string{"double NVLink", fmt.Sprint(classes[topology.PairDouble]), pct(float64(classes[topology.PairDouble]) / float64(total)),
			"0-3", fmt.Sprintf("%.1f", measure(0, 3))},
		[]string{"single NVLink", fmt.Sprint(classes[topology.PairSingle]), pct(float64(classes[topology.PairSingle]) / float64(total)),
			"0-1", fmt.Sprintf("%.1f", measure(0, 1))},
		[]string{"no NVLink (PCIe)", fmt.Sprint(classes[topology.PairNoNVLink]), pct(float64(classes[topology.PairNoNVLink]) / float64(total)),
			"0-5", fmt.Sprintf("%.1f", measure(0, 5))},
	)
	t.Notes = append(t.Notes,
		"paper: 28% of pairs reach only half bandwidth, 42% lack direct NVLink",
	)
	return t
}

// Fig20aNoNVLink reproduces Fig. 20(a): gFn-gFn data passing on a 4×A10
// server without NVLink.
func Fig20aNoNVLink() *Table {
	sizes := []int64{16 << 20, 64 << 20, 256 << 20}
	src := fabric.Location{Node: 0, GPU: 0}
	dst := fabric.Location{Node: 0, GPU: 2}
	t := &Table{
		ID:      "fig20a",
		Title:   "gFn-gFn data passing (ms) on 4xA10 (no NVLink)",
		Columns: []string{"size(MiB)", "infless+", "nvshmem+", "deepplan+", "grouter", "reduction"},
	}
	for _, size := range sizes {
		row := []string{mib(size)}
		var best, grt time.Duration
		for _, sys := range systems(5) {
			lat := passOnce(sys, topology.QuadA10(), 1, src, dst, size, 4)
			row = append(row, ms(lat))
			if sys.name == "grouter" {
				grt = lat
			} else if best == 0 || lat < best {
				best = lat
			}
		}
		row = append(row, pct(1-grt.Seconds()/best.Seconds()))
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"paper: GROUTER reduces latency ~51% via placement awareness (one PCIe copy instead of two)")
	return t
}
