package experiments

import (
	"fmt"
	"time"

	"grouter/internal/core"
	"grouter/internal/dataplane"
	"grouter/internal/fabric"
	"grouter/internal/metrics"
	"grouter/internal/sim"
	"grouter/internal/topology"
)

// fanoutResult is one fan-out run's outcome: how many payload bytes the
// producer GPU's own links carried (origin), total bytes moved anywhere, and
// the distribution of consumer Get latencies.
type fanoutResult struct {
	origin int64
	moved  int64
	lat    metrics.Latency
	co     dataplane.CoalesceStats
}

// runFanout puts `rounds` objects on node 0 GPU 0 and has `fanout` consumers
// — spread round-robin across the cluster's other GPUs — Get each one
// near-simultaneously (arrivals staggered by tens of microseconds, the jitter
// of a scheduler dispatching one DAG stage's replicas). With coalesce off,
// this is the repo's baseline behaviour: every consumer pulls from the
// producer. With it on, the Gets join, chain, and hit replicas.
func runFanout(spec *topology.Spec, nodes, fanout, rounds int, bytes int64, coalesce bool) fanoutResult {
	e := sim.NewEngine()
	defer e.Close()
	f := fabric.New(e, spec, nodes)
	cfg := core.FullConfig()
	cfg.Coalesce = coalesce
	pl := core.New(f, cfg)

	// Consumer locations: remote nodes first (node 1 GPU 0, 1, ...), then the
	// producer's node. This is the paper's ensemble shape — the next stage's
	// replicas land where there is free capacity, i.e. away from the producer
	// — and it puts the producer node's NIC on the naive hot path.
	var locs []fabric.Location
	for n := 1; n <= nodes && len(locs) < fanout; n++ {
		node := n % nodes
		for g := 0; g < spec.NumGPUs && len(locs) < fanout; g++ {
			if node == 0 && g == 0 {
				continue
			}
			locs = append(locs, fabric.Location{Node: node, GPU: g})
		}
	}

	res := fanoutResult{}
	prod := &dataplane.FnCtx{Fn: "producer", Workflow: "fanout", Loc: fabric.Location{Node: 0, GPU: 0}}
	e.Go("fanout", func(p *sim.Proc) {
		for round := 0; round < rounds; round++ {
			ref, err := pl.Put(p, prod, bytes)
			if err != nil {
				panic(err)
			}
			done := sim.NewSignal(e)
			finished := 0
			for i, loc := range locs {
				i, loc := i, loc
				e.Go("consume", func(cp *sim.Proc) {
					cp.Sleep(time.Duration(i) * 25 * time.Microsecond)
					cons := &dataplane.FnCtx{Fn: "consumer", Workflow: "fanout", Loc: loc}
					start := cp.Now()
					if err := pl.Get(cp, cons, ref); err != nil {
						panic(err)
					}
					res.lat.Add(cp.Now() - start)
					if finished++; finished == len(locs) {
						done.Fire()
					}
				})
			}
			done.Wait(p)
			pl.Free(ref)
			p.Sleep(time.Millisecond) // round gap
		}
	})
	e.Run(0)

	st := pl.Stats()
	res.co = st.Coalesce
	res.moved = st.BytesMoved
	if coalesce {
		res.origin = st.Coalesce.OriginBytes
	} else {
		// Without coalescing every Get pulls from the producer GPU.
		res.origin = st.BytesMoved
	}
	return res
}

// fanoutTopos are the two clusters the fan-out experiment runs on.
var fanoutTopos = []struct {
	name  string
	spec  func() *topology.Spec
	nodes int
}{
	{"dgx-v100 x2", topology.DGXV100, 2},
	{"h800x8 x2", topology.H800x8, 2},
}

// ExtFanout measures fan-out-aware transfer coalescing: N consumers of one
// 128 MiB object, naive (every consumer pulls from the producer) versus
// coalesced (join in-flight transfers, chain off replicas). The headline
// column is the bytes the producer GPU's links carry.
func ExtFanout() *Table {
	t := &Table{
		ID:      "ext-fanout",
		Title:   "Fan-out transfer coalescing (extension): N consumers of one 128 MiB object",
		Columns: []string{"topology", "fanout", "mode", "origin(MiB)", "saved", "p50(ms)", "p99(ms)"},
	}
	const (
		bytes  = 128 << 20
		rounds = 6
	)
	for _, topo := range fanoutTopos {
		for _, fanout := range []int{4, 8} {
			naive := runFanout(topo.spec(), topo.nodes, fanout, rounds, bytes, false)
			co := runFanout(topo.spec(), topo.nodes, fanout, rounds, bytes, true)
			saved := 1 - float64(co.origin)/float64(naive.origin)
			t.Rows = append(t.Rows,
				[]string{topo.name, fmt.Sprint(fanout), "naive",
					fmt.Sprintf("%d", naive.origin>>20), "-",
					ms(naive.lat.P(0.5)), ms(naive.lat.P(0.99))},
				[]string{topo.name, fmt.Sprint(fanout), "coalesced",
					fmt.Sprintf("%d", co.origin>>20), fmt.Sprintf("%.0f%%", saved*100),
					ms(co.lat.P(0.5)), ms(co.lat.P(0.99))})
		}
	}
	t.Notes = append(t.Notes,
		"extension (not a paper figure): same-object fan-out is the MoA/ensemble pattern of §2.2",
		"origin(MiB) is payload carried by the producer GPU's links; saved = 1 - coalesced/naive",
		"coalesced Gets join in-flight transfers (same dst), chain off in-flight copies (other",
		"dsts), or hit registered replicas; sources are scored by topology distance and free bw")
	return t
}
