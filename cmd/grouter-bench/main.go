// Command grouter-bench runs the paper-reproduction experiments and prints
// each figure's rows together with paper-vs-measured notes.
//
// Usage:
//
//	grouter-bench -list
//	grouter-bench -run fig13
//	grouter-bench -run all
//	grouter-bench -run ext-scale -requests 100000
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"grouter/internal/experiments"
	"grouter/internal/metrics"
	"grouter/internal/netsim"
)

func main() {
	list := flag.Bool("list", false, "list experiment IDs and exit")
	run := flag.String("run", "all", "experiment ID to run, a comma-separated list of IDs, or 'all'")
	asJSON := flag.Bool("json", false, "emit results as JSON instead of tables")
	allocStats := flag.Bool("allocstats", false, "print netsim allocator work counters after the runs")
	faultStats := flag.Bool("faultstats", false, "print fault-injection and recovery counters after the runs")
	spanStats := flag.Bool("span-stats", false, "print a per-request critical-path latency breakdown and exit")
	routerStats := flag.Bool("router-stats", false, "replay the bursty pattern routed at -requests with a 10% QoSHigh mix and print the router's decision counters")
	pdStats := flag.Bool("pd-stats", false, "replay the disaggregation-friendly h800 cell at -requests and print the PD service and policy counters")
	requests := flag.Int("requests", 100_000, "request count of the -router-stats, -pd-stats and -shard-stats replays; given with -run, the size of every experiment it names (only ext-router, ext-scale, ext-scale-shard, ext-elastic, ext-pd and ext-slo take one; without the flag they run at their default sizes)")
	scaleShards := flag.Int("scale-shards", 0, "with -shard-stats: the engine shard count (default 4)")
	shardStats := flag.Bool("shard-stats", false, "replay the bursty fleet cell at -requests on -scale-shards shards and print wall-clock per-shard utilization (not part of any deterministic table)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	// Given explicitly, -requests sizes the experiments -run names.
	sized := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "requests" {
			sized = true
		}
	})
	if *requests < 0 {
		fmt.Fprintf(os.Stderr, "grouter-bench: -requests must be >= 0, got %d\n", *requests)
		os.Exit(2)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "grouter-bench: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "grouter-bench: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "grouter-bench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "grouter-bench: %v\n", err)
			}
		}()
	}

	if *spanStats {
		fmt.Println(experiments.SpanStatsTable().Format())
		return
	}
	if *shardStats {
		shards := *scaleShards
		if shards <= 0 {
			shards = 4
		}
		st := experiments.ShardedScaleRun(*requests, shards)
		fmt.Printf("sharded replay: %d requests, %d pods, %d shards, completed %d\n",
			st.Requests, st.Pods, st.Shards, st.Completed)
		fmt.Printf("  virtual: dur=%v tput=%.1f req/s p50=%v p99=%v\n",
			st.Duration.Round(time.Millisecond), st.Throughput, st.P50, st.P99)
		var busy, maxBusy time.Duration
		for _, u := range st.Util {
			fmt.Printf("  %s\n", u)
			busy += u.Busy
			if u.Busy > maxBusy {
				maxBusy = u.Busy
			}
		}
		fmt.Printf("  wall=%v", st.Wall.Round(time.Millisecond))
		if maxBusy > 0 {
			// busy/maxBusy is the speedup the window protocol admits on
			// enough cores: total work over the critical shard's work.
			fmt.Printf(" parallelism=%.2fx (total busy / max shard busy)", float64(busy)/float64(maxBusy))
		}
		fmt.Println()
		return
	}
	if *pdStats {
		st, ps, rs := experiments.PDStatsRun(*requests)
		fmt.Printf("pd replay (h800 x1, sporadic): %d requests, completed %d\n", st.Requests, st.Completed)
		fmt.Printf("  virtual: dur=%v tput=%.1f req/s p50=%v p99=%v\n",
			st.Duration.Round(time.Millisecond), st.Throughput, st.P50, st.P99)
		fmt.Printf("  service: colocated=%d disaggregated=%d collapsed=%d overflows=%d\n",
			ps.Colocated, ps.Disaggregated, ps.Collapsed, ps.Overflows)
		fmt.Printf("  handoff: kv-transfers=%d kv-bytes=%.1f GiB recomputes=%d\n",
			ps.KVTransfers, float64(ps.KVBytes)/float64(1<<30), ps.Recomputes)
		fmt.Printf("  policy: decisions=%d long=%d short=%d overflows=%d affinity=%d\n",
			rs.Decisions, rs.Long, rs.Short, rs.Overflows, rs.Affinity)
		return
	}
	if *routerStats {
		st, rs := experiments.RouterStatsRun(*requests)
		fmt.Printf("routed replay: %d requests (1 in 10 QoSHigh), completed %d\n", st.Requests, st.Completed)
		fmt.Printf("  virtual: dur=%v tput=%.1f req/s p50=%v p99=%v\n",
			st.Duration.Round(time.Millisecond), st.Throughput, st.P50, st.P99)
		fmt.Printf("  router: decisions=%d refreshes=%d failovers=%d retries=%d fallbacks=%d crashes=%d\n",
			rs.Decisions, rs.Refreshes, rs.Failovers, rs.Retries, rs.Fallbacks, rs.Crashes)
		return
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}

	var todo []experiments.Experiment
	if *run == "all" {
		todo = experiments.All()
	} else {
		for _, id := range strings.Split(*run, ",") {
			e := experiments.ByID(strings.TrimSpace(id))
			if e == nil {
				fmt.Fprintf(os.Stderr, "grouter-bench: unknown experiment %q (use -list)\n", id)
				os.Exit(2)
			}
			todo = append(todo, *e)
		}
	}
	if sized {
		for _, e := range todo {
			if e.Sized == nil {
				fmt.Fprintf(os.Stderr, "grouter-bench: experiment %s takes no -requests size\n", e.ID)
				os.Exit(2)
			}
		}
	}
	table := func(e experiments.Experiment) *experiments.Table {
		if sized {
			return e.Sized(*requests)
		}
		return e.Run()
	}
	if *asJSON {
		var results []*experiments.Table
		for _, e := range todo {
			results = append(results, table(e))
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			fmt.Fprintf(os.Stderr, "grouter-bench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	for _, e := range todo {
		start := time.Now()
		tbl := table(e)
		fmt.Println(tbl.Format())
		fmt.Printf("  (%s completed in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
		if *allocStats {
			fmt.Printf("  allocator: %s\n\n", netsim.Stats())
			netsim.Stats().Reset()
		}
		if *faultStats {
			fmt.Printf("  faults: %s\n\n", metrics.Faults())
			metrics.Faults().Reset()
		}
	}
}
