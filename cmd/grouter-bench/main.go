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
)

func main() {
	list := flag.Bool("list", false, "list experiment IDs and exit")
	run := flag.String("run", "all", "experiment ID to run, a comma-separated list of IDs, or 'all'")
	asJSON := flag.Bool("json", false, "emit results as JSON instead of tables")
	requests := flag.Int("requests", 0, "the request count of every experiment -run names (only ext-router, ext-scale, ext-scale-shard, ext-elastic, ext-pd and ext-slo take one; without the flag they run at their default sizes)")
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
	if sized && *requests < 1 {
		fmt.Fprintf(os.Stderr, "grouter-bench: -requests must be at least 1, got %d\n", *requests)
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
	}
}
