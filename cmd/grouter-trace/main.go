// Command grouter-trace generates and summarizes Azure-like invocation
// traces with the three arrival patterns the paper samples (sporadic,
// periodic, bursty).
//
// Usage:
//
//	grouter-trace -pattern bursty -rps 20 -dur 60s -seed 7
//	grouter-trace -pattern periodic -rps 10 -dur 2m -emit
package main

import (
	"bufio"
	"flag"
	"fmt"
	"math"
	"os"
	"time"

	"grouter/internal/trace"
)

func main() {
	pattern := flag.String("pattern", "bursty", "arrival pattern: sporadic, periodic, bursty")
	rps := flag.Float64("rps", 10, "mean request rate")
	dur := flag.Duration("dur", time.Minute, "trace duration")
	seed := flag.Int64("seed", 1, "random seed")
	emit := flag.Bool("emit", false, "print every arrival offset (seconds), one per line")
	flag.Parse()

	if *rps < 0 || math.IsNaN(*rps) || math.IsInf(*rps, 0) {
		fail("-rps must be a finite, non-negative rate, got %v", *rps)
	}
	if *dur < 0 {
		fail("-dur must be non-negative, got %v", *dur)
	}
	p, err := trace.ParsePattern(*pattern)
	if err != nil {
		fail("%v", err)
	}
	spec := trace.Spec{Pattern: p, Duration: *dur, MeanRPS: *rps, Seed: *seed}
	if spec.Draws() > trace.MaxDraws {
		fail("-rps × -dur must draw at most %d arrivals on average, got about %.3g (-rps %v, -dur %v)",
			trace.MaxDraws, spec.Draws(), *rps, *dur)
	}
	arrivals := trace.Generate(spec)
	st := trace.Summarize(arrivals, *dur)
	// One write call per buffer, not per line: -emit prints every arrival.
	out := bufio.NewWriter(os.Stdout)
	fmt.Fprintf(out, "pattern=%s dur=%v seed=%d\n", p, *dur, *seed)
	fmt.Fprintf(out, "arrivals=%d mean=%.2f req/s peak(1s)=%.0f req/s cv=%.2f\n",
		st.Count, st.Mean, st.PeakRPS, st.CV)
	if *emit {
		for _, a := range arrivals {
			fmt.Fprintf(out, "%.6f\n", a.Seconds())
		}
	}
	if err := out.Flush(); err != nil {
		fail("writing output: %v", err)
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "grouter-trace: "+format+"\n", args...)
	os.Exit(2)
}
