package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// benchSpec is BENCHMARK.json at the repository root.
type benchSpec struct {
	Command   []string `json:"command"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// runLog maps workload → metric → the values of every run in a log.
type runLog map[string]map[string][]float64

// readLog collects the result lines of a file of benchmark output: each
// JSON result line belongs to the workload named by the "== name" header
// before it.
func readLog(path string) (runLog, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	log := runLog{}
	cur := ""
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "== "):
			cur = strings.Fields(line)[1]
		case strings.HasPrefix(line, "{") && cur != "":
			var r jsonResult
			if err := json.Unmarshal([]byte(line), &r); err != nil {
				return nil, fmt.Errorf("%s: %w", path, err)
			}
			if log[cur] == nil {
				log[cur] = map[string][]float64{}
			}
			for k, m := range r.Metrics {
				log[cur][k] = append(log[cur][k], m.Value)
			}
		}
	}
	return log, sc.Err()
}

// compareLogs prints, for every (workload, metric) pair found in both logs,
// each side's median and quartiles and, for end-to-end metrics, whether the
// second side is no worse than the first by more than the bound in
// BENCHMARK.json. It returns the process exit code: 1 if any end-to-end
// metric regressed beyond its bound.
func compareLogs(w io.Writer, specPath string, files []string) int {
	if len(files) != 2 {
		fmt.Fprintln(os.Stderr, "bench: -compare needs two files of benchmark output")
		return 2
	}
	spec, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	var logs [2]runLog
	for i, f := range files {
		if logs[i], err = readLog(f); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
	}
	bounds := map[string]float64{}
	for _, m := range spec.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	names := map[string]bool{}
	for _, l := range logs {
		for wl := range l {
			names[wl] = true
		}
	}
	var wls []string
	for wl := range names {
		wls = append(wls, wl)
	}
	sort.Strings(wls)

	code := 0
	fmt.Fprintf(w, "%-16s %-38s %32s %32s %9s  %s\n", "workload", "metric", "A median [q1 q3] spread", "B median [q1 q3] spread", "change", "verdict")
	for _, wl := range wls {
		a, b := logs[0][wl], logs[1][wl]
		for _, group := range [][]metricDef{endToEnd, perLayer} {
			for _, d := range group {
				va, vb := a[d.name], b[d.name]
				if len(va) == 0 || len(vb) == 0 {
					continue
				}
				qa, qb := quartiles(va), quartiles(vb)
				change := ratio(qb[1]-qa[1], qa[1])
				verdict := ""
				if bound, ok := bounds[d.name]; ok {
					worse := change
					if d.better == "higher" {
						worse = -change
					}
					verdict = fmt.Sprintf("within bound %.3g", bound)
					if worse > bound {
						verdict = fmt.Sprintf("WORSE than bound %.3g", bound)
						code = 1
					}
					if spread(qa) > bound || spread(qb) > bound {
						verdict += ", spread wider than bound: unresolved"
					}
				}
				fmt.Fprintf(w, "%-16s %-38s %32s %32s %+8.2f%%  %s\n", wl, d.name, fmtQ(qa, len(va)), fmtQ(qb, len(vb)), 100*change, verdict)
			}
		}
	}
	return code
}

func fmtQ(q [3]float64, n int) string {
	return fmt.Sprintf("%.4g [%.4g %.4g] %.1f%% n=%d", q[1], q[0], q[2], 100*spread(q), n)
}

// spread is the interquartile distance as a share of the median.
func spread(q [3]float64) float64 { return ratio(q[2]-q[0], q[1]) }

// quartiles returns the first quartile, median and third quartile of xs the
// way Python's statistics.quantiles(xs, n=4) does (its default "exclusive"
// method); a single value is its own quartiles.
func quartiles(xs []float64) [3]float64 {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	if len(d) == 1 {
		return [3]float64{d[0], d[0], d[0]}
	}
	var q [3]float64
	m := len(d) + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > len(d)-1 {
			j = len(d) - 1
		}
		delta := float64(i*m - j*4)
		q[i-1] = (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q
}

// median is the middle value of xs (the mean of the middle two for an even
// count).
func median(xs []float64) float64 {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	n := len(d)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return d[n/2]
	}
	return (d[n/2-1] + d[n/2]) / 2
}
