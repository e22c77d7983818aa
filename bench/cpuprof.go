package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"strings"
	"time"
)

// cpuShares charges every sample of a CPU profile to one layer: the
// innermost frame from grouter/internal/<layer>, or from the benchmark's own
// main package ("bench"). Library and runtime work is thus charged to the
// repo layer that called it; samples with no repo frame at all (GC, the
// scheduler) go to "runtime", and repo packages outside cpuLayers to
// "other". It reads the profile with `go tool pprof -traces`, so it needs
// only the Go toolchain. It returns each layer's share of the sampled time.
func cpuShares(profile string) (map[string]float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-traces", profile).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces: %w", err)
	}
	return parseTraces(out)
}

// parseTraces reads `go tool pprof -traces` output: blocks separated by
// "-----+-----" lines, each starting with the sample's value and leaf frame,
// followed by its callers one per line.
func parseTraces(out []byte) (map[string]float64, error) {
	known := map[string]bool{}
	for _, l := range cpuLayers {
		known[l] = true
	}
	byLayer := map[string]time.Duration{}
	var total, value time.Duration
	layer := ""
	inBlock := false
	flush := func() {
		if inBlock {
			if layer == "" {
				layer = "runtime"
			}
			byLayer[layer] += value
			total += value
		}
		inBlock, layer, value = false, "", 0
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----") {
			flush()
			inBlock = true
			continue
		}
		if !inBlock {
			continue // header
		}
		frame := strings.TrimSpace(line)
		if value == 0 {
			fields := strings.Fields(frame)
			if len(fields) < 2 {
				continue
			}
			d, err := time.ParseDuration(fields[0])
			if err != nil {
				return nil, fmt.Errorf("pprof trace value %q: %w", fields[0], err)
			}
			value = d
			frame = strings.Join(fields[1:], " ")
		}
		if layer == "" {
			layer = frameLayer(frame, known)
		}
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, err
	}
	shares := map[string]float64{}
	for _, l := range cpuLayers {
		shares[l] = ratio(float64(byLayer[l]), float64(total))
	}
	return shares, nil
}

// frameLayer maps one frame to its repo layer, or "" for a non-repo frame.
func frameLayer(frame string, known map[string]bool) string {
	if strings.HasPrefix(frame, "main.") {
		return "bench"
	}
	rest, ok := strings.CutPrefix(frame, "grouter/internal/")
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	if known[rest] {
		return rest
	}
	return "other"
}
