// Command grouter-topo inspects the builtin GPU server topologies: NVLink
// adjacency, PCIe switch groups, NIC placement, pair-connectivity classes,
// and parallel NVLink paths between a GPU pair.
//
// Usage:
//
//	grouter-topo -spec dgx-v100
//	grouter-topo -spec dgx-v100 -paths 0,5 -hops 3
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"grouter/internal/topology"
)

func main() {
	specName := flag.String("spec", "dgx-v100", "topology: dgx-v100, dgx-a100, h800x8, quad-a10")
	pair := flag.String("paths", "", "GPU pair 'src,dst' to enumerate NVLink paths for")
	hops := flag.Int("hops", 3, "max hops for path enumeration")
	flag.Parse()

	spec := topology.SpecByName(*specName)
	if spec == nil {
		fmt.Fprintf(os.Stderr, "grouter-topo: unknown spec %q\n", *specName)
		os.Exit(2)
	}
	if *hops < 1 {
		fmt.Fprintf(os.Stderr, "grouter-topo: -hops must be at least 1, got %d\n", *hops)
		os.Exit(2)
	}
	src, dst := -1, -1
	if *pair != "" {
		a, b, _ := strings.Cut(*pair, ",")
		var err1, err2 error
		src, err1 = strconv.Atoi(strings.TrimSpace(a))
		dst, err2 = strconv.Atoi(strings.TrimSpace(b))
		if err1 != nil || err2 != nil || src < 0 || dst < 0 || src >= spec.NumGPUs || dst >= spec.NumGPUs || src == dst {
			fmt.Fprintf(os.Stderr, "grouter-topo: -paths must be 'src,dst', two distinct GPUs of %s (0..%d), got %q\n", spec.Name, spec.NumGPUs-1, *pair)
			os.Exit(2)
		}
	}

	fmt.Printf("topology %s: %d GPUs, %s HBM each, %s host memory\n",
		spec.Name, spec.NumGPUs, gib(spec.GPUMemBytes), gib(spec.HostMemBytes))
	fmt.Printf("PCIe: %.0f GB/s per link, switch groups %v\n", spec.PCIeBps/1e9, spec.PCIeGroup)
	fmt.Printf("NICs: %d x %.0f Gb/s, groups %v, nearest per GPU %v\n",
		spec.NICCount, spec.NICBps*8/1e9, spec.NICGroup, spec.GPUNIC)

	if spec.Switched {
		fmt.Printf("NVSwitch fabric: all pairs at %.0f GB/s\n", spec.SwitchPortBps/1e9)
	} else if spec.HasNVLink() {
		fmt.Println("NVLink adjacency (GB/s):")
		fmt.Print("     ")
		for j := 0; j < spec.NumGPUs; j++ {
			fmt.Printf("%5d", j)
		}
		fmt.Println()
		for i := 0; i < spec.NumGPUs; i++ {
			fmt.Printf("%5d", i)
			for j := 0; j < spec.NumGPUs; j++ {
				fmt.Printf("%5.0f", spec.NVAdj[i][j]/1e9)
			}
			fmt.Println()
		}
		classes := spec.PairClasses()
		total := classes[topology.PairDouble] + classes[topology.PairSingle] + classes[topology.PairNoNVLink]
		fmt.Printf("pairs: %d double, %d single, %d without NVLink (of %d)\n",
			classes[topology.PairDouble], classes[topology.PairSingle], classes[topology.PairNoNVLink], total)
	} else {
		fmt.Println("no NVLink: all GPU-to-GPU traffic crosses PCIe")
	}

	if *pair != "" {
		node := topology.NewCluster(spec, 1).Node(0)
		paths := node.NVLinkPaths(src, dst, *hops)
		fmt.Printf("NVLink paths %d→%d (≤%d hops): %d\n", src, dst, *hops, len(paths))
		for _, p := range paths {
			fmt.Printf("  %v  bottleneck %.0f GB/s\n", p, node.PathBandwidth(p)/1e9)
		}
	}
}

func gib(b int64) string { return fmt.Sprintf("%d GiB", b>>30) }
