// Package topology models GPU server and cluster interconnect topologies:
// NVLink meshes and NVSwitch fabrics, PCIe switches shared between GPUs, and
// NICs, with per-direction link bandwidths.
//
// A topology is a directed graph of capacity-annotated links. Higher layers
// (netsim, xfer) treat a transfer as a flow over an ordered list of LinkIDs,
// the dense integer handles this package gives every link of a cluster. It
// also owns the links' names and the enumeration of paths between endpoints
// (GPU↔GPU over NVLink, GPU↔host over PCIe, GPU↔NIC for GPUDirect-RDMA-style
// cross-node transfers).
package topology

import (
	"fmt"
	"sort"
)

// GB is one gigabyte in bytes.
const GB = int64(1) << 30

// GBps converts GB/s to bytes per second.
func GBps(x float64) float64 { return x * 1e9 }

// Gbps converts Gb/s (network convention) to bytes per second.
func Gbps(x float64) float64 { return x * 1e9 / 8 }

// Spec describes one GPU server model.
type Spec struct {
	Name    string
	NumGPUs int

	GPUMemBytes  int64
	HostMemBytes int64

	// NVAdj[i][j] is the direct NVLink bandwidth between GPU i and GPU j in
	// bytes/s per direction (0 = no direct NVLink). It must be symmetric.
	// Ignored when Switched is true.
	NVAdj [][]float64

	// Switched marks an NVSwitch fabric: every GPU pair communicates at
	// SwitchPortBps through the switch, and there is no multi-hop NVLink
	// routing (the switch is the single path).
	Switched      bool
	SwitchPortBps float64

	// PCIeGroup[i] is the PCIe switch index GPU i attaches to.
	PCIeGroup []int
	// PCIeBps is the per-direction bandwidth of both a GPU's x16 link and a
	// switch's host uplink.
	PCIeBps float64

	// NICCount NICs of NICBps each; NICGroup[k] is the PCIe switch NIC k
	// attaches to, and GPUNIC[i] is GPU i's nearest NIC.
	NICCount int
	NICBps   float64
	NICGroup []int
	GPUNIC   []int
}

// Validate checks internal consistency.
func (s *Spec) Validate() error {
	if s.NumGPUs <= 0 {
		return fmt.Errorf("topology %s: NumGPUs = %d", s.Name, s.NumGPUs)
	}
	if len(s.PCIeGroup) != s.NumGPUs {
		return fmt.Errorf("topology %s: PCIeGroup has %d entries, want %d", s.Name, len(s.PCIeGroup), s.NumGPUs)
	}
	if len(s.GPUNIC) != s.NumGPUs {
		return fmt.Errorf("topology %s: GPUNIC has %d entries, want %d", s.Name, len(s.GPUNIC), s.NumGPUs)
	}
	if len(s.NICGroup) != s.NICCount {
		return fmt.Errorf("topology %s: NICGroup has %d entries, want %d", s.Name, len(s.NICGroup), s.NICCount)
	}
	for i, k := range s.GPUNIC {
		if k < 0 || k >= s.NICCount {
			return fmt.Errorf("topology %s: GPU %d nearest NIC %d out of range", s.Name, i, k)
		}
	}
	if !s.Switched {
		if len(s.NVAdj) != s.NumGPUs {
			return fmt.Errorf("topology %s: NVAdj has %d rows, want %d", s.Name, len(s.NVAdj), s.NumGPUs)
		}
		for i := range s.NVAdj {
			if len(s.NVAdj[i]) != s.NumGPUs {
				return fmt.Errorf("topology %s: NVAdj row %d has %d cols", s.Name, i, len(s.NVAdj[i]))
			}
			for j := range s.NVAdj[i] {
				if s.NVAdj[i][j] != s.NVAdj[j][i] {
					return fmt.Errorf("topology %s: NVAdj not symmetric at (%d,%d)", s.Name, i, j)
				}
				if i == j && s.NVAdj[i][j] != 0 {
					return fmt.Errorf("topology %s: NVAdj self loop at %d", s.Name, i)
				}
			}
		}
	}
	return nil
}

// NVLinkBps returns the direct NVLink bandwidth between GPUs i and j in
// bytes/s per direction, or 0 if they are not directly connected. On switched
// fabrics every distinct pair is connected at the port bandwidth.
func (s *Spec) NVLinkBps(i, j int) float64 {
	if i == j {
		return 0
	}
	if s.Switched {
		return s.SwitchPortBps
	}
	return s.NVAdj[i][j]
}

// HasNVLink reports whether the topology has any NVLink connectivity at all.
func (s *Spec) HasNVLink() bool {
	if s.Switched {
		return s.SwitchPortBps > 0
	}
	for i := range s.NVAdj {
		for _, b := range s.NVAdj[i] {
			if b > 0 {
				return true
			}
		}
	}
	return false
}

// SwitchPeers returns the GPUs (other than g) that share g's PCIe switch.
func (s *Spec) SwitchPeers(g int) []int {
	var peers []int
	for i := 0; i < s.NumGPUs; i++ {
		if i != g && s.PCIeGroup[i] == s.PCIeGroup[g] {
			peers = append(peers, i)
		}
	}
	return peers
}

// nvlinkMesh builds a symmetric adjacency matrix from (i, j, GB/s) triples.
func nvlinkMesh(n int, edges [][3]float64) [][]float64 {
	adj := make([][]float64, n)
	for i := range adj {
		adj[i] = make([]float64, n)
	}
	for _, e := range edges {
		i, j := int(e[0]), int(e[1])
		adj[i][j] = GBps(e[2])
		adj[j][i] = GBps(e[2])
	}
	return adj
}

// DGXV100 returns the asymmetric hybrid-cube-mesh topology of a DGX-V100
// (p3.16xlarge-style) server: 8 GPUs with 6 NVLink2 bricks each (24 GB/s per
// brick per direction), two fully connected quads with doubled diagonals and
// doubled cube edges, 4 PCIe switches each shared by two GPUs, and 4×100 Gb
// NICs (one per switch).
//
// The resulting pair distribution matches the paper's Fig. 6(a): 8/28 pairs
// (28%) have a single brick (half bandwidth), 12/28 (42%) have no direct
// NVLink, and the rest have two bricks.
func DGXV100() *Spec {
	edges := [][3]float64{
		// quad 0: full mesh, diagonals doubled
		{0, 1, 24}, {0, 2, 24}, {0, 3, 48},
		{1, 2, 48}, {1, 3, 24},
		{2, 3, 24},
		// quad 1: mirror of quad 0
		{4, 5, 24}, {4, 6, 24}, {4, 7, 48},
		{5, 6, 48}, {5, 7, 24},
		{6, 7, 24},
		// cube edges between quads, doubled
		{0, 4, 48}, {1, 5, 48}, {2, 6, 48}, {3, 7, 48},
	}
	return &Spec{
		Name:         "dgx-v100",
		NumGPUs:      8,
		GPUMemBytes:  16 * GB,
		HostMemBytes: 244 * GB,
		NVAdj:        nvlinkMesh(8, edges),
		PCIeGroup:    []int{0, 0, 1, 1, 2, 2, 3, 3},
		PCIeBps:      GBps(12), // PCIe 3.0 x16 effective
		NICCount:     4,
		NICBps:       Gbps(100),
		NICGroup:     []int{0, 1, 2, 3},
		GPUNIC:       []int{0, 0, 1, 1, 2, 2, 3, 3},
	}
}

// DGXA100 returns the NVSwitch topology of a DGX-A100 (p4d.24xlarge-style)
// server: 8 GPUs all-to-all at 300 GB/s through NVSwitch, PCIe 4.0, and
// 8×200 Gb NICs (one per GPU, two per PCIe switch).
func DGXA100() *Spec {
	return &Spec{
		Name:          "dgx-a100",
		NumGPUs:       8,
		GPUMemBytes:   40 * GB,
		HostMemBytes:  1152 * GB,
		Switched:      true,
		SwitchPortBps: GBps(300),
		PCIeGroup:     []int{0, 0, 1, 1, 2, 2, 3, 3},
		PCIeBps:       GBps(24), // PCIe 4.0 x16 effective
		NICCount:      8,
		NICBps:        Gbps(200),
		NICGroup:      []int{0, 0, 1, 1, 2, 2, 3, 3},
		GPUNIC:        []int{0, 1, 2, 3, 4, 5, 6, 7},
	}
}

// H800x8 returns an 8×H800 node as used for the LLM experiments: NVSwitch at
// 200 GB/s per port and 8×200 Gb NICs.
func H800x8() *Spec {
	return &Spec{
		Name:          "h800x8",
		NumGPUs:       8,
		GPUMemBytes:   80 * GB,
		HostMemBytes:  2048 * GB,
		Switched:      true,
		SwitchPortBps: GBps(200),
		PCIeGroup:     []int{0, 0, 1, 1, 2, 2, 3, 3},
		PCIeBps:       GBps(50), // PCIe 5.0 x16 effective
		NICCount:      8,
		NICBps:        Gbps(200),
		NICGroup:      []int{0, 0, 1, 1, 2, 2, 3, 3},
		GPUNIC:        []int{0, 1, 2, 3, 4, 5, 6, 7},
	}
}

// QuadA10 returns a 4×A10 server with no NVLink: all GPU-to-GPU traffic
// crosses PCIe through the host root complex.
func QuadA10() *Spec {
	adj := make([][]float64, 4)
	for i := range adj {
		adj[i] = make([]float64, 4)
	}
	return &Spec{
		Name:         "quad-a10",
		NumGPUs:      4,
		GPUMemBytes:  24 * GB,
		HostMemBytes: 256 * GB,
		NVAdj:        adj,
		PCIeGroup:    []int{0, 1, 2, 3},
		PCIeBps:      GBps(20), // PCIe 4.0 x16 effective
		NICCount:     2,
		NICBps:       Gbps(100),
		NICGroup:     []int{0, 2},
		GPUNIC:       []int{0, 0, 1, 1},
	}
}

// SpecByName returns the named builtin spec, or nil.
func SpecByName(name string) *Spec {
	switch name {
	case "dgx-v100":
		return DGXV100()
	case "dgx-a100":
		return DGXA100()
	case "h800x8":
		return H800x8()
	case "quad-a10":
		return QuadA10()
	}
	return nil
}

// PairClass classifies a GPU pair's direct connectivity.
type PairClass int

const (
	// PairNoNVLink means the pair must use PCIe (or multi-hop NVLink).
	PairNoNVLink PairClass = iota
	// PairSingle is a single-brick (half-bandwidth) NVLink pair.
	PairSingle
	// PairDouble is a double-brick (full-bandwidth) NVLink pair.
	PairDouble
)

// PairClasses returns, for every unordered GPU pair, its connectivity class,
// using the maximum per-pair NVLink bandwidth in the spec as "full".
func (s *Spec) PairClasses() map[PairClass]int {
	max := 0.0
	for i := 0; i < s.NumGPUs; i++ {
		for j := i + 1; j < s.NumGPUs; j++ {
			if b := s.NVLinkBps(i, j); b > max {
				max = b
			}
		}
	}
	out := map[PairClass]int{}
	for i := 0; i < s.NumGPUs; i++ {
		for j := i + 1; j < s.NumGPUs; j++ {
			switch b := s.NVLinkBps(i, j); {
			case b == 0:
				out[PairNoNVLink]++
			case b < max:
				out[PairSingle]++
			default:
				out[PairDouble]++
			}
		}
	}
	return out
}

// NVNeighbors returns GPUs directly connected to g by NVLink, sorted.
func (s *Spec) NVNeighbors(g int) []int {
	var out []int
	for j := 0; j < s.NumGPUs; j++ {
		if s.NVLinkBps(g, j) > 0 {
			out = append(out, j)
		}
	}
	sort.Ints(out)
	return out
}
