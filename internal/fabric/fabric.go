// Package fabric assembles a simulated GPU cluster: a topology's link graph
// registered in a flow-level network simulator, plus per-GPU and per-host
// memory devices and a shared pinned staging buffer per node.
//
// Fabric is the substrate every data plane in this repository runs on; it
// knows nothing about functions, workflows, or storage policy.
package fabric

import (
	"fmt"

	"grouter/internal/harvest"
	"grouter/internal/memsim"
	"grouter/internal/netsim"
	"grouter/internal/sim"
	"grouter/internal/topology"
)

// HostGPU is the Location.GPU value denoting host memory.
const HostGPU = -1

// Location identifies where a piece of data or a function lives.
type Location struct {
	Node int
	// GPU is the device index within the node, or HostGPU for host memory.
	GPU int
}

// IsHost reports whether the location is host memory.
func (l Location) IsHost() bool { return l.GPU == HostGPU }

func (l Location) String() string {
	if l.IsHost() {
		return fmt.Sprintf("n%d.host", l.Node)
	}
	return fmt.Sprintf("n%d.gpu%d", l.Node, l.GPU)
}

// NodeFabric is the simulated hardware of one server.
type NodeFabric struct {
	Node *topology.Node
	GPUs []*memsim.Device
	Host *memsim.Device
	// Pinned models the circular pinned host buffer shared by concurrent
	// PCIe transfers (§4.3.2 "batched data transfer").
	Pinned *memsim.ByteGate
}

// DefaultPinnedBufferBytes sizes each node's shared pinned staging buffer.
const DefaultPinnedBufferBytes = 2 * topology.GB

// Fabric is the simulated cluster.
type Fabric struct {
	Engine  *sim.Engine
	Cluster *topology.Cluster
	Net     *netsim.Network
	Nodes   []*NodeFabric
	// Routes holds the cluster's harvested candidate routes, built on first
	// use and shared by every data plane on the fabric.
	Routes *harvest.Routes

	// single memoizes SinglePath by source location, then destination.
	single [][]singlePath
}

// New builds a fabric of n nodes of the given spec on engine e.
func New(e *sim.Engine, spec *topology.Spec, n int) *Fabric {
	cluster := topology.NewCluster(spec, n)
	f := &Fabric{
		Engine:  e,
		Cluster: cluster,
		Net:     netsim.New(e, cluster),
		Routes:  harvest.NewRoutes(cluster),
	}
	for _, nd := range cluster.Nodes {
		nf := &NodeFabric{
			Node:   nd,
			Host:   memsim.NewDevice(fmt.Sprintf("n%d.host", nd.ID), spec.HostMemBytes),
			Pinned: memsim.NewByteGate(e, DefaultPinnedBufferBytes),
		}
		for g := 0; g < spec.NumGPUs; g++ {
			nf.GPUs = append(nf.GPUs, memsim.NewDevice(fmt.Sprintf("n%d.gpu%d", nd.ID, g), spec.GPUMemBytes))
		}
		f.Nodes = append(f.Nodes, nf)
	}
	return f
}

// Spec returns the cluster's server spec.
func (f *Fabric) Spec() *topology.Spec { return f.Cluster.Spec }

// NumNodes returns the node count.
func (f *Fabric) NumNodes() int { return len(f.Nodes) }

// NodeF returns node i's fabric.
func (f *Fabric) NodeF(i int) *NodeFabric { return f.Nodes[i] }

// Mem returns the memory device at a location.
func (f *Fabric) Mem(l Location) *memsim.Device {
	nf := f.Nodes[l.Node]
	if l.IsHost() {
		return nf.Host
	}
	return nf.GPUs[l.GPU]
}

// Topo returns node i's topology handle.
func (f *Fabric) Topo(i int) *topology.Node { return f.Cluster.Node(i) }
