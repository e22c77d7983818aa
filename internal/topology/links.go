package topology

import (
	"bytes"
	"slices"
	"strconv"
)

// LinkID is the handle of one directed link in a cluster. A cluster's N
// links are numbered 0..N-1 in the order of their names, so a handle indexes
// dense per-link tables directly and handle order is name order.
//
// A link's name is "n<node>." followed by its name within the node:
//
//	nv.<i>><j>          mesh NVLink GPU i → GPU j
//	nvsw.g<g>.out, .in  GPU g's NVSwitch injection and ejection ports
//	pcie.g<g>.up, .down GPU g's x16 link toward and from its PCIe switch
//	pcie.sw<s>.up, .down PCIe switch s's host uplink
//	nic<k>.tx, .rx      NIC k's transmit and receive sides
//
// Names are formatted on demand (Cluster.LinkName) and resolved only where a
// user names a link (Cluster.LinkByName).
type LinkID int32

// linkForm is the shape of a link within its node.
type linkForm uint8

const (
	formNVLink linkForm = iota
	formNVPortOut
	formNVPortIn
	formPCIeGPUUp
	formPCIeGPUDown
	formSwitchUp
	formSwitchDown
	formNICTx
	formNICRx
	numForms
)

// affix returns the text of a form's name before and after its first index.
func (f linkForm) affix() (string, string) {
	a := [numForms][2]string{{"nv.", ">"}, {"nvsw.g", ".out"}, {"nvsw.g", ".in"}, {"pcie.g", ".up"},
		{"pcie.g", ".down"}, {"pcie.sw", ".up"}, {"pcie.sw", ".down"}, {"nic", ".tx"}, {"nic", ".rx"}}[f]
	return a[0], a[1]
}

// nodeLink is one link of a node: its form, its GPU, switch or NIC index a,
// and for an NVLink the destination GPU b.
type nodeLink struct {
	form linkForm
	a, b int32
}

// appendName appends the link's name within its node.
func (l nodeLink) appendName(dst []byte) []byte {
	pre, post := l.form.affix()
	dst = strconv.AppendInt(append(dst, pre...), int64(l.a), 10)
	dst = append(dst, post...)
	if l.form == formNVLink {
		dst = strconv.AppendInt(dst, int64(l.b), 10)
	}
	return dst
}

// layout numbers the links of one node. Every node of a cluster has the
// same links, so one layout serves them all: a node's handles are its base
// plus the offsets here, which follow name order within the node.
type layout struct {
	links []nodeLink // by offset
	// off[form][i] is one more than the offset of a link, with i the
	// link's index a, or a*NumGPUs+b for an NVLink; 0 where the node has no
	// such link.
	off [numForms][]int32
}

// newLayout enumerates a node's links and numbers them in name order.
func newLayout(s *Spec) *layout {
	g := s.NumGPUs
	switches := 0
	for _, sw := range s.PCIeGroup {
		switches = max(switches, sw+1)
	}
	for _, sw := range s.NICGroup {
		switches = max(switches, sw+1)
	}
	lay := &layout{}
	for f, n := range [numForms]int{g * g, g, g, g, g, switches, switches, s.NICCount, s.NICCount} {
		lay.off[f] = make([]int32, n)
	}

	lay.links = make([]nodeLink, 0, g*g+2*g+2*switches+2*s.NICCount)
	// pair adds both directions of a link: forms come in (out, in) pairs.
	pair := func(f linkForm, a int) {
		lay.links = append(lay.links, nodeLink{form: f, a: int32(a)}, nodeLink{form: f + 1, a: int32(a)})
	}
	for i := 0; i < g; i++ {
		pair(formPCIeGPUUp, i)
		if s.Switched {
			pair(formNVPortOut, i)
			continue
		}
		for j := 0; j < g; j++ {
			if i != j && s.NVAdj[i][j] > 0 {
				lay.links = append(lay.links, nodeLink{form: formNVLink, a: int32(i), b: int32(j)})
			}
		}
	}
	for sw := 0; sw < switches; sw++ {
		if slices.Contains(s.PCIeGroup, sw) {
			pair(formSwitchUp, sw)
		}
	}
	for k := 0; k < s.NICCount; k++ {
		pair(formNICTx, k)
	}
	slices.SortFunc(lay.links, func(x, y nodeLink) int {
		var bx, by [32]byte
		return bytes.Compare(x.appendName(bx[:0]), y.appendName(by[:0]))
	})
	for o, l := range lay.links {
		i := l.a
		if l.form == formNVLink {
			i = l.a*int32(g) + l.b
		}
		lay.off[l.form][i] = int32(o) + 1
	}
	return lay
}

// NumLinks returns the number of directed links in the cluster: its handles
// are 0..NumLinks()-1.
func (c *Cluster) NumLinks() int { return len(c.ranked) * len(c.lay.links) }

// locate splits a handle into its node and its link within the node. It
// panics on a handle outside the cluster.
func (c *Cluster) locate(id LinkID) (*Node, nodeLink) {
	per := LinkID(len(c.lay.links))
	return c.ranked[id/per], c.lay.links[id%per]
}

// LinkBps returns a link's capacity in bytes per second.
func (c *Cluster) LinkBps(id LinkID) float64 {
	_, l := c.locate(id)
	switch s := c.Spec; l.form {
	case formNVLink:
		return s.NVAdj[l.a][l.b]
	case formNVPortOut, formNVPortIn:
		return s.SwitchPortBps
	case formNICTx, formNICRx:
		return s.NICBps
	}
	return c.Spec.PCIeBps
}

// appendLinkName appends a link's name.
func (c *Cluster) appendLinkName(dst []byte, id LinkID) []byte {
	nd, l := c.locate(id)
	dst = strconv.AppendInt(append(dst, 'n'), int64(nd.ID), 10)
	return l.appendName(append(dst, '.'))
}

// LinkName formats a link's name, such as "n0.nic1.tx" or "n1.nv.0>3", for
// display. It panics on a handle outside the cluster.
func (c *Cluster) LinkName(id LinkID) string {
	var buf [48]byte
	return string(c.appendLinkName(buf[:0], id))
}

// LinkByName resolves a link's name to its handle, reporting false when no
// link of the cluster has that name.
func (c *Cluster) LinkByName(name string) (LinkID, bool) {
	var buf [48]byte
	for id := LinkID(0); int(id) < c.NumLinks(); id++ {
		if string(c.appendLinkName(buf[:0], id)) == name {
			return id, true
		}
	}
	return -1, false
}

// link returns the node's handle of a link by form and index, panicking when
// the node has no such link.
func (n *Node) link(f linkForm, i int) LinkID {
	off := n.lay.off[f][i]
	if off == 0 {
		panic("topology: node " + strconv.Itoa(n.ID) + " has no such link")
	}
	return n.base + LinkID(off-1)
}
