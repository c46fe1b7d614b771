package netmodel

import (
	"fmt"
	"net/netip"
)

// IPProto is an IP protocol number (6 = TCP, 17 = UDP, ...).
type IPProto uint8

// Common IP protocol numbers.
const (
	ProtoTCP IPProto = 6
	ProtoUDP IPProto = 17
)

// Flow is a 5-tuple with the traffic volume reported by the traffic
// monitoring system between two reports, plus the ingress device where the
// flow enters the network.
type Flow struct {
	Src     netip.Addr
	Dst     netip.Addr
	SrcPort uint16
	DstPort uint16
	Proto   IPProto

	Ingress string  // device where the flow is injected
	Volume  float64 // bits per second
}

// Key identifies a flow independent of its volume.
type FlowKey struct {
	Src, Dst         netip.Addr
	SrcPort, DstPort uint16
	Proto            IPProto
	Ingress          string
}

// Key returns the identity of the flow.
func (f Flow) Key() FlowKey {
	return FlowKey{Src: f.Src, Dst: f.Dst, SrcPort: f.SrcPort, DstPort: f.DstPort, Proto: f.Proto, Ingress: f.Ingress}
}

func (f Flow) String() string {
	return fmt.Sprintf("%s:%d->%s:%d/%d @%s %.0fbps", f.Src, f.SrcPort, f.Dst, f.DstPort, f.Proto, f.Ingress, f.Volume)
}

// CompareFlows orders flows by destination address first (the §3.2 ordering
// heuristic for traffic subtask splitting), then by the remaining tuple for
// determinism.
func CompareFlows(a, b Flow) int {
	if c := a.Dst.Compare(b.Dst); c != 0 {
		return c
	}
	if c := a.Src.Compare(b.Src); c != 0 {
		return c
	}
	switch {
	case a.DstPort != b.DstPort:
		if a.DstPort < b.DstPort {
			return -1
		}
		return 1
	case a.SrcPort != b.SrcPort:
		if a.SrcPort < b.SrcPort {
			return -1
		}
		return 1
	case a.Proto != b.Proto:
		if a.Proto < b.Proto {
			return -1
		}
		return 1
	}
	switch {
	case a.Ingress < b.Ingress:
		return -1
	case a.Ingress > b.Ingress:
		return 1
	}
	return 0
}

// Hop is one step of a forwarding path.
type Hop struct {
	Device string
	Link   LinkID // link taken to reach the next hop; zero for the final hop
}

// Path is a forwarding path through the network. The final hop has a zero
// LinkID; Exit describes why forwarding stopped there.
type Path struct {
	Hops []Hop
	Exit ExitReason
}

// FlowPath pairs a flow with its simulated forwarding path.
type FlowPath struct {
	Flow Flow
	Path Path
}

// ExitReason explains how a simulated flow left the network (or why it was
// dropped).
type ExitReason uint8

// Exit reasons.
const (
	ExitDelivered ExitReason = iota // destination prefix is local to the last device
	ExitToPeer                      // handed to an external (eBGP) peer
	ExitNoRoute                     // no matching route: dropped
	ExitACLDenied                   // an ACL blocked the flow
	ExitLoop                        // forwarding loop detected
	ExitLinkDown                    // chosen link was down
)

func (e ExitReason) String() string {
	switch e {
	case ExitDelivered:
		return "delivered"
	case ExitToPeer:
		return "to-peer"
	case ExitNoRoute:
		return "no-route"
	case ExitACLDenied:
		return "acl-denied"
	case ExitLoop:
		return "loop"
	case ExitLinkDown:
		return "link-down"
	}
	return fmt.Sprintf("exit(%d)", uint8(e))
}

// Devices returns the sequence of device names along the path.
func (p Path) Devices() []string {
	out := make([]string, len(p.Hops))
	for i, h := range p.Hops {
		out[i] = h.Device
	}
	return out
}

// Traverses reports whether the path crosses the given link (in either
// direction).
func (p Path) Traverses(id LinkID) bool {
	for _, h := range p.Hops {
		if h.Link == id {
			return true
		}
	}
	return false
}

func (p Path) String() string {
	s := ""
	for i, h := range p.Hops {
		if i > 0 {
			s += "-"
		}
		s += h.Device
	}
	return s + " (" + p.Exit.String() + ")"
}

// LinkLoad is the simulated traffic volume on each link, in bits per second,
// summed over both directions per directed edge.
type LinkLoad map[LinkID]float64
