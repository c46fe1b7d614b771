package netmodel

import (
	"fmt"
	"math/rand"
	"net/netip"
	"slices"
	"strings"
	"testing"
)

// internRandomTopo builds a seeded random connected topology with parallel
// links, loopbacks, and a minority of down nodes/links.
func internRandomTopo(rng *rand.Rand, n int) *Topology {
	topo := NewTopology()
	for i := 0; i < n; i++ {
		topo.AddNode(Node{
			Name:     fmt.Sprintf("r%02d", i),
			Loopback: netip.AddrFrom4([4]byte{10, 254, byte(i), 1}),
			Up:       rng.Intn(8) != 0,
		})
	}
	link := 0
	addLink := func(a, b int) {
		topo.AddLink(Link{
			A: fmt.Sprintf("r%02d", a), B: fmt.Sprintf("r%02d", b),
			AIface: fmt.Sprintf("eth%d", link), BIface: fmt.Sprintf("eth%d", link),
			CostAB: uint32(1 + rng.Intn(9)), CostBA: uint32(1 + rng.Intn(9)),
			Up: rng.Intn(8) != 0,
		})
		link++
	}
	for i := 0; i < n; i++ {
		addLink(i, (i+1)%n)
	}
	for i := 0; i < n; i++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a != b {
			addLink(a, b)
		}
	}
	return topo
}

// TestTopoIndexMatchesTopology is the CSR equivalence property: on seeded
// random topologies, the index's dense view must agree with the string-keyed
// Topology API — device table, link table, per-device adjacency (neighbors,
// costs, up state), and address ownership.
func TestTopoIndexMatchesTopology(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		topo := internRandomTopo(rng, 4+rng.Intn(20))
		ix := topo.Index()

		names := topo.NodeNames()
		if !slices.IsSorted(names) {
			t.Fatalf("seed %d: NodeNames not sorted", seed)
		}
		if ix.NumDevices() != len(names) {
			t.Fatalf("seed %d: NumDevices = %d, want %d", seed, ix.NumDevices(), len(names))
		}
		for i, name := range names {
			id, ok := ix.DevID(name)
			if !ok || id != DevID(i) {
				t.Fatalf("seed %d: DevID(%q) = %d,%v, want %d", seed, name, id, ok, i)
			}
			if ix.DevName(id) != name {
				t.Fatalf("seed %d: DevName(%d) = %q, want %q", seed, id, ix.DevName(id), name)
			}
			if ix.Node(id).Name != name {
				t.Fatalf("seed %d: Node(%d) is %q, want %q", seed, id, ix.Node(id).Name, name)
			}
		}

		if ix.NumLinks() != len(topo.Links()) {
			t.Fatalf("seed %d: NumLinks = %d, want %d", seed, ix.NumLinks(), len(topo.Links()))
		}
		for _, l := range topo.Links() {
			li, ok := ix.LinkIdxOf(l.ID())
			if !ok {
				t.Fatalf("seed %d: link %v not indexed", seed, l.ID())
			}
			if ix.LinkAt(li) != l {
				t.Fatalf("seed %d: LinkAt(%d) is not the live link for %v", seed, li, l.ID())
			}
			if ix.LinkIDAt(li) != l.ID() {
				t.Fatalf("seed %d: LinkIDAt(%d) = %v, want %v", seed, li, ix.LinkIDAt(li), l.ID())
			}
		}
		// LinkIdx order is LinkID.String() order.
		for i := 1; i < ix.NumLinks(); i++ {
			if ix.LinkIDAt(LinkIdx(i-1)).String() > ix.LinkIDAt(LinkIdx(i)).String() {
				t.Fatalf("seed %d: link order broken at %d", seed, i)
			}
		}

		// Per-device CSR adjacency vs Topology.neighbors. neighbors filters
		// down neighbor nodes and skips dead links only in its callers, so
		// compare against the up-edge subset of the CSR row.
		for _, name := range names {
			id, _ := ix.DevID(name)
			want := topo.neighbors(name)
			var got []neighbor
			lo, hi := ix.EdgeRange(id)
			for pos := lo; pos < hi; pos++ {
				nb := ix.Node(ix.EdgeDev(pos))
				if !nb.Up {
					continue
				}
				got = append(got, neighbor{
					Device: nb.Name,
					Link:   ix.EdgeLink(pos),
					Cost:   ix.EdgeCost(pos),
				})
				if up := ix.EdgeUp(pos); up != (ix.EdgeLink(pos).Up && nb.Up) {
					t.Fatalf("seed %d: EdgeUp(%d) = %v inconsistent", seed, pos, up)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("seed %d dev %s: %d CSR neighbors, want %d", seed, name, len(got), len(want))
			}
			for i := range want {
				if got[i].Device != want[i].Device || got[i].Link != want[i].Link || got[i].Cost != want[i].Cost {
					t.Fatalf("seed %d dev %s edge %d: got %+v, want %+v", seed, name, i, got[i], want[i])
				}
			}
		}

		// Address ownership: loopbacks and every link interface address.
		check := func(addr netip.Addr) {
			if !addr.IsValid() {
				return
			}
			wantOwner := topo.AddrOwner(addr)
			gotID := ix.AddrOwnerID(addr)
			if wantOwner == "" {
				if gotID != NoDev {
					t.Fatalf("seed %d: AddrOwnerID(%v) = %d, want NoDev", seed, addr, gotID)
				}
				return
			}
			if gotID == NoDev || ix.DevName(gotID) != wantOwner {
				t.Fatalf("seed %d: AddrOwnerID(%v) = %d, want owner %q", seed, addr, gotID, wantOwner)
			}
		}
		for _, n := range topo.Nodes() {
			check(n.Loopback)
		}
		for _, l := range topo.Links() {
			check(l.AAddr)
			check(l.BAddr)
		}
		check(netip.MustParseAddr("192.0.2.254")) // unowned
	}
}

// neighbors returns (neighbor device, link) pairs for every up link of an up
// device, sorted by neighbor name for determinism.
func (t *Topology) neighbors(device string) []neighbor {
	n := t.nodes[device]
	if n == nil || !n.Up {
		return nil
	}
	var out []neighbor
	for _, l := range t.byDevice[device] {
		if !l.Up {
			continue
		}
		other := l.A
		if l.A == device {
			other = l.B
		}
		if on := t.nodes[other]; on == nil || !on.Up {
			continue
		}
		out = append(out, neighbor{Device: other, Link: l, Cost: l.DirCost(device)})
	}
	slices.SortFunc(out, func(a, b neighbor) int {
		if a.Device != b.Device {
			return strings.Compare(a.Device, b.Device)
		}
		return strings.Compare(a.Link.ID().String(), b.Link.ID().String())
	})
	return out
}

// neighbor is one adjacency seen from a device.
type neighbor struct {
	Device string
	Link   *Link
	Cost   uint32 // cost of the directed edge device → Device
}
