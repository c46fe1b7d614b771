package core

import (
	"context"
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"slices"
	"strings"
	"testing"

	"hoyan/internal/config"
	"hoyan/internal/gen"
	"hoyan/internal/netmodel"
)

// applyDelta makes a network reflect a delta before it is forked, as callers
// of Fork may.
func applyDelta(net *config.Network, d Delta) {
	if _, err := d.Apply(net); err != nil {
		panic(err)
	}
}

// assertIdentical fails unless the incremental and reference results agree
// byte-for-byte on RIBs, representative paths, and link loads.
func assertIdentical(t *testing.T, label string, inc, ref *Result) {
	t.Helper()
	incRIB, refRIB := inc.Routes.GlobalRIB(), ref.Routes.GlobalRIB()
	if !incRIB.Equal(refRIB) {
		onlyInc, onlyRef := incRIB.Diff(refRIB)
		t.Fatalf("%s: RIB mismatch: %d rows only incremental (e.g. %v), %d rows only reference (e.g. %v)",
			label, len(onlyInc), first(onlyInc), len(onlyRef), first(onlyRef))
	}
	if (inc.Traffic == nil) != (ref.Traffic == nil) {
		t.Fatalf("%s: traffic presence mismatch", label)
	}
	if inc.Traffic == nil {
		return
	}
	if !reflect.DeepEqual(inc.Traffic.Traffic.Paths, ref.Traffic.Traffic.Paths) {
		t.Fatalf("%s: representative paths differ", label)
	}
	if !reflect.DeepEqual(inc.Traffic.Traffic.Load, ref.Traffic.Traffic.Load) {
		t.Fatalf("%s: link loads differ", label)
	}
}

func first(rs []netmodel.Route) any {
	if len(rs) == 0 {
		return "-"
	}
	return rs[0]
}

// checkFork runs one delta three ways — incremental fork on a pre-toggled
// clone, the engine-applied what-if, and a from-scratch reference — and
// asserts byte-identity of the results and equal ForkStats for the two forks;
// with route ECs off, the fork's RIB must also be a stable state.
func checkFork(t *testing.T, eng *Engine, base *config.Network, inputs []netmodel.Route, flows []netmodel.Flow, d Delta, label string) ForkStats {
	t.Helper()
	scratch := base.Clone()
	applyDelta(scratch, d)
	inc, stats := eng.Fork(scratch, d)
	ref := NewEngine(scratch, eng.opts).Run(d.ApplyInputs(inputs), flows)
	assertIdentical(t, label, inc, ref)
	if eng.opts.DisableRouteECs {
		checkRIB(t, label, eng, scratch, d.ApplyInputs(inputs), inc.Routes.GlobalRIB())
	}

	whatIf, whatIfStats, err := eng.WhatIf(context.Background(), d, 0)
	if err != nil {
		t.Fatalf("%s: WhatIf: %v", label, err)
	}
	assertIdentical(t, label+" (engine-applied)", whatIf, ref)
	if whatIfStats != stats {
		t.Fatalf("%s: WhatIf stats %+v, Fork on a pre-toggled clone %+v", label, whatIfStats, stats)
	}
	return stats
}

// TestDeltaApply pins the one rule for making a network agree with a delta:
// only elements not yet in their target state flip, undo flips exactly those
// back, and applying twice is applying once — for topology flips and
// configuration swaps alike. A configuration that changes the topology
// derives it again, and a toggle naming an element the network does not
// have changes nothing.
func TestDeltaApply(t *testing.T) {
	out := gen.Generate(gen.WAN(1))
	links := out.Net.Topo.Links()
	wasDown, wasUp, node := links[0].ID(), links[1].ID(), links[2].A
	out.Net.Topo.SetLinkUp(wasDown, false)
	state := func() [3]bool {
		return [3]bool{out.Net.Topo.Link(wasDown).Up, out.Net.Topo.Link(wasUp).Up, out.Net.Topo.Node(node).Up}
	}
	before := state()

	d := Delta{LinksDown: []netmodel.LinkID{wasDown, wasUp}, NodesDown: []string{node}}
	undo, err := d.Apply(out.Net)
	if err != nil {
		t.Fatal(err)
	}
	if got := state(); got != [3]bool{false, false, false} {
		t.Fatalf("after Apply: %v, want everything down", got)
	}
	undoAgain, err := d.Apply(out.Net)
	if err != nil {
		t.Fatal(err)
	}
	undoAgain()
	if got := state(); got != [3]bool{false, false, false} {
		t.Fatalf("a second Apply flipped nothing, yet its undo changed the network: %v", got)
	}
	undo()
	if got := state(); got != before {
		t.Fatalf("after undo: %v, want %v (the link that was down stays down)", got, before)
	}

	bogus := wasUp
	bogus.BIface = "no-such-iface"
	for _, bad := range []Delta{
		{LinksDown: []netmodel.LinkID{wasUp, bogus}},
		{LinksUp: []netmodel.LinkID{wasDown}, NodesUp: []string{"no-such-device"}},
	} {
		if _, err := bad.Apply(out.Net); err == nil {
			t.Fatalf("Apply(%+v) accepted an unknown element", bad)
		}
		if got := state(); got != before {
			t.Fatalf("a rejected Apply(%+v) left the network at %v, want %v", bad, got, before)
		}
	}

	was := out.Net.Devices[node]
	cfg := Delta{Configs: map[string]*config.Device{node: was.Clone()}}
	undo, err = cfg.Apply(out.Net)
	if err != nil {
		t.Fatal(err)
	}
	if out.Net.Devices[node] != cfg.Configs[node] {
		t.Fatal("Apply did not install the new configuration")
	}
	undoAgain, err = cfg.Apply(out.Net)
	if err != nil {
		t.Fatal(err)
	}
	undoAgain()
	if out.Net.Devices[node] != cfg.Configs[node] {
		t.Fatal("a second Apply changed nothing, yet its undo swapped the configuration back")
	}
	undo()
	if out.Net.Devices[node] != was {
		t.Fatal("undo did not restore the original configuration")
	}
	// A configuration that changes what the topology derives (here an IS-IS
	// cost) derives it again, the link that was down still down; undo puts
	// the old *Topology back. A toggle the new topology does not have is
	// refused, and the network left as it was.
	topo, recost := out.Net.Topo, was.Clone()
	recost.Interfaces[links[2].AIface].ISISCost += 7
	for _, d := range []Delta{
		{Configs: map[string]*config.Device{node: recost}, LinksDown: []netmodel.LinkID{wasUp}},
		{Configs: map[string]*config.Device{node: recost}, LinksDown: []netmodel.LinkID{bogus}},
	} {
		undo, err := d.Apply(out.Net)
		if d.LinksDown[0] == bogus {
			if err == nil || out.Net.Topo != topo || out.Net.Devices[node] != was {
				t.Fatalf("Apply re-deriving with an unknown link: err %v, and the network changed", err)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if l := out.Net.Topo.Link(links[2].ID()); out.Net.Topo == topo || l.CostAB != topo.Link(l.ID()).CostAB+7 {
			t.Fatal("Apply did not derive the topology again")
		}
		if got := state(); got != [3]bool{false, false, true} {
			t.Fatalf("after re-deriving: %v, want the two links down", got)
		}
		undo()
		if out.Net.Topo != topo || out.Net.Devices[node] != was || state() != before {
			t.Fatal("undo did not restore the old topology and configuration")
		}
	}
}

func TestForkLinkFailureIdentity(t *testing.T) {
	out := gen.Generate(gen.WAN(1))
	eng := NewEngine(out.Net, Options{})
	eng.BaseRun(out.Inputs, out.Flows)
	links := out.Net.Topo.Links()
	step := len(links)/12 + 1
	for i := 0; i < len(links); i += step {
		id := links[i].ID()
		stats := checkFork(t, eng, out.Net, out.Inputs, out.Flows,
			Delta{LinksDown: []netmodel.LinkID{id}}, "link down "+id.String())
		if stats.Full {
			t.Errorf("link %s: fork fell back to full simulation", id)
		}
	}
}

func TestForkNodeFailureIdentity(t *testing.T) {
	out := gen.Generate(gen.WAN(1))
	eng := NewEngine(out.Net, Options{})
	eng.BaseRun(out.Inputs, out.Flows)
	names := out.Net.DeviceNames()
	step := len(names)/8 + 1
	for i := 0; i < len(names); i += step {
		checkFork(t, eng, out.Net, out.Inputs, out.Flows,
			Delta{NodesDown: []string{names[i]}}, "node down "+names[i])
	}
}

func TestForkMultiElementIdentity(t *testing.T) {
	out := gen.Generate(gen.WAN(1))
	eng := NewEngine(out.Net, Options{})
	eng.BaseRun(out.Inputs, out.Flows)
	links := out.Net.Topo.Links()
	names := out.Net.DeviceNames()
	d := Delta{
		LinksDown: []netmodel.LinkID{links[0].ID(), links[len(links)/2].ID()},
		NodesDown: []string{names[len(names)/3]},
	}
	checkFork(t, eng, out.Net, out.Inputs, out.Flows, d, "multi-element")
}

func TestForkLinkRestoreIdentity(t *testing.T) {
	out := gen.Generate(gen.WAN(1))
	// Base network with two links already down; the fork restores one.
	links := out.Net.Topo.Links()
	downA, downB := links[1].ID(), links[len(links)-2].ID()
	out.Net.Topo.SetLinkUp(downA, false)
	out.Net.Topo.SetLinkUp(downB, false)
	eng := NewEngine(out.Net, Options{})
	eng.BaseRun(out.Inputs, out.Flows)
	checkFork(t, eng, out.Net, out.Inputs, out.Flows,
		Delta{LinksUp: []netmodel.LinkID{downA}}, "link restore")
	checkFork(t, eng, out.Net, out.Inputs, out.Flows,
		Delta{LinksUp: []netmodel.LinkID{downB}, LinksDown: []netmodel.LinkID{links[0].ID()}}, "restore+fail")
}

func TestForkInputDeltaIdentity(t *testing.T) {
	out := gen.Generate(gen.WAN(1))
	eng := NewEngine(out.Net, Options{})
	eng.BaseRun(out.Inputs, out.Flows)

	// Drop the first input and inject a new prefix at the same device.
	add := out.Inputs[0]
	add.Prefix = netip.MustParsePrefix("203.0.113.0/24")
	d := Delta{
		DropInputs: []netmodel.Route{out.Inputs[0]},
		AddInputs:  []netmodel.Route{add},
	}
	checkFork(t, eng, out.Net, out.Inputs, out.Flows, d, "input delta")

	// Combined topology + input delta.
	links := out.Net.Topo.Links()
	d.LinksDown = []netmodel.LinkID{links[3].ID()}
	checkFork(t, eng, out.Net, out.Inputs, out.Flows, d, "input+link delta")
}

// TestForkNodeUpIdentity: a device down in the base comes back up. The fork is
// incremental like any other topology delta — the restart originates at the
// device, its sessions come up through the session diff, and the IGP diff
// reports the distances to it that appeared — and equals a from-scratch run.
// Every WAN(1) device and every third WAN(2) device is restored in turn, with
// route ECs on and off (off, the fork's RIB is also checked as a stable state)
// and the base converged sequentially and as two work units, in turn; one case
// also fails a link in the same fork.
func TestForkNodeUpIdentity(t *testing.T) {
	for _, scale := range []struct{ k, step int }{{1, 1}, {2, 3}} {
		out := gen.Generate(gen.WAN(scale.k))
		names := out.Net.DeviceNames()
		for _, ecsOff := range []bool{false, true} {
			for i := 0; i < len(names); i += scale.step {
				opts := Options{Parallelism: 1 + i/scale.step%2, DisableRouteECs: ecsOff, DisableFlowECs: ecsOff}
				base := out.Net.Clone()
				base.Topo.SetNodeUp(names[i], false)
				eng := NewEngine(base, opts)
				eng.BaseRun(out.Inputs, out.Flows)
				label := fmt.Sprintf("WAN(%d) %s up (parallelism %d, route ECs off: %v)", scale.k, names[i], opts.Parallelism, opts.DisableRouteECs)
				if stats := checkFork(t, eng, base, out.Inputs, out.Flows, Delta{NodesUp: []string{names[i]}}, label); stats.Full {
					t.Fatalf("%s: fork fell back to full simulation", label)
				}
			}
		}
	}

	out := gen.Generate(gen.WAN(1))
	names, links := out.Net.DeviceNames(), out.Net.Topo.Links()
	base := out.Net.Clone()
	base.Topo.SetNodeUp(names[len(names)/2], false)
	eng := NewEngine(base, Options{})
	eng.BaseRun(out.Inputs, out.Flows)
	d := Delta{NodesUp: []string{names[len(names)/2]}, LinksDown: []netmodel.LinkID{links[len(links)/3].ID()}}
	if stats := checkFork(t, eng, base, out.Inputs, out.Flows, d, "node up + link down"); stats.Full {
		t.Fatal("node up + link down: fork fell back to full simulation")
	}
}

// TestForkRandomizedDeltas throws seeded random deltas (multiple links and
// nodes at once, with and without input changes) at the incremental engine
// and checks byte-identity against the reference on every one — with the base
// converged sequentially and as 2 and 8 work units, whose merged warm-restart
// state must fork exactly like a single sim's.
func TestForkRandomizedDeltas(t *testing.T) {
	for _, p := range []int{1, 2, 8} {
		out := gen.Generate(gen.WAN(1))
		eng := NewEngine(out.Net, Options{Parallelism: p})
		eng.BaseRun(out.Inputs, out.Flows)
		links := out.Net.Topo.Links()
		names := out.Net.DeviceNames()
		rng := rand.New(rand.NewSource(7))
		for trial := 0; trial < 15; trial++ {
			var d Delta
			nLinks := 1 + rng.Intn(3)
			for j := 0; j < nLinks; j++ {
				d.LinksDown = append(d.LinksDown, links[rng.Intn(len(links))].ID())
			}
			if rng.Intn(3) == 0 {
				d.NodesDown = append(d.NodesDown, names[rng.Intn(len(names))])
			}
			if rng.Intn(3) == 0 {
				d.DropInputs = append(d.DropInputs, out.Inputs[rng.Intn(len(out.Inputs))])
			}
			checkFork(t, eng, out.Net, out.Inputs, out.Flows, d, fmt.Sprintf("base parallelism %d, random trial %d", p, trial))
		}
	}
}

// TestForkECsDisabledIdentity exercises the fork with both EC reductions off
// (the expansion-free paths), where every fork's RIB is also checked as a
// stable state: link, node, multi-element and input deltas, from a base
// converged sequentially and as 2 work units.
func TestForkECsDisabledIdentity(t *testing.T) {
	for _, p := range []int{1, 2} {
		out := gen.Generate(gen.WAN(1))
		eng := NewEngine(out.Net, Options{DisableRouteECs: true, DisableFlowECs: true, Parallelism: p})
		eng.BaseRun(out.Inputs, out.Flows)
		links := out.Net.Topo.Links()
		names := out.Net.DeviceNames()
		add := out.Inputs[0]
		add.Prefix = netip.MustParsePrefix("203.0.113.0/24")
		for i, d := range []Delta{
			{LinksDown: []netmodel.LinkID{links[2].ID()}},
			{NodesDown: []string{names[len(names)/2]}},
			{LinksDown: []netmodel.LinkID{links[0].ID(), links[len(links)/2].ID()}, NodesDown: []string{names[1]}},
			{DropInputs: []netmodel.Route{out.Inputs[0]}, AddInputs: []netmodel.Route{add}},
		} {
			checkFork(t, eng, out.Net, out.Inputs, out.Flows, d, fmt.Sprintf("ECs off, parallelism %d, delta %d", p, i))
		}
	}
}

// TestForkSessionUpIdentity: in the base the border-0-0--isp-0-0 link is
// down, so their eBGP session is too; the fork restores the link and the
// session comes up. Both sides must then re-advertise every prefix, even
// those whose decision the fork leaves as it was. Checked with route ECs on
// and, where the fork's RIB is also checked as a stable state, off.
func TestForkSessionUpIdentity(t *testing.T) {
	for _, opts := range []Options{{}, {DisableRouteECs: true, DisableFlowECs: true}} {
		out := gen.Generate(gen.WAN(1))
		link := out.Net.Topo.FindLink("border-0-0", "isp-0-0")
		if link == nil {
			t.Fatal("fixture: no link border-0-0--isp-0-0")
		}
		out.Net.Topo.SetLinkUp(link.ID(), false)
		eng := NewEngine(out.Net, opts)
		eng.BaseRun(out.Inputs, out.Flows)
		label := fmt.Sprintf("session up (route ECs off: %v)", opts.DisableRouteECs)
		stats := checkFork(t, eng, out.Net, out.Inputs, out.Flows, Delta{LinksUp: []netmodel.LinkID{link.ID()}}, label)
		if stats.Full {
			t.Errorf("%s: fork fell back to full simulation", label)
		}
	}
}

// TestForkISISRedistributionIdentity: with every IS-IS device that has BGP
// neighbours redistributing IS-IS into BGP, a link failure changes the local
// candidates of devices the link does not touch. Every third link of WAN(1)
// fails in turn; each fork must equal a from-scratch run and be a stable
// state.
func TestForkISISRedistributionIdentity(t *testing.T) {
	out := gen.Generate(gen.WAN(1))
	for _, d := range out.Net.Devices {
		if d.ISISEnabled && len(d.Neighbors) > 0 {
			d.Redistributes = append(d.Redistributes, config.Redistribution{From: netmodel.ProtoISIS})
		}
	}
	eng := NewEngine(out.Net, Options{DisableRouteECs: true, DisableFlowECs: true})
	eng.BaseRun(out.Inputs, out.Flows)
	links := out.Net.Topo.Links()
	for i := 0; i < len(links); i += 3 {
		id := links[i].ID()
		checkFork(t, eng, out.Net, out.Inputs, out.Flows, Delta{LinksDown: []netmodel.LinkID{id}}, "IS-IS redistribution, link down "+id.String())
	}
}

// TestForkSessionSwapIdentity: hub B has eBGP sessions to X, Y and Z, and X
// injects 203.0.113.0/24; in the base the B--Y link is down. The fork swaps
// X's session for Y's, so B's table gains a session (every prefix
// re-advertises) and loses its only candidate for the prefix in one restart:
// B must still withdraw it from Z. Checked with route ECs on and off.
func TestForkSessionSwapIdentity(t *testing.T) {
	for _, opts := range []Options{{}, {DisableRouteECs: true, DisableFlowECs: true}} {
		b := gen.NewBuilder(netip.MustParsePrefix("172.16.0.0/12"))
		b.Device("B", "alpha", 65001, netip.MustParseAddr("192.0.2.1"))
		var ids []netmodel.LinkID
		for i, peer := range []string{"X", "Y", "Z"} {
			b.Device(peer, "alpha", netmodel.ASN(65010+i), netip.AddrFrom4([4]byte{192, 0, 2, byte(10 + i)}))
			ids = append(ids, b.Link("B", peer, 10, 1e10).ID())
			b.EBGP("B", peer)
		}
		bx, by := ids[0], ids[1]
		b.Network().Topo.SetLinkUp(by, false)
		inputs := []netmodel.Route{{
			Device: "X", VRF: netmodel.DefaultVRF,
			Prefix:   netip.MustParsePrefix("203.0.113.0/24"),
			Protocol: netmodel.ProtoBGP,
			NextHop:  b.Net.Devices["X"].Loopback,
			Attrs:    &netmodel.Attrs{Origin: netmodel.OriginIGP},
			Source:   "X",
		}}
		eng := NewEngine(b.Net, opts)
		eng.BaseRun(inputs, nil)
		label := fmt.Sprintf("session swap (route ECs off: %v)", opts.DisableRouteECs)
		d := Delta{LinksDown: []netmodel.LinkID{bx}, LinksUp: []netmodel.LinkID{by}}
		if stats := checkFork(t, eng, b.Net, inputs, nil, d, label); stats.Full {
			t.Errorf("%s: fork fell back to full simulation", label)
		}
	}
}

// deleteConfigLine is dev re-parsed from its configuration text with line i
// (modulo the line count) deleted; nil when the rest does not parse.
func deleteConfigLine(dev *config.Device, i int) *config.Device {
	lines := strings.Split(config.Serialize(dev), "\n")
	i %= len(lines)
	d, err := config.ParseDevice(dev.Name, strings.Join(slices.Delete(lines, i, i+1), "\n"))
	if err != nil {
		return nil
	}
	return d
}

// changesTopology reports whether one of d's configurations changes what the
// topology derives from net's.
func changesTopology(net *config.Network, d Delta) bool {
	for name, dev := range d.Configs {
		if config.ChangesTopology(net.Devices[name], dev) {
			return true
		}
	}
	return false
}

// TestForkConfigIdentity: each fork reconfigures one or two random devices of
// WAN(1) and WAN(2), each by deleting one line of its configuration, and must
// equal a from-scratch run on the reconfigured network — with ECs on and off
// (off, the fork's RIB is also checked as a stable state), the base
// converged sequentially and in work units. A deletion that changes what the
// topology derives (an interface's address, isis cost, te-cost or
// bandwidth, a loopback) forks like any other; each fixture has at least one.
// One more fork adds a prefix list that splits a route EC: dc-0-1 stops
// exporting one of its prefixes to its reflector.
func TestForkConfigIdentity(t *testing.T) {
	for _, k := range []int{1, 2} {
		out := gen.Generate(gen.WAN(k))
		names := out.Net.DeviceNames()
		split := out.Net.Devices["dc-0-1"].Clone()
		if err := config.ApplyCommands(split, fmt.Sprintf(`
ip prefix-list PL_SPLIT permit 10.0.65.0/24
route-map RM_SPLIT deny 10
 match ip-prefix PL_SPLIT
!
route-map RM_SPLIT permit 20
!
router bgp
 neighbor %s route-map RM_SPLIT out
!
`, out.Net.Devices["rr-0-0"].Loopback)); err != nil {
			t.Fatal(err)
		}
		topologyChanges := 0
		for _, opts := range []Options{
			{Parallelism: 1}, {},
			{Parallelism: 1, DisableRouteECs: true, DisableFlowECs: true}, {DisableRouteECs: true, DisableFlowECs: true},
		} {
			eng := NewEngine(out.Net, opts)
			eng.BaseRun(out.Inputs, out.Flows)
			checkFork(t, eng, out.Net, out.Inputs, out.Flows, Delta{Configs: map[string]*config.Device{"dc-0-1": split}}, fmt.Sprintf("WAN(%d) %+v: EC split", k, opts))
			rnd := rand.New(rand.NewSource(int64(k)))
			for trial := 0; trial < 12/k; trial++ {
				d := Delta{Configs: make(map[string]*config.Device)}
				var label []string
				for n := 1 + rnd.Intn(2); len(d.Configs) < n; {
					name, line := names[rnd.Intn(len(names))], rnd.Intn(1<<16)
					if dev := deleteConfigLine(out.Net.Devices[name], line); dev != nil {
						d.Configs[name] = dev
						label = append(label, fmt.Sprintf("%s line %d", name, line))
					}
				}
				if changesTopology(out.Net, d) {
					topologyChanges++
				}
				checkFork(t, eng, out.Net, out.Inputs, out.Flows, d, fmt.Sprintf("WAN(%d) %+v: %v", k, opts, label))
			}
		}
		if topologyChanges == 0 {
			t.Fatalf("WAN(%d): no mutation changed the topology", k)
		}
	}
}

// FuzzForkConfigIdentity drives TestForkConfigIdentity's mutation from the
// fuzzer's bytes over one WAN(1) base, converged once per EC setting: byte 0
// picks the setting, and each following (device, line) byte pair deletes one
// line of one device's configuration. Every mutation must fork as a cold run,
// those that change a link end or a loopback included; the seeds delete an
// isis cost line, a loopback line and an interface address line.
func FuzzForkConfigIdentity(f *testing.F) {
	out := gen.Generate(gen.WAN(1))
	names := out.Net.DeviceNames()
	var engs []*Engine
	for _, opts := range []Options{{}, {DisableRouteECs: true, DisableFlowECs: true}} {
		eng := NewEngine(out.Net, opts)
		eng.BaseRun(out.Inputs, out.Flows)
		engs = append(engs, eng)
	}
	f.Add([]byte{0, 3, 17})
	f.Add([]byte{1, 9, 40, 22, 5})
	for i, prefix := range []string{" isis cost ", "loopback ", " ip address "} {
		lines := strings.Split(config.Serialize(out.Net.Devices[names[i]]), "\n")
		if j := slices.IndexFunc(lines, func(l string) bool { return strings.HasPrefix(l, prefix) }); j >= 0 && j < 256 {
			f.Add([]byte{byte(i % 2), byte(i), byte(j)})
		} else {
			f.Fatalf("%s: no %q line among the first 256", names[i], prefix)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		eng := engs[int(data[0])%len(engs)]
		d := Delta{Configs: make(map[string]*config.Device)}
		for b := data[1:]; len(b) >= 2 && len(d.Configs) < 2; b = b[2:] {
			name := names[int(b[0])%len(names)]
			if dev := deleteConfigLine(out.Net.Devices[name], int(b[1])); dev != nil {
				d.Configs[name] = dev
			}
		}
		if len(d.Configs) > 0 {
			checkFork(t, eng, out.Net, out.Inputs, out.Flows, d, fmt.Sprintf("%v", data))
		}
	})
}
