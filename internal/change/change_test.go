package change

import (
	"net/netip"
	"strings"
	"testing"

	"hoyan/internal/gen"
	"hoyan/internal/netmodel"
)

func TestAllTypesCatalogued(t *testing.T) {
	if len(AllTypes) != 12 {
		t.Fatalf("change types = %d, want 12 (Table 2)", len(AllTypes))
	}
	starred := 0
	for _, typ := range AllTypes {
		if typ.NeedsRouteIntent() {
			starred++
		}
	}
	if starred != 6 {
		t.Errorf("starred types = %d, want 6 (Table 2)", starred)
	}
}

func TestApplyDoesNotMutateBase(t *testing.T) {
	out := gen.Generate(gen.WAN(1))
	before := len(out.Net.Devices["border-0-1"].Statics)
	plan := &Plan{
		ID: "t", Type: StaticRouteModify,
		Commands: map[string]string{"border-0-1": "ip route 192.0.2.0/24 " + out.Net.Devices["core-0-0"].Loopback.String() + "\n"},
	}
	updated, err := plan.Apply(out.Net)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Net.Devices["border-0-1"].Statics) != before {
		t.Error("base model mutated")
	}
	if len(updated.Devices["border-0-1"].Statics) != before+1 {
		t.Error("updated model missing the static")
	}
}

func TestApplyUnknownDeviceFails(t *testing.T) {
	out := gen.Generate(gen.WAN(1))
	plan := &Plan{ID: "t", Commands: map[string]string{"no-such-router": "isis enable\n"}}
	if _, err := plan.Apply(out.Net); err == nil || !strings.Contains(err.Error(), "unknown device") {
		t.Errorf("want unknown-device error, got %v", err)
	}
	remove := &Plan{ID: "t", RemoveNodes: []string{"no-such-router"}}
	if _, err := remove.Apply(out.Net); err == nil || !strings.Contains(err.Error(), `unknown device "no-such-router"`) {
		t.Errorf("removing an unknown node: want unknown-device error, got %v", err)
	}
	// Several mistyped blocks: the error names the first in device order,
	// however the map is ranged.
	typos := &Plan{ID: "t", Commands: map[string]string{"rr-9": "isis enable\n", "core-9": "isis enable\n", "dc-9": "isis enable\n"}}
	for range 50 {
		if _, err := typos.Apply(out.Net); err == nil || !strings.Contains(err.Error(), `unknown device "core-9"`) {
			t.Fatalf("want the error for core-9, got %v", err)
		}
	}
}

func TestApplyTopologyDeltas(t *testing.T) {
	out := gen.Generate(gen.WAN(1))
	base := netip.MustParseAddr("172.31.9.0")
	plan := &Plan{
		ID: "t", Type: AddLinks,
		AddLinks: []netmodel.Link{{
			A: "core-0-0", B: "core-1-0", AIface: "x-a", BIface: "x-b",
			ANet: netip.PrefixFrom(base, 30), BNet: netip.PrefixFrom(base, 30),
			AAddr: base.Next(), BAddr: base.Next().Next(),
			CostAB: 5, CostBA: 5, Bandwidth: 1e9,
		}},
		SetNodes: []NodeUpDown{{Name: "dc-2-1", Up: false}},
	}
	updated, err := plan.Apply(out.Net)
	if err != nil {
		t.Fatal(err)
	}
	id := netmodel.LinkID{A: "core-0-0", B: "core-1-0", AIface: "x-a", BIface: "x-b"}
	if updated.Topo.Link(id) == nil {
		t.Error("link not added")
	}
	// Interfaces registered on both devices.
	if updated.Devices["core-0-0"].Interfaces["x-a"] == nil || updated.Devices["core-1-0"].Interfaces["x-b"] == nil {
		t.Error("link interfaces not registered")
	}
	if updated.Topo.Node("dc-2-1").Up {
		t.Error("node not taken down")
	}
	if !out.Net.Topo.Node("dc-2-1").Up {
		t.Error("base node mutated")
	}
	// Removing an unknown link errors.
	bad := &Plan{ID: "t2", RemoveLinks: []netmodel.LinkID{{A: "x", B: "y"}}}
	if _, err := bad.Apply(out.Net); err == nil {
		t.Error("want error for unknown link")
	}
}

func TestApplyNewConfigs(t *testing.T) {
	out := gen.Generate(gen.WAN(1))
	plan := &Plan{
		ID: "t", Type: AddRouters,
		NewConfigs: map[string]string{"newbie": "hostname newbie\nvendor alpha\nasn 65000\nloopback 100.64.9.9\n"},
	}
	updated, err := plan.Apply(out.Net)
	if err != nil {
		t.Fatal(err)
	}
	// The configuration alone makes the device a node, with its loopback.
	if updated.Devices["newbie"] == nil || updated.Topo.Node("newbie") == nil || updated.Topo.Node("newbie").Loopback != netip.MustParseAddr("100.64.9.9") {
		t.Error("new device missing")
	}
	if out.Net.Devices["newbie"] != nil {
		t.Error("base gained the device")
	}
	bad := &Plan{ID: "t2", NewConfigs: map[string]string{"x": "garbage\n"}}
	if _, err := bad.Apply(out.Net); err == nil {
		t.Error("want parse error for bad new config")
	}
}

func TestApplyInputs(t *testing.T) {
	out := gen.Generate(gen.WAN(1))
	victim := out.Inputs[0]
	extra := netmodel.Route{
		Device: "dc-0-0", VRF: netmodel.DefaultVRF,
		Prefix: netip.MustParsePrefix("10.99.0.0/24"), Protocol: netmodel.ProtoBGP,
	}
	plan := &Plan{DropInputs: []netmodel.Route{victim}, NewInputs: []netmodel.Route{extra}}
	got := plan.ApplyInputs(out.Inputs)
	if len(got) != len(out.Inputs) {
		t.Fatalf("len = %d, want %d (one dropped, one added)", len(got), len(out.Inputs))
	}
	for _, r := range got {
		if r.Key() == victim.Key() {
			t.Error("victim still present")
		}
	}
	if got[len(got)-1].Prefix != extra.Prefix {
		t.Error("new input missing")
	}
}

func TestCommandLines(t *testing.T) {
	p := &Plan{Commands: map[string]string{
		"a": "line1\n\n line2\n",
		"b": "x\n",
	}}
	if n := p.CommandLines(); n != 3 {
		t.Errorf("CommandLines = %d, want 3", n)
	}
}

// TestDeltaAddedLinkMustPair: an added link whose two ends are on different
// subnets, or on a subnet an existing link already pairs, derives no link,
// so the plan does not apply.
func TestDeltaAddedLinkMustPair(t *testing.T) {
	out := gen.Generate(gen.WAN(1))
	taken := out.Net.Topo.Links()[0].ANet
	a, b := netip.MustParsePrefix("172.31.9.1/30"), netip.MustParsePrefix("172.31.9.5/30")
	for _, l := range []netmodel.Link{
		{ANet: a.Masked(), BNet: b.Masked(), AAddr: a.Addr(), BAddr: b.Addr()},
		{ANet: taken, BNet: taken, AAddr: taken.Addr(), BAddr: taken.Addr().Next().Next().Next()},
	} {
		l.A, l.B, l.AIface, l.BIface, l.CostAB, l.CostBA = "core-0-0", "core-1-0", "x-a", "x-b", 5, 5
		plan := &Plan{ID: "t", AddLinks: []netmodel.Link{l}}
		if _, err := plan.Delta(out.Net); err == nil || !strings.Contains(err.Error(), "does not pair") {
			t.Errorf("link %s on %s and %s: err %v, want it refused", l.ID(), l.ANet, l.BNet, err)
		}
	}
}
