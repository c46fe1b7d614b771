package gen

import (
	"net/netip"
	"testing"

	"hoyan/internal/config"
	"hoyan/internal/netmodel"
)

func TestGenerateStructure(t *testing.T) {
	out := Generate(WAN(1))
	p := WAN(1)
	wantPerRegion := p.RRsPerRegion + p.CoresPerRegion + p.BordersPerRegion + p.DCsPerRegion + p.ISPsPerRegion
	if got := len(out.Net.Devices); got != wantPerRegion*p.Regions {
		t.Errorf("devices = %d, want %d", got, wantPerRegion*p.Regions)
	}
	// Every device has a loopback and ASN; WAN devices share the WAN ASN.
	wan, isp := 0, 0
	for _, d := range out.Net.Devices {
		if !d.Loopback.IsValid() || d.ASN == 0 {
			t.Errorf("%s incomplete: %+v", d.Name, d)
		}
		if d.ASN == wanASN {
			wan++
		} else {
			isp++
		}
	}
	if isp != p.ISPsPerRegion*p.Regions {
		t.Errorf("isp devices = %d", isp)
	}
	// Inputs and flows exist in the configured quantities.
	wantInputs := p.Regions * (p.DCsPerRegion*p.PrefixesPerDC + p.ISPsPerRegion*p.PrefixesPerISP)
	if len(out.Inputs) != wantInputs {
		t.Errorf("inputs = %d, want %d", len(out.Inputs), wantInputs)
	}
	if len(out.Flows) != p.Flows {
		t.Errorf("flows = %d, want %d", len(out.Flows), p.Flows)
	}
	// Topology is connected enough: every device has at least one link.
	for _, name := range out.Net.DeviceNames() {
		if len(out.Net.Topo.LinksOf(name)) == 0 {
			t.Errorf("%s has no links", name)
		}
	}
	// No dangling policy references.
	if issues := out.Net.Validate(); len(issues) != 0 {
		t.Errorf("validate: %v", issues)
	}
}

func TestGenerateDeterminism(t *testing.T) {
	a, b := Generate(WAN(1)), Generate(WAN(1))
	at, bt := a.ConfigTexts(), b.ConfigTexts()
	if len(at) != len(bt) {
		t.Fatal("device count differs")
	}
	for name, text := range at {
		if bt[name] != text {
			t.Fatalf("config of %s differs between runs", name)
		}
	}
	if len(a.Flows) != len(b.Flows) || a.Flows[0] != b.Flows[0] {
		t.Error("flows differ")
	}
}

func TestGeneratedConfigsParse(t *testing.T) {
	out := Generate(WAN(1))
	texts := out.ConfigTexts()
	net2, err := config.BuildNetworkOpts(texts, nil, config.BuildOptions{Parallelism: 1})
	if err != nil {
		t.Fatalf("generated configs must parse: %v", err)
	}
	if len(net2.Devices) != len(out.Net.Devices) {
		t.Errorf("parsed devices = %d", len(net2.Devices))
	}
	// Spot-check a border's policies survived the round trip.
	for name, d := range net2.Devices {
		orig := out.Net.Devices[name]
		if len(d.Neighbors) != len(orig.Neighbors) {
			t.Errorf("%s: neighbors %d != %d", name, len(d.Neighbors), len(orig.Neighbors))
		}
		if len(d.RouteMaps) != len(orig.RouteMaps) {
			t.Errorf("%s: route maps %d != %d", name, len(d.RouteMaps), len(orig.RouteMaps))
		}
	}
}

func TestWANDCNIsLarger(t *testing.T) {
	wan := Generate(WAN(2))
	dcn := Generate(WANDCN(2))
	if len(dcn.Net.Devices) <= len(wan.Net.Devices) {
		t.Errorf("WAN+DCN (%d) must exceed WAN (%d)", len(dcn.Net.Devices), len(wan.Net.Devices))
	}
}

func TestScaleProfilesOrdering(t *testing.T) {
	small := Generate(Scale2017())
	large := Generate(Scale2024())
	if len(large.Net.Devices) <= len(small.Net.Devices) {
		t.Error("2024 network must be larger than 2017")
	}
	if len(large.Inputs) <= len(small.Inputs) {
		t.Error("2024 inputs must exceed 2017")
	}
}

func TestUniqueLinkSubnetsAndLoopbacks(t *testing.T) {
	out := Generate(WAN(3))
	seenNet := map[netip.Prefix]bool{}
	for _, l := range out.Net.Topo.Links() {
		if seenNet[l.ANet] {
			t.Fatalf("duplicate link subnet %s", l.ANet)
		}
		seenNet[l.ANet] = true
	}
	seenLo := map[netip.Addr]bool{}
	for _, d := range out.Net.Devices {
		if seenLo[d.Loopback] {
			t.Fatalf("duplicate loopback %s", d.Loopback)
		}
		seenLo[d.Loopback] = true
	}
}

func TestInputsInjectAtExistingDevices(t *testing.T) {
	out := Generate(WAN(1))
	for _, r := range out.Inputs {
		if out.Net.Devices[r.Device] == nil {
			t.Fatalf("input %v at unknown device", r)
		}
		if r.VRF != netmodel.DefaultVRF {
			t.Errorf("unexpected vrf %q", r.VRF)
		}
	}
	for _, f := range out.Flows {
		if out.Net.Devices[f.Ingress] == nil {
			t.Fatalf("flow %v at unknown ingress", f)
		}
	}
}
