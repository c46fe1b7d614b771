package netmodel

import (
	"net/netip"
	"testing"
	"testing/quick"
)

func TestParseCommunity(t *testing.T) {
	tests := []struct {
		in      string
		want    Community
		wantErr bool
	}{
		{"100:1", NewCommunity(100, 1), false},
		{"0:0", NewCommunity(0, 0), false},
		{"65535:65535", NewCommunity(65535, 65535), false},
		{"100", 0, true},
		{"100:65536", 0, true},
		{"-1:1", 0, true},
		{"a:b", 0, true},
	}
	for _, tt := range tests {
		got, err := ParseCommunity(tt.in)
		if (err != nil) != tt.wantErr {
			t.Errorf("ParseCommunity(%q) error = %v, wantErr %v", tt.in, err, tt.wantErr)
			continue
		}
		if err == nil && got != tt.want {
			t.Errorf("ParseCommunity(%q) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestCommunityStringRoundTrip(t *testing.T) {
	f := func(hi, lo uint16) bool {
		c := NewCommunity(hi, lo)
		back, err := ParseCommunity(c.String())
		return err == nil && back == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCommunitySetOperations(t *testing.T) {
	s := NewCommunitySet(MustCommunity("200:1"), MustCommunity("100:1"), MustCommunity("200:1"))
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (dedup)", s.Len())
	}
	if got := s.String(); got != "100:1,200:1" {
		t.Errorf("String = %q, want sorted %q", got, "100:1,200:1")
	}
	if !s.Contains(MustCommunity("100:1")) || s.Contains(MustCommunity("300:1")) {
		t.Error("Contains wrong")
	}
	s2 := s.Remove(MustCommunity("100:1"))
	if s2.Contains(MustCommunity("100:1")) || s2.Len() != 1 {
		t.Error("Remove failed")
	}
	if !s.Contains(MustCommunity("100:1")) {
		t.Error("Remove mutated the original set")
	}
	s3 := s.Add(MustCommunity("150:5"))
	if got := s3.String(); got != "100:1,150:5,200:1" {
		t.Errorf("Add mid: %q", got)
	}
}

func TestCommunitySetImmutableAdd(t *testing.T) {
	f := func(vals []uint32) bool {
		var s CommunitySet
		for _, v := range vals {
			prev := s
			prevLen := prev.Len()
			s = s.Add(Community(v))
			if prev.Len() != prevLen {
				return false
			}
		}
		// Sorted and deduplicated invariants.
		all := s.All()
		for i := 1; i < len(all); i++ {
			if all[i-1] >= all[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParseCommunitySet(t *testing.T) {
	s, err := ParseCommunitySet(" 200:1, 100:1 ")
	if err != nil {
		t.Fatal(err)
	}
	if s.String() != "100:1,200:1" {
		t.Errorf("got %q", s.String())
	}
	if s, err := ParseCommunitySet(""); err != nil || s.Len() != 0 {
		t.Errorf("empty parse: %v %v", s, err)
	}
	if _, err := ParseCommunitySet("1:2,bogus"); err == nil {
		t.Error("want error for bogus member")
	}
}

func TestASPath(t *testing.T) {
	p := ASPath{}.Prepend(65002).Prepend(65001)
	if got := p.String(); got != "65001 65002" {
		t.Errorf("String = %q", got)
	}
	if p.Len() != 2 {
		t.Errorf("Len = %d", p.Len())
	}
	if !p.Contains(65002) || p.Contains(65999) {
		t.Error("Contains wrong")
	}
	withSet := ASPath{Seq: []ASN{1}, Set: []ASN{3, 2}}
	if withSet.Len() != 2 {
		t.Errorf("set counts 1: Len = %d", withSet.Len())
	}
	if got := withSet.String(); got != "1 {2,3}" {
		t.Errorf("set String = %q", got)
	}
	if !withSet.Contains(3) {
		t.Error("Contains should search AS_SET")
	}
}

func TestASPathEqual(t *testing.T) {
	a := ASPath{Seq: []ASN{1, 2}, Set: []ASN{4, 3}}
	b := ASPath{Seq: []ASN{1, 2}, Set: []ASN{3, 4}}
	if !a.Equal(b) {
		t.Error("AS_SET should compare as a set")
	}
	c := ASPath{Seq: []ASN{2, 1}, Set: []ASN{3, 4}}
	if a.Equal(c) {
		t.Error("sequence order matters")
	}
}

func TestPrependDoesNotAlias(t *testing.T) {
	base := ASPath{Seq: []ASN{5}}
	p1 := base.Prepend(1)
	p2 := base.Prepend(2)
	if p1.Seq[0] != 1 || p2.Seq[0] != 2 || base.Seq[0] != 5 {
		t.Errorf("aliasing: %v %v %v", base, p1, p2)
	}
}

func TestLastAddr(t *testing.T) {
	tests := []struct {
		prefix, want string
	}{
		{"10.0.0.0/24", "10.0.0.255"},
		{"10.0.0.0/8", "10.255.255.255"},
		{"10.1.2.3/32", "10.1.2.3"},
		{"0.0.0.0/0", "255.255.255.255"},
		{"2001:db8::/64", "2001:db8::ffff:ffff:ffff:ffff"},
	}
	for _, tt := range tests {
		got := LastAddr(netip.MustParsePrefix(tt.prefix))
		if got != netip.MustParseAddr(tt.want) {
			t.Errorf("LastAddr(%s) = %s, want %s", tt.prefix, got, tt.want)
		}
	}
}

func TestRouteField(t *testing.T) {
	r := Route{
		Device: "A", VRF: "global",
		Prefix:   netip.MustParsePrefix("10.0.0.0/24"),
		Protocol: ProtoBGP,
		NextHop:  netip.MustParseAddr("2.0.0.1"),
		Attrs: &Attrs{Communities: NewCommunitySet(MustCommunity("100:1")), LocalPref: 100,
			ASPath: ASPath{Seq: []ASN{65001, 65002}}},
		RouteType: RouteBest,
	}
	cases := map[string]any{
		FieldDevice:      "A",
		FieldPrefix:      "10.0.0.0/24",
		FieldNextHop:     "2.0.0.1",
		FieldLocalPref:   int64(100),
		FieldASPath:      "65001 65002",
		FieldRouteType:   "BEST",
		FieldProtocol:    "bgp",
		FieldOrigin:      "igp",
		FieldCommunities: []string{"100:1"},
	}
	for name, want := range cases {
		got, ok := r.Field(name)
		if !ok {
			t.Errorf("Field(%q) missing", name)
			continue
		}
		switch w := want.(type) {
		case []string:
			g, ok := got.([]string)
			if !ok || len(g) != len(w) || g[0] != w[0] {
				t.Errorf("Field(%q) = %v, want %v", name, got, want)
			}
		default:
			if got != want {
				t.Errorf("Field(%q) = %v (%T), want %v (%T)", name, got, got, want, want)
			}
		}
	}
	if _, ok := r.Field("nosuch"); ok {
		t.Error("unknown field should report !ok")
	}
	// Every declared field name must be resolvable.
	for _, name := range FieldNames {
		if _, ok := r.Field(name); !ok {
			t.Errorf("declared field %q not resolvable", name)
		}
	}
}
