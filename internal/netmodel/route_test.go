package netmodel

import (
	"encoding/json"
	"net/netip"
	"reflect"
	"testing"
	"unsafe"
)

// TestRouteSizeAlloc pins the row's size: its location, identity, selection
// state, provenance and one pointer to a shared attribute set. Every []Route
// of the engine (adj-RIB-in candidates, tables, global RIBs) is priced by it.
func TestRouteSizeAlloc(t *testing.T) {
	if n := unsafe.Sizeof(Route{}); n > 144 {
		t.Errorf("unsafe.Sizeof(Route{}) = %d B, want <= 144", n)
	}
}

// TestSetAttrs: the write path shares a set while the attributes stay the
// same, makes a new one when they change, and keeps the zero set nil.
func TestSetAttrs(t *testing.T) {
	var r Route
	r.SetAttrs(&Attrs{})
	if r.Attrs != nil {
		t.Fatal("the zero set must be nil")
	}
	r.SetAttrs(&Attrs{LocalPref: 100, ASPath: ASPath{Seq: []ASN{65001}}})
	held := r.Attrs
	a := *r.Attr()
	r.SetAttrs(&a)
	if r.Attrs != held {
		t.Error("an unchanged copy must leave the held set in place")
	}
	a.MED = 5
	r.SetAttrs(&a)
	if r.Attrs == held || held.MED != 0 || r.Attr().MED != 5 {
		t.Errorf("a changed copy must install a new set and leave the old one: old %+v, new %+v", *held, *r.Attr())
	}
	if !(&Attrs{}).Equal(nil) || (&Attrs{Weight: 1}).Equal(nil) {
		t.Error("nil must equal the zero set and only it")
	}
}

// TestRouteJSONFlat: a row's JSON is one flat object, its attributes inline
// between its next hop and its IGP cost, and reads back Identical.
func TestRouteJSONFlat(t *testing.T) {
	r := Route{Device: "A", VRF: DefaultVRF, Prefix: netip.MustParsePrefix("10.0.0.0/24"), Protocol: ProtoBGP,
		NextHop: netip.MustParseAddr("192.0.2.1"), RouteType: RouteBest, Peer: "B", Source: "C",
		Attrs: &Attrs{Communities: NewCommunitySet(NewCommunity(65000, 1)), LocalPref: 100, ASPath: ASPath{Seq: []ASN{65001}}}}
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"Device":"A","VRF":"global","Prefix":"10.0.0.0/24","Protocol":0,"NextHop":"192.0.2.1",` +
		`"Communities":"65000:1","LocalPref":100,"MED":0,"Weight":0,"Preference":0,"ASPath":{"Seq":[65001],"Set":null},` +
		`"Origin":0,"IGPCost":0,"RouteType":1,"ViaSR":false,"Peer":"B","Source":"C"}`
	if string(b) != want {
		t.Errorf("JSON\n got %s\nwant %s", b, want)
	}
	var back Route
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !back.Identical(r) || !reflect.DeepEqual(back.Attr().ASPath, r.Attr().ASPath) {
		t.Errorf("round trip: %v, want %v", back, r)
	}
}
