package wire

import (
	"bufio"
	"bytes"
	"errors"
	"flag"
	"io"
	"math/rand"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"hoyan/internal/netmodel"
)

var update = flag.Bool("update", false, "rewrite golden files from the sample fixtures")

// ---------------------------------------------------------------- fixtures

// sampleRoutes exercises the interesting encoder paths: repeated strings and
// AS paths (interning), IPv4 and IPv6, zero addresses/prefixes, empty rows,
// and values past the one-byte varint range.
func sampleRoutes() []netmodel.Route {
	shared := netmodel.ASPath{Seq: []netmodel.ASN{65000, 65001, 4200000000}}
	comms := netmodel.NewCommunitySet(netmodel.NewCommunity(65000, 1), netmodel.NewCommunity(65000, 666))
	return []netmodel.Route{
		{
			Device: "rr-0-0", VRF: netmodel.DefaultVRF,
			Prefix:   netip.MustParsePrefix("10.0.0.0/24"),
			Protocol: netmodel.ProtoBGP,
			NextHop:  netip.MustParseAddr("192.0.2.1"),
			Attrs: &netmodel.Attrs{Communities: comms, LocalPref: 200, MED: 50, Weight: 32768,
				Preference: 170, ASPath: shared, Origin: netmodel.OriginIGP},
			IGPCost: 10, RouteType: netmodel.RouteBest, ViaSR: true,
			Peer: "border-0-0", Source: "bgp",
		},
		{
			Device: "rr-0-0", VRF: netmodel.DefaultVRF, // interned refs
			Prefix:   netip.MustParsePrefix("2001:db8::/48"),
			Protocol: netmodel.ProtoISIS,
			NextHop:  netip.MustParseAddr("2001:db8::1"),
			Attrs:    &netmodel.Attrs{ASPath: shared}, // interned structural ref
			IGPCost:  300000, RouteType: netmodel.RouteCandidate,
			Peer: "border-0-0", Source: "isis",
		},
		{
			Device: "border-1-0", VRF: "vpn-a",
			Prefix:   netip.MustParsePrefix("10.1.0.0/16"),
			Protocol: netmodel.ProtoStatic,
			Attrs:    &netmodel.Attrs{ASPath: netmodel.ASPath{Set: []netmodel.ASN{65010, 65011}}, Origin: netmodel.OriginIncomplete},
		},
		{}, // zero route: zero prefix, zero addr, empty everything
	}
}

func sampleFlows() []netmodel.Flow {
	return []netmodel.Flow{
		{
			Src: netip.MustParseAddr("10.0.0.1"), Dst: netip.MustParseAddr("10.1.0.1"),
			SrcPort: 443, DstPort: 51234, Proto: netmodel.ProtoTCP,
			Ingress: "border-0-0", Volume: 1.5e9,
		},
		{
			Src: netip.MustParseAddr("2001:db8::1"), Dst: netip.MustParseAddr("2001:db8:1::1"),
			Proto: netmodel.ProtoUDP, Ingress: "border-0-0", Volume: 0.25,
		},
		{}, // zero flow
	}
}

func sampleSnapshot() *Snapshot {
	return &Snapshot{
		Configs: map[string]string{
			"rr-0-0":     "hostname rr-0-0\nrouter bgp 65000\n",
			"border-0-0": "hostname border-0-0\nrouter bgp 65000\n",
		},
		DownNodes: []string{"border-0-0"},
		DownLinks: []netmodel.LinkID{{A: "rr-0-0", B: "border-0-0", AIface: "eth0", BIface: "eth1"}},
	}
}

func sampleTraffic() ([]netmodel.FlowPath, netmodel.LinkLoad) {
	id := netmodel.LinkID{A: "rr-0-0", B: "border-0-0", AIface: "eth0", BIface: "eth1"}
	return []netmodel.FlowPath{{
		Flow: sampleFlows()[0],
		Path: netmodel.Path{
			Hops: []netmodel.Hop{{Device: "border-0-0", Link: id}, {Device: "rr-0-0"}},
			Exit: netmodel.ExitDelivered,
		},
	}}, netmodel.LinkLoad{id: 1.5e9}
}

// encodeSampleTraffic is EncodeTrafficResult of sampleTraffic.
func encodeSampleTraffic(w io.Writer) error {
	paths, load := sampleTraffic()
	return EncodeTrafficResult(w, paths, load)
}

// ---------------------------------------------------------------- round trips

// reframe re-encodes a frame's payload through encodeFrame with the given
// compression. Each kind's encoder fixes its own, but decoders honour the
// flag on any kind.
func reframe(t testing.TB, frame []byte, compress bool) []byte {
	t.Helper()
	d, err := decodeFrame(bufio.NewReader(bytes.NewReader(frame)), Kind(frame[5]))
	if err != nil {
		t.Fatal(err)
	}
	payload, err := io.ReadAll(d.r)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := encodeFrame(&buf, Kind(frame[5]), compress, func(e *encoder) { e.w.Write(payload) }); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRoutesRoundTrip(t *testing.T) {
	want := sampleRoutes()
	var plain bytes.Buffer
	if err := EncodeRoutes(&plain, want); err != nil {
		t.Fatal(err)
	}
	for _, compress := range []bool{false, true} {
		got, err := DecodeRoutes(bytes.NewReader(reframe(t, plain.Bytes(), compress)))
		if err != nil {
			t.Fatalf("decode (compress %v): %v", compress, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("round trip (compress %v):\n got %+v\nwant %+v", compress, got, want)
		}
	}
}

func TestRoutesRoundTripEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeRoutes(&buf, nil); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeRoutes(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("got %d routes, want 0", len(got))
	}
}

func TestFlowsRoundTrip(t *testing.T) {
	want := sampleFlows()
	var buf bytes.Buffer
	if err := EncodeFlows(&buf, want); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeFlows(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip:\n got %+v\nwant %+v", got, want)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	want := sampleSnapshot()
	var buf bytes.Buffer
	if err := EncodeSnapshot(&buf, want); err != nil {
		t.Fatal(err)
	}
	if buf.Bytes()[4] != flagFlate {
		t.Errorf("snapshot frame flags %#x, want flate", buf.Bytes()[4])
	}
	for _, compress := range []bool{false, true} {
		got, err := DecodeSnapshot(bytes.NewReader(reframe(t, buf.Bytes(), compress)))
		if err != nil {
			t.Fatalf("decode (compress %v): %v", compress, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("round trip (compress %v):\n got %+v\nwant %+v", compress, got, want)
		}
	}
}

func TestSnapshotEncodeDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := EncodeSnapshot(&a, sampleSnapshot()); err != nil {
		t.Fatal(err)
	}
	if err := EncodeSnapshot(&b, sampleSnapshot()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two encodings of the same snapshot differ (config map ordering leaked)")
	}
}

func TestTrafficResultRoundTrip(t *testing.T) {
	paths, load := sampleTraffic()
	var buf bytes.Buffer
	if err := EncodeTrafficResult(&buf, paths, load); err != nil {
		t.Fatal(err)
	}
	gotPaths, gotLoad, err := DecodeTrafficResult(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotPaths, paths) || !reflect.DeepEqual(gotLoad, load) {
		t.Errorf("round trip:\n got %+v %v\nwant %+v %v", gotPaths, gotLoad, paths, load)
	}
}

// TestTrafficResultDuplicateLink: a load section that names a link twice is
// ErrCorrupt, not a sum or the last of the two volumes. The same frame with
// two distinct links decodes.
func TestTrafficResultDuplicateLink(t *testing.T) {
	a := netmodel.LinkID{A: "r1", B: "r2", AIface: "eth0", BIface: "eth0"}
	b := netmodel.LinkID{A: "r1", B: "r3", AIface: "eth1", BIface: "eth0"}
	frame := func(ids ...netmodel.LinkID) *bytes.Buffer {
		var buf bytes.Buffer
		if err := encodeFrame(&buf, KindTrafficResult, false, func(e *encoder) {
			e.uvarint(uint64(len(ids)))
			for _, id := range ids {
				e.linkID(id)
				e.f64(1e9)
			}
			e.uvarint(0) // no paths
		}); err != nil {
			t.Fatal(err)
		}
		return &buf
	}
	if _, load, err := DecodeTrafficResult(frame(a, b)); err != nil || len(load) != 2 {
		t.Fatalf("two distinct links: %v, %v", load, err)
	}
	if _, load, err := DecodeTrafficResult(frame(a, b, a)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("link %s loaded twice: got %v, %v; want ErrCorrupt", a, load, err)
	}
}

// ----------------------------------------------------------------- goldens

// golden compares got against testdata/name, rewriting it under -update.
func golden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/wire -update` to create goldens)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: encoding drifted from golden (%d vs %d bytes); if the format "+
			"change is intentional, bump Version and regenerate with -update", name, len(got), len(want))
	}
}

// TestGolden locks the binary encodings: a byte-level change to the format
// breaks this test, forcing a deliberate Version bump.
func TestGolden(t *testing.T) {
	var routes, flows, snap, traffic bytes.Buffer
	if err := EncodeRoutes(&routes, sampleRoutes()); err != nil {
		t.Fatal(err)
	}
	if err := EncodeFlows(&flows, sampleFlows()); err != nil {
		t.Fatal(err)
	}
	if err := EncodeSnapshot(&snap, sampleSnapshot()); err != nil {
		t.Fatal(err)
	}
	if err := encodeSampleTraffic(&traffic); err != nil {
		t.Fatal(err)
	}
	golden(t, "routes.bin", routes.Bytes())
	golden(t, "flows.bin", flows.Bytes())
	golden(t, "snapshot.bin", snap.Bytes())
	golden(t, "traffic.bin", traffic.Bytes())

	// Decoding the goldens must reproduce the fixtures exactly.
	gotR, err := DecodeRoutes(&routes)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotR, sampleRoutes()) {
		t.Error("golden routes decode mismatch")
	}
	gotS, err := DecodeSnapshot(&snap)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotS, sampleSnapshot()) {
		t.Error("golden snapshot decode mismatch")
	}
}

// TestSnapshotV1Rejected: a version 1 snapshot frame, which carried the
// topology's nodes and links, is refused rather than misread as version 2's
// down sets.
func TestSnapshotV1Rejected(t *testing.T) {
	v1, err := os.ReadFile(filepath.Join("testdata", "snapshot_v1.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if v1[3] != 1 {
		t.Fatalf("fixture is version %d, want 1", v1[3])
	}
	if s, err := DecodeSnapshot(bytes.NewReader(v1)); err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("decoded a v1 snapshot frame: %+v, %v", s, err)
	}
}

// ------------------------------------------------------------- corrupt input

func encodedRoutes(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeRoutes(&buf, sampleRoutes()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDecodeTruncated cuts a frame of every kind, plain and flate-compressed,
// at every byte offset: each decoder must fail with ErrCorrupt, past the
// header as well as inside it.
func TestDecodeTruncated(t *testing.T) {
	kinds := []struct {
		kind   Kind
		encode func(io.Writer) error
		decode func(io.Reader) error
	}{
		{KindRoutes, func(w io.Writer) error { return EncodeRoutes(w, sampleRoutes()) },
			func(r io.Reader) error { _, err := DecodeRoutes(r); return err }},
		{KindFlows, func(w io.Writer) error { return EncodeFlows(w, sampleFlows()) },
			func(r io.Reader) error { _, err := DecodeFlows(r); return err }},
		{KindSnapshot, func(w io.Writer) error { return EncodeSnapshot(w, sampleSnapshot()) },
			func(r io.Reader) error { _, err := DecodeSnapshot(r); return err }},
		{KindTrafficResult, encodeSampleTraffic,
			func(r io.Reader) error { _, _, err := DecodeTrafficResult(r); return err }},
	}
	for _, k := range kinds {
		var buf bytes.Buffer
		if err := k.encode(&buf); err != nil {
			t.Fatal(err)
		}
		for _, compress := range []bool{false, true} {
			blob := reframe(t, buf.Bytes(), compress)
			if err := k.decode(bytes.NewReader(blob)); err != nil {
				t.Fatalf("%s frame (flate %v): %v", k.kind, compress, err)
			}
			for n := 0; n < len(blob); n++ {
				if err := k.decode(bytes.NewReader(blob[:n])); !errors.Is(err, ErrCorrupt) {
					t.Fatalf("%s frame (flate %v) cut at %d/%d bytes: got %v, want ErrCorrupt", k.kind, compress, n, len(blob), err)
				}
			}
		}
	}
}

func TestDecodeCorruptHeader(t *testing.T) {
	blob := encodedRoutes(t)
	mut := func(i int, b byte) []byte {
		c := append([]byte(nil), blob...)
		c[i] = b
		return c
	}
	cases := []struct {
		name    string
		blob    []byte
		corrupt bool // must map to ErrCorrupt specifically
	}{
		{"bad marker", mut(1, 'X'), true},
		{"future version", mut(3, 99), false},
		{"unknown flags", mut(4, 0x80), true},
		{"unknown kind", mut(5, 42), true},
	}
	for _, tc := range cases {
		_, err := DecodeRoutes(bytes.NewReader(tc.blob))
		if err == nil {
			t.Errorf("%s: decoded without error", tc.name)
			continue
		}
		if tc.corrupt && !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: error %v does not wrap ErrCorrupt", tc.name, err)
		}
	}
}

func TestDecodeWrongKind(t *testing.T) {
	if _, err := DecodeFlows(bytes.NewReader(encodedRoutes(t))); !errors.Is(err, ErrCorrupt) {
		t.Errorf("flows decoder accepted a routes frame: %v", err)
	}
}

func TestDecodeDanglingStringRef(t *testing.T) {
	// Frame holding one route whose device field references string id 5
	// with an empty intern table.
	blob := []byte{Magic, mark1, mark2, Version, 0, byte(KindRoutes), 1 /* count */, 5 /* str ref */}
	if _, err := DecodeRoutes(bytes.NewReader(blob)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("dangling intern ref: got %v, want ErrCorrupt", err)
	}
}

func TestDecodeOversizedBlobLength(t *testing.T) {
	// A literal string whose claimed length exceeds maxBlob must fail before
	// allocating.
	var buf bytes.Buffer
	buf.Write([]byte{Magic, mark1, mark2, Version, 0, byte(KindRoutes), 1, 0})
	e := newEncoder(&buf)
	e.uvarint(maxBlob + 1)
	if err := e.flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeRoutes(bytes.NewReader(buf.Bytes())); !errors.Is(err, ErrCorrupt) {
		t.Errorf("oversized blob length: got %v, want ErrCorrupt", err)
	}
}

// TestDecodersRejectForeignBlobs pins the one-format rule on all six
// decoders: a blob that does not open with the frame header — empty, the
// start of a JSON document, or a header cut short — is ErrCorrupt, never
// whatever another codec would make of it.
func TestDecodersRejectForeignBlobs(t *testing.T) {
	decoders := []struct {
		kind   Kind
		decode func(*bytes.Reader) error
	}{
		{KindRoutes, func(r *bytes.Reader) error { _, err := DecodeRoutes(r); return err }},
		{KindFlows, func(r *bytes.Reader) error { _, err := DecodeFlows(r); return err }},
		{KindSnapshot, func(r *bytes.Reader) error { _, err := DecodeSnapshot(r); return err }},
		{KindTrafficResult, func(r *bytes.Reader) error { _, _, err := DecodeTrafficResult(r); return err }},
	}
	for _, d := range decoders {
		inputs := []struct {
			name string
			blob []byte
		}{
			{"empty", nil},
			{"json object", []byte(`{"routes":[],"inbound":[]}`)},
			{"json array", []byte(`[{"Device":"r1"}]`)},
			{"truncated header", []byte{Magic, mark1, mark2, Version, 0}},
			{"magic only", []byte{Magic}},
		}
		for _, in := range inputs {
			if err := d.decode(bytes.NewReader(in.blob)); !errors.Is(err, ErrCorrupt) {
				t.Errorf("%s decoder, %s: got %v, want ErrCorrupt", d.kind, in.name, err)
			}
		}
	}
}

// ---------------------------------------------------------------- fuzzing

// FuzzDecodeRoutes asserts the decoder never panics and that anything it
// accepts re-encodes and re-decodes to the same rows.
func FuzzDecodeRoutes(f *testing.F) {
	var plain bytes.Buffer
	if err := EncodeRoutes(&plain, sampleRoutes()); err != nil {
		f.Fatal(err)
	}
	f.Add(plain.Bytes())
	f.Add(reframe(f, plain.Bytes(), true))
	f.Add(plain.Bytes()[:len(plain.Bytes())/2]) // truncated
	corrupted := append([]byte(nil), plain.Bytes()...)
	corrupted[len(corrupted)/2] ^= 0xFF
	f.Add(corrupted)
	f.Add([]byte{Magic, mark1, mark2, Version, 0, byte(KindRoutes), 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F}) // absurd count
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		routes, err := DecodeRoutes(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := EncodeRoutes(&buf, routes); err != nil {
			t.Fatalf("re-encoding accepted rows: %v", err)
		}
		again, err := DecodeRoutes(&buf)
		if err != nil {
			t.Fatalf("re-decoding own encoding: %v", err)
		}
		if len(again) != len(routes) {
			t.Fatalf("re-decode row count %d != %d", len(again), len(routes))
		}
		if !slices.EqualFunc(routes, again, netmodel.Route.Identical) {
			t.Fatalf("re-decode changed the rows: %v -> %v", routes, again)
		}

		// The canonical order is total on whatever the decoder accepts: any
		// permutation of the rows sorts back to the same sequence
		// (result files, the fleet's k-way merge and RIB digests rely on it).
		sorted := slices.Clone(routes)
		slices.SortFunc(sorted, netmodel.CompareRoutes)
		shuffled := slices.Clone(routes)
		rnd := rand.New(rand.NewSource(int64(len(data))))
		rnd.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		slices.SortFunc(shuffled, netmodel.CompareRoutes)
		if !slices.EqualFunc(sorted, shuffled, netmodel.Route.Identical) {
			t.Fatal("canonical order depends on input order")
		}
	})
}

// frameKind is one kind's codec for FuzzDecodeFrames: reencode decodes a
// frame and, when the decoder accepts it, writes the value back out.
type frameKind struct {
	kind     Kind
	encode   func(io.Writer) error // the sample
	reencode func(t testing.TB, data []byte) ([]byte, error)
}

var frameKinds = []frameKind{
	{KindRoutes, func(w io.Writer) error { return EncodeRoutes(w, sampleRoutes()) }, func(t testing.TB, data []byte) ([]byte, error) {
		v, err := DecodeRoutes(bytes.NewReader(data))
		return reencoded(t, err, func(w io.Writer) error { return EncodeRoutes(w, v) })
	}},
	{KindFlows, func(w io.Writer) error { return EncodeFlows(w, sampleFlows()) }, func(t testing.TB, data []byte) ([]byte, error) {
		v, err := DecodeFlows(bytes.NewReader(data))
		return reencoded(t, err, func(w io.Writer) error { return EncodeFlows(w, v) })
	}},
	{KindSnapshot, func(w io.Writer) error { return EncodeSnapshot(w, sampleSnapshot()) }, func(t testing.TB, data []byte) ([]byte, error) {
		v, err := DecodeSnapshot(bytes.NewReader(data))
		return reencoded(t, err, func(w io.Writer) error { return EncodeSnapshot(w, v) })
	}},
	{KindTrafficResult, encodeSampleTraffic, func(t testing.TB, data []byte) ([]byte, error) {
		paths, load, err := DecodeTrafficResult(bytes.NewReader(data))
		return reencoded(t, err, func(w io.Writer) error { return EncodeTrafficResult(w, paths, load) })
	}},
}

// reencoded is encode's bytes, or decodeErr when the decode before it failed.
func reencoded(t testing.TB, decodeErr error, encode func(io.Writer) error) ([]byte, error) {
	if decodeErr != nil {
		return nil, decodeErr
	}
	var buf bytes.Buffer
	if err := encode(&buf); err != nil {
		t.Fatalf("re-encoding an accepted frame: %v", err)
	}
	return buf.Bytes(), nil
}

// FuzzDecodeFrames feeds every input to all four decoders. None may panic;
// every error wraps ErrCorrupt unless the frame's version byte is not
// Version; and a frame a decoder accepts re-encodes to bytes that decode to
// the same value, which shows as the same bytes once more (every encoder is
// deterministic and writes floats bit for bit).
func FuzzDecodeFrames(f *testing.F) {
	for _, k := range frameKinds {
		var buf bytes.Buffer
		if err := k.encode(&buf); err != nil {
			f.Fatal(err)
		}
		plain := buf.Bytes()
		f.Add(plain)
		f.Add(reframe(f, plain, plain[4]&flagFlate == 0)) // the other compression
		f.Add(plain[:len(plain)/2])
		corrupted := slices.Clone(plain)
		corrupted[len(corrupted)/2] ^= 0xFF
		f.Add(corrupted)
	}
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, k := range frameKinds {
			enc, err := k.reencode(t, data)
			if err != nil {
				if !errors.Is(err, ErrCorrupt) && (len(data) < 4 || data[3] == Version) {
					t.Fatalf("%s decoder: %v does not wrap ErrCorrupt", k.kind, err)
				}
				continue
			}
			again, err := k.reencode(t, enc)
			if err != nil {
				t.Fatalf("%s decoder refused its own encoding: %v", k.kind, err)
			}
			if !bytes.Equal(again, enc) {
				t.Fatalf("%s: an accepted frame decoded to another value on its way back", k.kind)
			}
		}
	})
}
