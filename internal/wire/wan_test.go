package wire_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"slices"
	"sync"
	"testing"

	"hoyan/internal/core"
	"hoyan/internal/gen"
	"hoyan/internal/netmodel"
	"hoyan/internal/wire"
)

// The gen.WAN(2) fixture's global RIB (7,464 rows) and network snapshot: the
// payloads a fleet run ships, at a size where per-row costs dominate.
var (
	wanOnce sync.Once
	wanRows []netmodel.Route
	wanSnap *wire.Snapshot
)

func wan2(tb testing.TB) ([]netmodel.Route, *wire.Snapshot) {
	wanOnce.Do(func() {
		g := gen.Generate(gen.WAN(2))
		wanRows = core.NewEngine(g.Net, core.Options{}).RouteSimulation(g.Inputs).GlobalRIB().Rows()
		wanSnap = (*wire.Snapshot)(core.TakeSnapshot(g.Net))
	})
	if len(wanRows) == 0 {
		tb.Fatal("fixture produced no RIB rows")
	}
	return wanRows, wanSnap
}

// TestRouteCodecAllocsPerRow pins the codec's per-row allocation at or below
// 0.1 each way on the WAN(2) RIB: what allocates is per frame (intern tables,
// buffers, the output slice) or per distinct interned value, not per row.
func TestRouteCodecAllocsPerRow(t *testing.T) {
	rows, _ := wan2(t)
	var blob bytes.Buffer
	if err := wire.EncodeRoutes(&blob, rows); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.Grow(blob.Len())
	enc := testing.AllocsPerRun(5, func() {
		buf.Reset()
		if err := wire.EncodeRoutes(&buf, rows); err != nil {
			t.Fatal(err)
		}
	})
	dec := testing.AllocsPerRun(5, func() {
		if _, err := wire.DecodeRoutes(bytes.NewReader(blob.Bytes())); err != nil {
			t.Fatal(err)
		}
	})
	n := float64(len(rows))
	t.Logf("%d rows: encode %.0f allocs (%.3f/row), decode %.0f allocs (%.3f/row)", len(rows), enc, enc/n, dec, dec/n)
	if enc/n > 0.1 || dec/n > 0.1 {
		t.Errorf("encode %.3f, decode %.3f allocations per row; want <= 0.1 each", enc/n, dec/n)
	}
}

// TestWireCompactness: on the WAN(2) fixture the binary format is at least 3x
// smaller than encoding/json, the baseline it replaced, for the RIB and for
// the (compressed) snapshot. Its speed is the repo benchmark's wire.*_s
// metrics.
func TestWireCompactness(t *testing.T) {
	rows, snap := wan2(t)
	var routes, snapshot bytes.Buffer
	if err := wire.EncodeRoutes(&routes, rows); err != nil {
		t.Fatal(err)
	}
	if err := wire.EncodeSnapshot(&snapshot, snap); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		wire int
		json any
	}{{"routes", routes.Len(), rows}, {"snapshot", snapshot.Len(), snap}} {
		js, err := json.Marshal(c.json)
		if err != nil {
			t.Fatal(err)
		}
		ratio := float64(len(js)) / float64(c.wire)
		t.Logf("%s: wire %d B vs json %d B (%.1fx)", c.name, c.wire, len(js), ratio)
		if ratio < 3 {
			t.Errorf("%s blob only %.2fx smaller than JSON, want >=3x", c.name, ratio)
		}
	}
}

// wan2RoutesSHA256 is the sha256 of wire.EncodeRoutes over the WAN(2) global
// RIB. The route frame's bytes are the fleet's storage format: a change of
// the row's in-memory representation must leave them as they are.
const wan2RoutesSHA256 = "633fd853dc4367bf3df1fbc43d162262aa381aafef9acd39dc81dcbfe953f8cd"

// TestRoutesGoldenWAN2 freezes the route frame of the WAN(2) global RIB, and
// requires a decode to encode back to the same bytes: every decoded row
// carries exactly the attributes it was encoded with.
func TestRoutesGoldenWAN2(t *testing.T) {
	rows, _ := wan2(t)
	var blob bytes.Buffer
	if err := wire.EncodeRoutes(&blob, rows); err != nil {
		t.Fatal(err)
	}
	if sum := sha256.Sum256(blob.Bytes()); hex.EncodeToString(sum[:]) != wan2RoutesSHA256 {
		t.Errorf("route frame sha256 %x, want %s", sum, wan2RoutesSHA256)
	}
	back, err := wire.DecodeRoutes(bytes.NewReader(blob.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := wire.EncodeRoutes(&again, back); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), blob.Bytes()) {
		t.Errorf("decoded rows encode to other bytes (%d vs %d B)", again.Len(), blob.Len())
	}
}

// TestDecodeSharesAttrs: rows whose encoded attributes repeat decode to one
// shared set, so decoding the WAN(2) RIB makes no more sets than the rows
// carry distinct attribute tuples, and each row still decodes to exactly
// its own attributes: the RIB gets one more row whose set differs from
// another's in the origin alone.
func TestDecodeSharesAttrs(t *testing.T) {
	wan, _ := wan2(t)
	twin := wan[0]
	a := *twin.Attr()
	a.Origin = (a.Origin + 1) % 3
	twin.SetAttrs(&a)
	rows := append(slices.Clone(wan), twin)
	tuples := map[string]bool{}
	for _, r := range rows {
		tuples[string((&netmodel.Route{Attrs: r.Attrs}).AppendSignature(nil))] = true
	}
	var blob bytes.Buffer
	if err := wire.EncodeRoutes(&blob, rows); err != nil {
		t.Fatal(err)
	}
	back, err := wire.DecodeRoutes(bytes.NewReader(blob.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	sets := map[*netmodel.Attrs]bool{}
	for i, r := range back {
		if !r.Identical(rows[i]) {
			t.Fatalf("row %d decodes to %v, want %v", i, r, rows[i])
		}
		sets[r.Attrs] = true
	}
	t.Logf("%d rows, %d distinct attribute tuples, %d decoded sets", len(rows), len(tuples), len(sets))
	if len(sets) > len(tuples) {
		t.Errorf("decoded %d attribute sets for %d distinct tuples", len(sets), len(tuples))
	}
}
