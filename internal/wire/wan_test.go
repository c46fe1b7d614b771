package wire_test

import (
	"bytes"
	"encoding/json"
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
