// Durable-substrate benchmarks: the distributed pipeline over WAL-backed
// disk substrates versus the in-memory ones. `make bench-durable` runs
// TestDurableOverhead and writes the measured wall times to
// BENCH_durable.json; the acceptance floor is disk-backed at fsync=interval
// within 1.25x of the in-memory wall time.
package hoyan

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"hoyan/internal/core"
	"hoyan/internal/durable"
	"hoyan/internal/gen"
	"hoyan/internal/pipeline"
)

// durableSystem builds a distributed pipeline system over the small WAN
// fixture; dataDir empty keeps the in-memory substrates.
func durableSystem(out *gen.Output, dataDir string, fsync durable.Policy) *pipeline.System {
	sys := pipeline.New(out.Net, out.Inputs, out.Flows, core.Options{})
	sys.Workers = 3
	sys.RouteSubtasks = 6
	sys.TrafficSubtasks = 6
	sys.DataDir = dataDir
	sys.Fsync = fsync
	return sys
}

// durableBenchReport is the BENCH_durable.json schema (`make bench-durable`).
type durableBenchReport struct {
	Workers         int    `json:"workers"`
	RouteSubtasks   int    `json:"route_subtasks"`
	TrafficSubtasks int    `json:"traffic_subtasks"`
	Fsync           string `json:"fsync"`

	MemoryNs       int64 `json:"memory_ns"`
	DiskIntervalNs int64 `json:"disk_interval_ns"`
	DiskAlwaysNs   int64 `json:"disk_always_ns"`
	// Overhead is disk-interval wall time over in-memory wall time; the
	// acceptance floor is <= 1.25.
	Overhead float64 `json:"overhead"`
	// DataDirBytes is the on-disk footprint one disk-backed run leaves
	// behind (WALs after compaction plus the object files).
	DataDirBytes int64 `json:"data_dir_bytes"`
}

// TestDurableOverhead measures one full distributed route+traffic run on
// in-memory substrates against the same run on WAL-backed disk substrates
// and pins the fsync=interval overhead floor. With DURABLE_BENCH_JSON set it
// also writes the measured numbers to that path.
func TestDurableOverhead(t *testing.T) {
	out := gen.Generate(gen.WAN(1))
	dataDir := t.TempDir()
	memSys := durableSystem(out, "", durable.SyncInterval)
	diskSys := durableSystem(out, dataDir, durable.SyncInterval)

	runSim := func(sys *pipeline.System, taskID string) {
		if _, err := sys.Simulate(taskID); err != nil {
			t.Fatal(err)
		}
	}
	// Warm both paths once: engine caches, page cache, directory creation.
	runSim(memSys, "warm-mem")
	runSim(diskSys, "warm-disk")

	run := 0
	diskNs, memNs := measurePair(3, 1,
		func() { run++; runSim(diskSys, fmt.Sprintf("disk-%d", run)) },
		func() { runSim(memSys, fmt.Sprintf("mem-%d", run)) })

	alwaysDir := t.TempDir()
	alwaysSys := durableSystem(out, alwaysDir, durable.SyncAlways)
	alwaysNs := int64(timeIters(1, func() { runSim(alwaysSys, "always-0") }))

	rep := durableBenchReport{
		Workers:         diskSys.Workers,
		RouteSubtasks:   diskSys.RouteSubtasks,
		TrafficSubtasks: diskSys.TrafficSubtasks,
		Fsync:           durable.SyncInterval.String(),
		MemoryNs:        memNs,
		DiskIntervalNs:  diskNs,
		DiskAlwaysNs:    alwaysNs,
		Overhead:        float64(diskNs) / float64(memNs),
		DataDirBytes:    dirBytes(t, filepath.Join(dataDir, fmt.Sprintf("disk-%d", run))),
	}
	t.Logf("memory %v, disk(interval) %v (%.2fx), disk(always) %v, %d B on disk per run",
		rep.MemoryNs, rep.DiskIntervalNs, rep.Overhead, rep.DiskAlwaysNs, rep.DataDirBytes)

	if rep.Overhead > 1.25 && enforceFloors() {
		t.Errorf("disk-backed run %.2fx slower than in-memory, want <= 1.25x", rep.Overhead)
	}

	if path := os.Getenv("DURABLE_BENCH_JSON"); path != "" {
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

// BenchmarkDurablePipeline is the raw sweep behind TestDurableOverhead: one
// full distributed run per iteration, per substrate backing.
func BenchmarkDurablePipeline(b *testing.B) {
	out := gen.Generate(gen.WAN(1))
	cases := []struct {
		name  string
		disk  bool
		fsync durable.Policy
	}{
		{"memory", false, durable.SyncInterval},
		{"disk-interval", true, durable.SyncInterval},
		{"disk-always", true, durable.SyncAlways},
		{"disk-never", true, durable.SyncNever},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			dataDir := ""
			if c.disk {
				dataDir = b.TempDir()
			}
			sys := durableSystem(out, dataDir, c.fsync)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sys.Simulate(fmt.Sprintf("bench-%d", i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func dirBytes(t *testing.T, dir string) int64 {
	t.Helper()
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			fi, err := d.Info()
			if err != nil {
				return err
			}
			total += fi.Size()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return total
}
