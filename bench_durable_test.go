// Durable-substrate benchmarks: the distributed pipeline over WAL-backed
// disk substrates versus the in-memory ones. `make bench-durable` runs
// TestDurableOverhead and writes the measured wall times and the WAL cost of
// one run to BENCH_durable.json. The test pins that cost — records, bytes
// and fsyncs per run — which is what durability adds and does not depend on
// the host; the wall-clock ratio of two ~40 ms runs is logged, not asserted.
package hoyan

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
	"time"

	"hoyan/internal/core"
	"hoyan/internal/durable"
	"hoyan/internal/gen"
	"hoyan/internal/pipeline"
	"hoyan/internal/telemetry"
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
	// Overhead is disk-interval wall time over in-memory wall time (1.1–1.4
	// on ~40 ms runs, host-dependent; reported, not asserted).
	Overhead float64 `json:"overhead"`
	// DataDirBytes is the on-disk footprint one disk-backed run leaves
	// behind (WALs after compaction plus the object files).
	DataDirBytes int64 `json:"data_dir_bytes"`
	// WAL is what one fsync=interval run appends and syncs, per substrate.
	WAL map[string]walCost `json:"wal"`
}

// walCost is one substrate's WAL traffic over one run.
type walCost struct {
	Records int64 `json:"records"`
	Bytes   int64 `json:"bytes"`
	Fsyncs  int64 `json:"fsyncs"`
}

// walCosts runs one instrumented fsync=interval simulation and reads each
// substrate's WAL counters, plus the run's wall time.
func walCosts(t *testing.T, out *gen.Output) (map[string]walCost, *pipeline.System, time.Duration) {
	t.Helper()
	sys := durableSystem(out, t.TempDir(), durable.SyncInterval)
	sys.Telemetry = true
	start := time.Now()
	if _, err := sys.Simulate("wal-cost"); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	snap := sys.LastRunReport().Metrics
	costs := map[string]walCost{}
	for _, component := range []string{"taskdb", "objstore", "mq"} {
		read := func(name string) int64 {
			s, ok := snap.Find(name, telemetry.L("component", component))
			if !ok {
				t.Fatalf("%s{component=%q} is not in the run's metrics", name, component)
			}
			return int64(s.Value)
		}
		costs[component] = walCost{
			Records: read("wal_records_appended_total"),
			Bytes:   read("wal_bytes_appended_total"),
			Fsyncs:  read("wal_fsyncs_total"),
		}
	}
	return costs, sys, elapsed
}

// TestDurableOverhead measures one full distributed route+traffic run on
// in-memory substrates against the same run on WAL-backed disk substrates,
// logs the fsync=interval overhead, and pins what that overhead is made of:
// the WAL records, bytes and fsyncs of one run. With DURABLE_BENCH_JSON set
// it also writes the measured numbers to that path.
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

	wal, walSys, walElapsed := walCosts(t, out)
	subtasks := int64(walSys.RouteSubtasks + walSys.TrafficSubtasks)
	// The queue logs one push and one pop per subtask, the object store one
	// record per object put; the task database one record each for a
	// subtask's creation, claim and completion, and one per lease heartbeat
	// should a subtask outlive a heartbeat period (none does here, unless the
	// host stalls; allow one each).
	if got, want := wal["mq"].Records, 2*subtasks; got != want {
		t.Errorf("mq WAL: %d records for %d subtasks, want %d", got, subtasks, want)
	}
	if got, want := wal["objstore"].Records, walSys.LastRunReport().Store.Puts; got != want {
		t.Errorf("objstore WAL: %d records for %d puts", got, want)
	}
	if got := wal["taskdb"].Records; got < 3*subtasks || got > 4*subtasks {
		t.Errorf("taskdb WAL: %d records for %d subtasks, want %d to %d", got, subtasks, 3*subtasks, 4*subtasks)
	}
	// Records are a few hundred bytes of JSON (a subtask message, a task
	// record, an object key); measured 26.6 KB a run over all three logs.
	const maxRecordBytes = 1024
	var records, bytes, fsyncs int64
	for component, c := range wal {
		if c.Bytes <= 0 || c.Bytes > c.Records*maxRecordBytes {
			t.Errorf("%s WAL: %d bytes in %d records, want 1 to %d per record", component, c.Bytes, c.Records, maxRecordBytes)
		}
		records, bytes, fsyncs = records+c.Records, bytes+c.Bytes, fsyncs+c.Fsyncs
	}
	// fsync=interval syncs a log at most once per interval, on an append.
	if maxFsyncs := 3 * (1 + int64(walElapsed/durable.DefaultSyncInterval)); fsyncs > maxFsyncs {
		t.Errorf("%d WAL fsyncs in a %v run, want at most %d (3 logs, one per %v each)", fsyncs, walElapsed, maxFsyncs, durable.DefaultSyncInterval)
	}
	t.Logf("WAL cost of one run: %d records, %d bytes, %d fsyncs (%+v)", records, bytes, fsyncs, wal)

	rep := durableBenchReport{
		WAL:             wal,
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
