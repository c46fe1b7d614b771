package dsim

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hoyan/internal/bgp"
	"hoyan/internal/core"
	"hoyan/internal/durable"
	"hoyan/internal/gen"
	"hoyan/internal/objstore"
	"hoyan/internal/telemetry"
)

// TestDurableWALCost pins what durability adds to a run and does not depend
// on the host: the journal records, bytes and fsyncs of one route + traffic
// simulation over DataDir-backed substrates at fsync=interval. What the same
// run costs in wall time against in-memory substrates is the repo
// benchmark's job (`bash benchmark/run.sh --workload fleet_run` times the
// in-memory fleet).
func TestDurableWALCost(t *testing.T) {
	out := gen.Generate(gen.WAN(1))
	const nRoute, nTraffic = 6, 6
	c := startLocal(t, LocalOptions{Workers: 3, Telemetry: true, DataDir: t.TempDir()})
	start := time.Now()
	runDistributed(t, c.Master, "wal-cost", out, nRoute, nTraffic)
	elapsed := time.Since(start)
	snap := c.MetricsSnapshot()
	puts := c.Svc.Store.(objstore.StatsProvider).Stats().Puts
	c.Stop()

	type walCost struct{ records, bytes, fsyncs int64 }
	wal := map[string]walCost{}
	for _, component := range []string{"taskdb", "objstore", "mq"} {
		read := func(name string) int64 {
			s, ok := snap.Find(name, telemetry.L("component", component))
			if !ok {
				t.Fatalf("%s{component=%q} is not in the run's metrics", name, component)
			}
			return int64(s.Value)
		}
		wal[component] = walCost{
			records: read("wal_records_appended_total"),
			bytes:   read("wal_bytes_appended_total"),
			fsyncs:  read("wal_fsyncs_total"),
		}
	}

	const subtasks = nRoute + nTraffic
	// The queue logs one push and one pop per subtask, the object store one
	// record per object put; the task database one record each for a
	// subtask's creation, claim and completion, and one per lease heartbeat
	// should a subtask outlive a heartbeat period (none does here, unless the
	// host stalls; allow one each).
	if got, want := wal["mq"].records, int64(2*subtasks); got != want {
		t.Errorf("mq WAL: %d records for %d subtasks, want %d", got, subtasks, want)
	}
	if got := wal["objstore"].records; got != puts {
		t.Errorf("objstore WAL: %d records for %d puts", got, puts)
	}
	if got := wal["taskdb"].records; got < 3*subtasks || got > 4*subtasks {
		t.Errorf("taskdb WAL: %d records for %d subtasks, want %d to %d", got, subtasks, 3*subtasks, 4*subtasks)
	}
	// Records are a few hundred bytes of JSON (a subtask message, a task
	// record, an object key); measured 26.6 KB a run over all three logs.
	const maxRecordBytes = 1024
	var fsyncs int64
	for component, c := range wal {
		if c.bytes <= 0 || c.bytes > c.records*maxRecordBytes {
			t.Errorf("%s WAL: %d bytes in %d records, want 1 to %d per record", component, c.bytes, c.records, maxRecordBytes)
		}
		fsyncs += c.fsyncs
	}
	// fsync=interval syncs a log at most once per interval, on an append.
	if maxFsyncs := 3 * (1 + int64(elapsed/durable.DefaultSyncInterval)); fsyncs > maxFsyncs {
		t.Errorf("%d WAL fsyncs in a %v run, want at most %d (3 logs, one per %v each)", fsyncs, elapsed, maxFsyncs, durable.DefaultSyncInterval)
	}
	t.Logf("WAL cost of one run: %+v", wal)
}

// TestStopMidRunLeavesCleanState stops a DataDir-backed cluster while its
// workers are mid-subtask. Stop must let each worker finish its writes against
// open substrates: no durable write fails, nothing is retried against a closed
// journal, and every object file on disk is one the manifest acknowledges —
// so a cluster reopened over the directory resumes the task to completion.
func TestStopMidRunLeavesCleanState(t *testing.T) {
	out := gen.Generate(gen.WAN(1))
	const nRoute = 12
	dir := t.TempDir()
	c := startLocal(t, LocalOptions{Workers: 3, Telemetry: true, DataDir: dir})
	snapKey, err := c.Master.UploadSnapshot("stopped", out.Net)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Master.StartRouteSimulation("stopped", snapKey, bgp.Groups(out.Net), out.Inputs, nRoute, core.Options{}); err != nil {
		t.Fatal(err)
	}
	// Stop as soon as the first result lands: the other workers are inside
	// subtasks of their own.
	waitFor(t, func() bool {
		keys, err := c.Svc.Store.List("tasks/stopped/route/")
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range keys {
			if strings.HasSuffix(k, "/result") {
				return true
			}
		}
		return false
	})
	stopStart := time.Now()
	c.Stop()
	if d := time.Since(stopStart); d > 5*time.Second {
		t.Errorf("Stop took %v", d)
	}

	snap := c.MetricsSnapshot()
	for _, s := range snap {
		switch s.Name {
		case "durable_write_failures_total", "hoyan_retry_giveups_total":
			if s.Value != 0 {
				t.Errorf("%s%v = %v after a mid-run Stop, want 0", s.Name, s.Labels, s.Value)
			}
		}
	}

	// No orphans: the object files are exactly the keys the reopened store
	// serves (OpenDisk would silently delete any others).
	files, err := os.ReadDir(filepath.Join(dir, "objstore", "objects"))
	if err != nil {
		t.Fatal(err)
	}
	// The manifest is read before the cluster reopens: its workers resume the
	// queued subtasks at once, and their results would count as keys.
	store, err := objstore.OpenDisk(filepath.Join(dir, "objstore"), durable.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	keys, err := store.List("")
	if err != nil {
		t.Fatal(err)
	}
	store.Close()
	if len(files) != len(keys) {
		t.Errorf("%d object files on disk after Stop, the manifest acknowledges %d", len(files), len(keys))
	}
	c2 := startLocal(t, LocalOptions{Workers: 3, DataDir: dir})
	defer c2.Stop()

	info, err := c2.Master.Resume("stopped")
	if err != nil {
		t.Fatal(err)
	}
	if err := c2.Master.Wait("stopped", "route", info.RouteSubtasks); err != nil {
		t.Fatal(err)
	}
	rib, err := c2.Master.CollectRouteResults(info.RouteTask())
	if err != nil {
		t.Fatal(err)
	}
	central := dedupe(core.NewEngine(out.Net, core.Options{}).RouteSimulation(out.Inputs).GlobalRIB())
	if !central.Equal(rib) {
		t.Fatalf("resumed RIB != centralized (%d vs %d rows)", rib.Len(), central.Len())
	}
}

// waitFor polls cond until it holds.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 30s")
		}
		time.Sleep(time.Millisecond)
	}
}
