package taskdb

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"hoyan/internal/durable"
)

func TestDurableRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "taskdb.wal")
	db := openDurableDB(t, path, durable.Options{Fsync: durable.SyncNever})
	now := time.Now().UTC().Truncate(time.Millisecond)
	recs := []Record{
		{TaskID: "t1", Kind: "route", SubID: 0, Status: StatusDone, Attempts: 1, HeartbeatAt: now},
		{TaskID: "t1", Kind: "route", SubID: 1, Status: StatusRunning, Attempts: 0, Worker: "w2"},
		{TaskID: "t1", Kind: "traffic", SubID: 0, Status: StatusPending},
		{TaskID: "t2", Kind: "route", SubID: 0, Status: StatusPending},
	}
	for _, r := range recs {
		if err := db.Upsert(r); err != nil {
			t.Fatal(err)
		}
	}
	if ok, err := db.Heartbeat("t1", "route", 1, 0, now.Add(time.Second)); !ok || err != nil {
		t.Fatalf("Heartbeat = %v, %v", ok, err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := openDurableDB(t, path, durable.Options{})
	defer db2.Close()
	got, err := db2.List("t1")
	if err != nil || len(got) != 3 {
		t.Fatalf("List(t1) = %d records, %v", len(got), err)
	}
	// The replayed heartbeat survives.
	hb, ok, err := db2.Get("t1", "route", 1)
	if err != nil || !ok || !hb.HeartbeatAt.Equal(now.Add(time.Second)) {
		t.Fatalf("heartbeat lost across restart: %+v ok=%v err=%v", hb, ok, err)
	}
	if other, err := db2.List("t2"); err != nil || len(other) != 1 {
		t.Fatalf("List(t2) = %d records, %v", len(other), err)
	}
}

// TestDurableFencingAcrossRestart checks the core invariant: a write fenced
// out before a restart stays fenced out after it.
func TestDurableFencingAcrossRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "taskdb.wal")
	db := openDurableDB(t, path, durable.Options{Fsync: durable.SyncNever})
	if ok, err := db.FencedUpsert(Record{TaskID: "t", Kind: "route", SubID: 0, Status: StatusRunning, Attempts: 2}); !ok || err != nil {
		t.Fatalf("FencedUpsert attempt 2 = %v, %v", ok, err)
	}
	// A stale attempt is rejected and leaves no trace in the log.
	if ok, err := db.FencedUpsert(Record{TaskID: "t", Kind: "route", SubID: 0, Status: StatusDone, Attempts: 1}); ok || err != nil {
		t.Fatalf("stale FencedUpsert = %v, %v, want rejected", ok, err)
	}
	db.CrashClose()

	db2 := openDurableDB(t, path, durable.Options{})
	defer db2.Close()
	rec, ok, err := db2.Get("t", "route", 0)
	if err != nil || !ok || rec.Attempts != 2 || rec.Status != StatusRunning {
		t.Fatalf("recovered record = %+v ok=%v err=%v", rec, ok, err)
	}
	// Still fenced after restart.
	if ok, _ := db2.FencedUpsert(Record{TaskID: "t", Kind: "route", SubID: 0, Status: StatusDone, Attempts: 1}); ok {
		t.Fatal("stale attempt accepted after restart")
	}
	if ok, _ := db2.FencedUpsert(Record{TaskID: "t", Kind: "route", SubID: 0, Status: StatusDone, Attempts: 3}); !ok {
		t.Fatal("newer attempt rejected after restart")
	}
}

func TestDurableCrashed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "taskdb.wal")
	db := openDurableDB(t, path, durable.Options{})
	db.CrashClose()
	if err := db.Upsert(Record{TaskID: "t"}); !errors.Is(err, durable.ErrCrashed) {
		t.Fatalf("Upsert after crash = %v", err)
	}
	if _, err := db.FencedUpsert(Record{TaskID: "t"}); !errors.Is(err, durable.ErrCrashed) {
		t.Fatalf("FencedUpsert after crash = %v", err)
	}
	if _, err := db.List("t"); !errors.Is(err, durable.ErrCrashed) {
		t.Fatalf("List after crash = %v", err)
	}
	if _, _, err := db.Get("t", "route", 0); !errors.Is(err, durable.ErrCrashed) {
		t.Fatalf("Get after crash = %v", err)
	}
	if _, err := db.Heartbeat("t", "route", 0, 0, time.Now()); !errors.Is(err, durable.ErrCrashed) {
		t.Fatalf("Heartbeat after crash = %v", err)
	}
}

// TestDurableCompaction drives the log past its threshold: heartbeats and
// rewrites collapse into a bounded snapshot that still replays correctly.
func TestDurableCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "taskdb.wal")
	db := openDurableDB(t, path, durable.Options{Fsync: durable.SyncNever, CompactEvery: 10})
	rec := Record{TaskID: "t", Kind: "route", SubID: 0, Status: StatusRunning, Attempts: 0}
	if err := db.Upsert(rec); err != nil {
		t.Fatal(err)
	}
	base := time.Now().UTC()
	for i := 0; i < 100; i++ {
		if _, err := db.Heartbeat("t", "route", 0, 0, base.Add(time.Duration(i)*time.Second)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() > 4096 {
		t.Fatalf("taskdb WAL not compacted: %d bytes after 100 heartbeats", info.Size())
	}
	db2 := openDurableDB(t, path, durable.Options{})
	defer db2.Close()
	got, ok, err := db2.Get("t", "route", 0)
	if err != nil || !ok || !got.HeartbeatAt.Equal(base.Add(99*time.Second).Truncate(0)) {
		t.Fatalf("recovered heartbeat = %v ok=%v err=%v", got.HeartbeatAt, ok, err)
	}
}

// TestDurableClosed pins orderly shutdown: writes to a closed DB fail with
// the non-retryable durable.ErrClosed, and change nothing.
func TestDurableClosed(t *testing.T) {
	db := openDurableDB(t, filepath.Join(t.TempDir(), "taskdb.wal"), durable.Options{})
	if err := db.Upsert(Record{TaskID: "t", Status: StatusRunning}); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Upsert(Record{TaskID: "t", Status: StatusDone}); !errors.Is(err, durable.ErrClosed) {
		t.Fatalf("Upsert after Close = %v, want ErrClosed", err)
	}
	if rec, _, _ := db.Get("t", "", 0); rec.Status != StatusRunning {
		t.Fatalf("refused write was applied: %+v", rec)
	}
}

// TestJournalReplayMatchesMemory feeds the same random operations to a
// journaled DB and an unjournaled one, kills the journaled one, and requires
// the reopened DB to hold exactly what the unjournaled machine holds: the
// journal adds durability, never behaviour. The small CompactEvery makes the
// replayed log a snapshot plus a tail several times over.
func TestJournalReplayMatchesMemory(t *testing.T) {
	path := filepath.Join(t.TempDir(), "taskdb.wal")
	opts := durable.Options{Fsync: durable.SyncNever, CompactEvery: 7}
	journaled, memory := openDurableDB(t, path, opts), NewMemory()
	rng := rand.New(rand.NewSource(17))
	statuses := []Status{StatusPending, StatusRunning, StatusDone, StatusFailed}
	base := time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)
	for i := 0; i < 300; i++ {
		rec := Record{
			TaskID: "t", Kind: []string{"route", "traffic"}[rng.Intn(2)], SubID: rng.Intn(4),
			Status: statuses[rng.Intn(len(statuses))], Attempts: rng.Intn(3), Worker: fmt.Sprintf("w%d", i),
		}
		at := base.Add(time.Duration(i) * time.Second)
		var got, want bool
		var err error
		switch rng.Intn(3) {
		case 0:
			err = journaled.Upsert(rec)
			memory.Upsert(rec)
		case 1:
			got, err = journaled.FencedUpsert(rec)
			want, _ = memory.FencedUpsert(rec)
		default:
			got, err = journaled.Heartbeat(rec.TaskID, rec.Kind, rec.SubID, rec.Attempts, at)
			want, _ = memory.Heartbeat(rec.TaskID, rec.Kind, rec.SubID, rec.Attempts, at)
		}
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("op %d: journaled applied=%v, unjournaled applied=%v", i, got, want)
		}
	}
	journaled.CrashClose()

	reopened := openDurableDB(t, path, opts)
	defer reopened.Close()
	got, err := reopened.List("t")
	if err != nil {
		t.Fatal(err)
	}
	want, _ := memory.List("t")
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed state differs from the unjournaled machine:\n got %+v\nwant %+v", got, want)
	}
}
