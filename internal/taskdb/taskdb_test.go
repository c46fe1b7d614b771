package taskdb

import (
	"net"
	"path/filepath"
	"testing"
	"time"

	"hoyan/internal/durable"
	"hoyan/internal/retry"
	"hoyan/internal/rpcx"
)

// backends is every way a caller can hold a DB: the state machine without and
// with a journal, a TCP client of it, and a retry-decorated handle.
var backends = []struct {
	name string
	open func(t *testing.T) DB
}{
	{"unjournaled", func(t *testing.T) DB { return NewMemory() }},
	{"journaled", func(t *testing.T) DB {
		db := openDurableDB(t, filepath.Join(t.TempDir(), "taskdb.wal"), durable.Options{Fsync: durable.SyncNever})
		t.Cleanup(func() { db.Close() })
		return db
	}},
	{"tcp", func(t *testing.T) DB {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		Serve(l, NewMemory(), nil)
		c, err := Dial(l.Addr().String(), rpcx.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}},
	{"retry", func(t *testing.T) DB {
		db := NewMemory()
		return Decorate(func() DB { return db }, retry.Default().Hook)
	}},
}

func openDurableDB(t *testing.T, path string, opts durable.Options) *Local {
	t.Helper()
	db, err := OpenDurable(path, opts, nil)
	if err != nil {
		t.Fatalf("OpenDurable(%s): %v", path, err)
	}
	return db
}

// TestDBConformance is the DB contract — above all the fence and the lease
// rule — run against every backend.
func TestDBConformance(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, db DB)
	}{
		{"upsert, get, list", func(t *testing.T, db DB) {
			r1 := Record{TaskID: "t1", Kind: "route", SubID: 0, Status: StatusPending, RangeLo: "10.0.0.0", RangeHi: "10.0.255.255",
				StartedAt: time.Now().UTC().Truncate(time.Second)}
			r2 := Record{TaskID: "t1", Kind: "route", SubID: 1, Status: StatusPending}
			r3 := Record{TaskID: "t1", Kind: "traffic", SubID: 0, Status: StatusPending}
			other := Record{TaskID: "t2", Kind: "route", SubID: 0}
			for _, r := range []Record{r2, r3, r1, other} {
				if err := db.Upsert(r); err != nil {
					t.Fatal(err)
				}
			}
			got, ok, err := db.Get("t1", "route", 0)
			if err != nil || !ok || got.RangeHi != "10.0.255.255" || !got.StartedAt.Equal(r1.StartedAt) {
				t.Fatalf("Get = %+v %v %v", got, ok, err)
			}
			if _, ok, err := db.Get("t1", "route", 99); ok || err != nil {
				t.Errorf("missing record: ok=%v err=%v", ok, err)
			}
			recs, err := db.List("t1")
			if err != nil || len(recs) != 3 {
				t.Fatalf("List = %v %v", recs, err)
			}
			// Sorted by kind then sub ID.
			if recs[0].Kind != "route" || recs[0].SubID != 0 || recs[2].Kind != "traffic" {
				t.Errorf("order: %v", recs)
			}

			// Upsert replaces.
			r1.Status = StatusDone
			r1.DurationMs = 123
			db.Upsert(r1)
			got, _, _ = db.Get("t1", "route", 0)
			if got.Status != StatusDone || got.DurationMs != 123 {
				t.Errorf("after upsert: %+v", got)
			}
		}},
		{"fence rejects a stale attempt", func(t *testing.T, db DB) {
			// Attempt 0 runs, master reclaims and bumps the epoch to 1.
			ok, err := db.FencedUpsert(Record{TaskID: "t", Kind: "route", SubID: 0, Status: StatusRunning, Worker: "w0", Attempts: 0})
			if err != nil || !ok {
				t.Fatalf("first write: %v %v", ok, err)
			}
			ok, err = db.FencedUpsert(Record{TaskID: "t", Kind: "route", SubID: 0, Status: StatusPending, Attempts: 1})
			if err != nil || !ok {
				t.Fatalf("reclaim write: %v %v", ok, err)
			}
			// The stale attempt-0 worker finishes late: its write must be rejected.
			ok, err = db.FencedUpsert(Record{TaskID: "t", Kind: "route", SubID: 0, Status: StatusDone, Worker: "w0", Attempts: 0})
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				t.Fatal("stale attempt overwrote newer epoch")
			}
			got, _, _ := db.Get("t", "route", 0)
			if got.Status != StatusPending || got.Attempts != 1 {
				t.Fatalf("record clobbered by stale attempt: %+v", got)
			}
			// Attempt 1's worker claims and completes: same-epoch writes apply.
			ok, _ = db.FencedUpsert(Record{TaskID: "t", Kind: "route", SubID: 0, Status: StatusRunning, Worker: "w1", Attempts: 1})
			if !ok {
				t.Fatal("same-epoch claim rejected")
			}
			ok, _ = db.FencedUpsert(Record{TaskID: "t", Kind: "route", SubID: 0, Status: StatusDone, Worker: "w1", Attempts: 1})
			if !ok {
				t.Fatal("same-epoch completion rejected")
			}
			got, _, _ = db.Get("t", "route", 0)
			if got.Status != StatusDone || got.Worker != "w1" {
				t.Fatalf("final record: %+v", got)
			}
		}},
		{"heartbeat touches only the matching running record", func(t *testing.T, db DB) {
			at := time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)

			// No record yet: miss.
			if ok, err := db.Heartbeat("t", "route", 0, 0, at); err != nil || ok {
				t.Fatalf("heartbeat on missing record: %v %v", ok, err)
			}
			db.Upsert(Record{TaskID: "t", Kind: "route", SubID: 0, Status: StatusRunning, Attempts: 2})

			// Wrong attempt: miss.
			if ok, _ := db.Heartbeat("t", "route", 0, 1, at); ok {
				t.Fatal("stale-attempt heartbeat applied")
			}
			// Matching attempt and running: applied.
			if ok, _ := db.Heartbeat("t", "route", 0, 2, at); !ok {
				t.Fatal("matching heartbeat missed")
			}
			got, _, _ := db.Get("t", "route", 0)
			if !got.HeartbeatAt.Equal(at) {
				t.Fatalf("HeartbeatAt = %v", got.HeartbeatAt)
			}
			// Done record: heartbeat is a no-op.
			db.Upsert(Record{TaskID: "t", Kind: "route", SubID: 0, Status: StatusDone, Attempts: 2})
			if ok, _ := db.Heartbeat("t", "route", 0, 2, at.Add(time.Minute)); ok {
				t.Fatal("heartbeat applied to done record")
			}
		}},
	}
	for _, b := range backends {
		for _, tc := range cases {
			t.Run(b.name+"/"+tc.name, func(t *testing.T) { tc.run(t, b.open(t)) })
		}
	}
}
