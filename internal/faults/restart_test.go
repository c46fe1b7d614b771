package faults

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"hoyan/internal/durable"
	"hoyan/internal/mq"
	"hoyan/internal/objstore"
	"hoyan/internal/taskdb"
)

// TestRestartableDownWindow checks a Restartable of each kind fails every
// operation with ErrDown while crashed and comes back after Reopen — with
// state served by whatever the reopen hook recovered.
func TestRestartableDownWindow(t *testing.T) {
	storeR := NewRestartable[objstore.Store](objstore.NewMemory(nil), func() (objstore.Store, error) {
		s := objstore.NewMemory(nil)
		if err := s.Put("recovered", []byte("x")); err != nil {
			return nil, err
		}
		return s, nil
	})
	store := objstore.Decorate(storeR.Handle, storeR.Hook)
	if err := store.Put("a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	storeR.Crash()
	if err := store.Put("a", []byte("2")); !errors.Is(err, ErrDown) {
		t.Fatalf("Put while down: %v, want ErrDown", err)
	}
	if _, err := store.Get("a"); !errors.Is(err, ErrDown) {
		t.Fatalf("Get while down: %v, want ErrDown", err)
	}
	if _, err := store.List(""); !errors.Is(err, ErrDown) {
		t.Fatalf("List while down: %v, want ErrDown", err)
	}
	if err := store.Delete("a"); !errors.Is(err, ErrDown) {
		t.Fatalf("Delete while down: %v, want ErrDown", err)
	}
	if err := storeR.Reopen(); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Get("recovered"); err != nil {
		t.Fatalf("Get after reopen: %v", err)
	}
	if crashes, downOps := storeR.Crashes(); crashes != 1 || downOps != 4 {
		t.Errorf("Crashes() = %d, %d; want 1, 4", crashes, downOps)
	}

	qR := NewRestartable[mq.Queue](mq.NewMemory(nil), func() (mq.Queue, error) {
		return mq.NewMemory(nil), nil
	})
	q := mq.Decorate(qR.Handle, qR.Hook)
	qR.Crash()
	if err := q.Push("t", mq.Message{ID: "m"}); !errors.Is(err, ErrDown) {
		t.Fatalf("Push while down: %v, want ErrDown", err)
	}
	if _, _, err := q.Pop("t", time.Millisecond); !errors.Is(err, ErrDown) {
		t.Fatalf("Pop while down: %v, want ErrDown", err)
	}
	if _, err := q.Len("t"); !errors.Is(err, ErrDown) {
		t.Fatalf("Len while down: %v, want ErrDown", err)
	}
	if err := qR.Reopen(); err != nil {
		t.Fatal(err)
	}
	if err := q.Push("t", mq.Message{ID: "m"}); err != nil {
		t.Fatalf("Push after reopen: %v", err)
	}

	dbR := NewRestartable[taskdb.DB](taskdb.NewMemory(), func() (taskdb.DB, error) {
		return taskdb.NewMemory(), nil
	})
	db := taskdb.Decorate(dbR.Handle, dbR.Hook)
	dbR.Crash()
	if err := db.Upsert(taskdb.Record{TaskID: "t"}); !errors.Is(err, ErrDown) {
		t.Fatalf("Upsert while down: %v, want ErrDown", err)
	}
	if _, err := db.FencedUpsert(taskdb.Record{TaskID: "t"}); !errors.Is(err, ErrDown) {
		t.Fatalf("FencedUpsert while down: %v, want ErrDown", err)
	}
	if _, err := db.Heartbeat("t", "route", 0, 0, time.Now()); !errors.Is(err, ErrDown) {
		t.Fatalf("Heartbeat while down: %v, want ErrDown", err)
	}
	if _, _, err := db.Get("t", "route", 0); !errors.Is(err, ErrDown) {
		t.Fatalf("Get while down: %v, want ErrDown", err)
	}
	if _, err := db.List("t"); !errors.Is(err, ErrDown) {
		t.Fatalf("List while down: %v, want ErrDown", err)
	}
	if err := dbR.Reopen(); err != nil {
		t.Fatal(err)
	}
	if err := db.Upsert(taskdb.Record{TaskID: "t"}); err != nil {
		t.Fatalf("Upsert after reopen: %v", err)
	}
}

// TestRestartableCrashWakesParkedPop checks the one lock rule of the down
// window: a Pop parked on an empty journaled queue does not hold off Crash,
// and Crash wakes it with the transient crash error.
func TestRestartableCrashWakesParkedPop(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mq.wal")
	open := func() (mq.Queue, error) { return mq.OpenDurable(path, durable.Options{}, nil) }
	first, err := open()
	if err != nil {
		t.Fatal(err)
	}
	qR := NewRestartable(first, open)
	q := mq.Decorate(qR.Handle, qR.Hook)
	errc := make(chan error, 1)
	go func() {
		_, _, err := q.Pop("t", time.Minute)
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond)
	crashed := make(chan struct{})
	go func() {
		qR.Crash()
		close(crashed)
	}()
	select {
	case <-crashed:
	case <-time.After(5 * time.Second):
		t.Fatal("Crash blocked behind a parked Pop")
	}
	select {
	case err := <-errc:
		if !errors.Is(err, durable.ErrCrashed) {
			t.Fatalf("parked Pop returned %v, want ErrCrashed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked Pop not woken by Crash")
	}
	if err := qR.Reopen(); err != nil {
		t.Fatal(err)
	}
	qR.Handle().(*mq.Local).Close()
}

// TestTearTailAndFlipByte pins the file-corruption helpers the restart chaos
// tests build on.
func TestTearTailAndFlipByte(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	if err := os.WriteFile(path, []byte("0123456789"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := TearTail(path, 3); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "0123456" {
		t.Fatalf("after TearTail(3): %q", got)
	}
	if err := TearTail(path, 100); err != nil {
		t.Fatal(err)
	}
	if got, _ = os.ReadFile(path); len(got) != 0 {
		t.Fatalf("TearTail past start left %q", got)
	}

	if err := os.WriteFile(path, []byte{0x00, 0x10, 0x20}, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := FlipByte(path, 1); err != nil {
		t.Fatal(err)
	}
	if err := FlipByte(path, -1); err != nil {
		t.Fatal(err)
	}
	got, _ = os.ReadFile(path)
	if got[0] != 0x00 || got[1] != 0xEF || got[2] != 0xDF {
		t.Fatalf("after flips: %x", got)
	}
}
