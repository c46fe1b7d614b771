package mq

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"hoyan/internal/durable"
)

// TestDurableQueueRecovery pushes a batch, pops some, crashes, and checks
// exactly the unpopped messages survive, in order.
func TestDurableQueueRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mq.wal")
	q := openDurableQ(t, path, durable.Options{Fsync: durable.SyncNever})
	for i := 0; i < 10; i++ {
		if err := q.Push("route", Message{ID: fmt.Sprintf("m%d", i), Kind: "route", Payload: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := q.Push("traffic", Message{ID: "tm0", Kind: "traffic"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		m, ok, err := q.Pop("route", time.Second)
		if !ok || err != nil || m.ID != fmt.Sprintf("m%d", i) {
			t.Fatalf("Pop %d = %+v ok=%v err=%v", i, m, ok, err)
		}
	}
	q.CrashClose()
	if _, _, err := q.Pop("route", time.Millisecond); !errors.Is(err, durable.ErrCrashed) {
		t.Fatalf("Pop after crash = %v, want ErrCrashed", err)
	}
	if err := q.Push("route", Message{}); !errors.Is(err, durable.ErrCrashed) {
		t.Fatalf("Push after crash = %v, want ErrCrashed", err)
	}

	q2 := openDurableQ(t, path, durable.Options{})
	defer q2.Close()
	if n, err := q2.Len("route"); n != 6 || err != nil {
		t.Fatalf("Len(route) after recovery = %d, %v", n, err)
	}
	if n, err := q2.Len("traffic"); n != 1 || err != nil {
		t.Fatalf("Len(traffic) after recovery = %d, %v", n, err)
	}
	for i := 4; i < 10; i++ {
		m, ok, err := q2.Pop("route", time.Second)
		if !ok || err != nil || m.ID != fmt.Sprintf("m%d", i) {
			t.Fatalf("recovered Pop %d = %+v ok=%v err=%v", i, m, ok, err)
		}
	}
	if _, ok, _ := q2.Pop("route", 10*time.Millisecond); ok {
		t.Fatal("extra message after recovery")
	}
}

// TestDurableQueueCrashWakesWaiters checks a blocked Pop returns ErrCrashed
// promptly (not ErrClosed, which workers treat as fatal).
func TestDurableQueueCrashWakesWaiters(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mq.wal")
	q := openDurableQ(t, path, durable.Options{})
	errc := make(chan error, 1)
	go func() {
		_, _, err := q.Pop("route", time.Minute)
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond)
	q.CrashClose()
	select {
	case err := <-errc:
		if !errors.Is(err, durable.ErrCrashed) {
			t.Fatalf("blocked Pop returned %v, want ErrCrashed", err)
		}
		if errors.Is(err, ErrClosed) {
			t.Fatal("crash must not look like orderly shutdown")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked Pop not woken by CrashClose")
	}
}

// TestDurableQueueTornTail tears the WAL mid-record: the queue reopens with
// the torn push dropped and everything before it intact.
func TestDurableQueueTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mq.wal")
	q := openDurableQ(t, path, durable.Options{Fsync: durable.SyncNever})
	if err := q.Push("route", Message{ID: "kept"}); err != nil {
		t.Fatal(err)
	}
	if err := q.Push("route", Message{ID: "torn"}); err != nil {
		t.Fatal(err)
	}
	q.CrashClose()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	q2 := openDurableQ(t, path, durable.Options{})
	defer q2.Close()
	m, ok, err := q2.Pop("route", time.Second)
	if !ok || err != nil || m.ID != "kept" {
		t.Fatalf("Pop = %+v ok=%v err=%v", m, ok, err)
	}
	if _, ok, _ := q2.Pop("route", 10*time.Millisecond); ok {
		t.Fatal("torn push survived")
	}
}

// TestDurableQueueCompaction drives the log past its threshold and checks
// the snapshot keeps only queued messages.
func TestDurableQueueCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mq.wal")
	q := openDurableQ(t, path, durable.Options{Fsync: durable.SyncNever, CompactEvery: 16})
	for i := 0; i < 100; i++ {
		if err := q.Push("route", Message{ID: fmt.Sprintf("m%d", i)}); err != nil {
			t.Fatal(err)
		}
		if _, ok, err := q.Pop("route", time.Second); !ok || err != nil {
			t.Fatalf("Pop %d: ok=%v err=%v", i, ok, err)
		}
	}
	if err := q.Push("route", Message{ID: "last"}); err != nil {
		t.Fatal(err)
	}
	q.Close()
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() > 2048 {
		t.Fatalf("mq WAL not compacted: %d bytes after 100 push/pop cycles", info.Size())
	}
	q2 := openDurableQ(t, path, durable.Options{})
	defer q2.Close()
	m, ok, err := q2.Pop("route", time.Second)
	if !ok || err != nil || m.ID != "last" {
		t.Fatalf("recovered Pop = %+v ok=%v err=%v", m, ok, err)
	}
}

// TestJournalReplayMatchesMemory feeds the same random operations to a
// journaled queue and an unjournaled one, kills the journaled one, and
// requires the reopened queue to hold exactly what the unjournaled machine
// holds: the journal adds durability, never behaviour. The small CompactEvery
// makes the replayed log a snapshot plus a tail several times over.
func TestJournalReplayMatchesMemory(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mq.wal")
	opts := durable.Options{Fsync: durable.SyncNever, CompactEvery: 7}
	journaled, memory := openDurableQ(t, path, opts), NewMemory(nil)
	rng := rand.New(rand.NewSource(17))
	topics := []string{"route", "traffic", "shard"}
	for i := 0; i < 300; i++ {
		topic := topics[rng.Intn(len(topics))]
		if rng.Intn(3) > 0 {
			m := Message{ID: fmt.Sprintf("m%d", i), Kind: topic, Payload: []byte{byte(i)}}
			if err := journaled.Push(topic, m); err != nil {
				t.Fatal(err)
			}
			memory.Push(topic, m)
			continue
		}
		got, ok, err := journaled.Pop(topic, 0)
		if err != nil {
			t.Fatal(err)
		}
		want, wantOK, _ := memory.Pop(topic, 0)
		if ok != wantOK || got.ID != want.ID {
			t.Fatalf("op %d: journaled Pop = %q %v, unjournaled %q %v", i, got.ID, ok, want.ID, wantOK)
		}
	}
	journaled.CrashClose()

	reopened := openDurableQ(t, path, opts)
	defer reopened.Close()
	for _, topic := range topics {
		for {
			want, wantOK, _ := memory.Pop(topic, 0)
			got, ok, err := reopened.Pop(topic, 0)
			if err != nil {
				t.Fatal(err)
			}
			if ok != wantOK || got.ID != want.ID || string(got.Payload) != string(want.Payload) {
				t.Fatalf("topic %s: replayed %q %v, unjournaled %q %v", topic, got.ID, ok, want.ID, wantOK)
			}
			if !ok {
				break
			}
		}
	}
}
