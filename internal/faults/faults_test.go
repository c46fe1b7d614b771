package faults

import (
	"errors"
	"testing"
	"time"

	"hoyan/internal/mq"
	"hoyan/internal/objstore"
	"hoyan/internal/taskdb"
)

func TestInjectorDeterministicAndRateBounded(t *testing.T) {
	run := func(seed int64) []bool {
		in := NewInjector(seed)
		in.ErrorRate = 0.3
		var out []bool
		for i := 0; i < 1000; i++ {
			out = append(out, in.point("op") != nil)
		}
		return out
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at op %d", i)
		}
	}
	fails := 0
	for _, f := range a {
		if f {
			fails++
		}
	}
	if fails < 200 || fails > 400 {
		t.Fatalf("injected %d/1000 at rate 0.3", fails)
	}
	points, injected := func() (int64, int64) {
		in := NewInjector(42)
		in.ErrorRate = 0.3
		for i := 0; i < 10; i++ {
			in.point("op")
		}
		return in.Stats()
	}()
	if points != 10 || injected < 0 || injected > 10 {
		t.Fatalf("Stats = %d, %d", points, injected)
	}
}

func TestInjectedErrorsAreMarked(t *testing.T) {
	in := NewInjector(1)
	in.ErrorRate = 1
	err := in.point("store.Get")
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v", err)
	}
}

// flaky returns the three substrate handles hooked to in, plus the raw
// substrates behind them.
func flaky(in *Injector) (objstore.Store, mq.Queue, taskdb.DB, *objstore.Memory, *mq.Local) {
	s, q, db := objstore.NewMemory(nil), mq.NewMemory(nil), taskdb.NewMemory()
	return objstore.Decorate(func() objstore.Store { return s }, in.Hook),
		mq.Decorate(func() mq.Queue { return q }, in.Hook),
		taskdb.Decorate(func() taskdb.DB { return db }, in.Hook), s, q
}

// seedPassFail finds a seed whose first injection point passes and whose
// second fails at rate 0.5, so a hooked op runs for real and then loses its
// acknowledgement.
func seedPassFail(t *testing.T) *Injector {
	t.Helper()
	for seed := int64(1); seed < 1000; seed++ {
		probe := NewInjector(seed)
		probe.ErrorRate = 0.5
		if probe.point("a") == nil && probe.point("b") != nil {
			in := NewInjector(seed)
			in.ErrorRate = 0.5
			return in
		}
	}
	t.Fatal("no suitable seed found")
	return nil
}

func TestHookPutAfterFailureStillStores(t *testing.T) {
	// An "ack lost" Put failure must leave the object stored: this is the
	// case idempotent retried Puts paper over.
	s, _, _, mem, _ := flaky(seedPassFail(t))
	if err := s.Put("k", []byte("v")); !errors.Is(err, ErrInjected) {
		t.Fatalf("Put = %v, want injected after-failure", err)
	}
	got, err := mem.Get("k")
	if err != nil || string(got) != "v" {
		t.Fatalf("object missing after ack-lost Put: %q %v", got, err)
	}
}

func TestHookPopAfterFailureLosesMessage(t *testing.T) {
	_, q, _, _, mem := flaky(seedPassFail(t))
	if err := mem.Push("t", mq.Message{ID: "m1"}); err != nil {
		t.Fatal(err)
	}
	_, ok, err := q.Pop("t", 10*time.Millisecond)
	if err == nil || ok {
		t.Fatalf("Pop = ok=%v err=%v, want injected after-failure", ok, err)
	}
	// The message is gone: lost in flight, exactly what lease reclaim covers.
	if n, _ := mem.Len("t"); n != 0 {
		t.Fatalf("queue len = %d, want 0 (message lost)", n)
	}
}

// TestHookInjectionPoints pins which operations get which points: a before
// point on everything but mq.Len, an ack point only on Put / Push / Upsert /
// FencedUpsert and on a Pop that delivered a message.
func TestHookInjectionPoints(t *testing.T) {
	in := NewInjector(1) // rate 0: never fails, only counts
	s, q, db, _, _ := flaky(in)
	rec := taskdb.Record{TaskID: "t", Kind: "route", Status: taskdb.StatusRunning}
	steps := []struct {
		op     string
		run    func()
		points int64
	}{
		{"store.Put", func() { s.Put("k", []byte("v")) }, 2},
		{"store.Get", func() { s.Get("k") }, 1},
		{"store.List", func() { s.List("") }, 1},
		{"store.Delete", func() { s.Delete("k") }, 1},
		{"mq.Len", func() { q.Len("t") }, 0},
		{"mq.Pop (empty)", func() { q.Pop("t", 0) }, 1},
		{"mq.Push", func() { q.Push("t", mq.Message{ID: "m"}) }, 2},
		{"mq.Pop (delivered)", func() { q.Pop("t", 0) }, 2},
		{"tasks.Upsert", func() { db.Upsert(rec) }, 2},
		{"tasks.FencedUpsert", func() { db.FencedUpsert(rec) }, 2},
		{"tasks.Heartbeat", func() { db.Heartbeat("t", "route", 0, 0, time.Now()) }, 1},
		{"tasks.Get", func() { db.Get("t", "route", 0) }, 1},
		{"tasks.List", func() { db.List("t") }, 1},
	}
	for _, st := range steps {
		before, _ := in.Stats()
		st.run()
		if after, _ := in.Stats(); after-before != st.points {
			t.Errorf("%s fired %d injection points, want %d", st.op, after-before, st.points)
		}
	}

	in.ErrorRate = 1
	if _, err := q.Len("t"); err != nil {
		t.Fatalf("Len injected an error: %v", err)
	}
	if _, err := s.Get("k"); !errors.Is(err, ErrInjected) {
		t.Fatalf("Get at rate 1 = %v, want injected", err)
	}
}
