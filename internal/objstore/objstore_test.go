package objstore

import (
	"bytes"
	"errors"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"hoyan/internal/durable"
	"hoyan/internal/retry"
	"hoyan/internal/rpcx"
)

// backends is every way a caller can hold a Store: the in-memory and disk
// stores, a TCP client, and a retry-decorated handle. Each returns the handle
// under test and the StatsProvider behind it.
var backends = []struct {
	name string
	open func(t *testing.T) (Store, StatsProvider)
}{
	{"memory", func(t *testing.T) (Store, StatsProvider) {
		s := NewMemory(nil)
		return s, s
	}},
	{"disk", func(t *testing.T) (Store, StatsProvider) {
		d := openDisk(t, t.TempDir(), durable.Options{Fsync: durable.SyncNever})
		t.Cleanup(func() { d.Close() })
		return d, d
	}},
	{"tcp", func(t *testing.T) (Store, StatsProvider) {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		Serve(l, NewMemory(nil), nil)
		c, err := Dial(l.Addr().String(), rpcx.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c, c
	}},
	{"retry", func(t *testing.T) (Store, StatsProvider) {
		s, p := NewMemory(nil), retry.Default()
		p.Retryable = func(err error) bool { return !errors.Is(err, ErrNotFound) }
		return Decorate(func() Store { return s }, p.Hook), s
	}},
}

// TestStoreConformance is the Store contract, run against every backend.
func TestStoreConformance(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, s Store, stats StatsProvider)
	}{
		{"put, get, list, delete", func(t *testing.T, s Store, stats StatsProvider) {
			blob := bytes.Repeat([]byte("route-data"), 1000)
			if err := s.Put("task/1/input", []byte("abc")); err != nil {
				t.Fatal(err)
			}
			got, err := s.Get("task/1/input")
			if err != nil || !bytes.Equal(got, []byte("abc")) {
				t.Fatalf("Get = %q %v", got, err)
			}
			// Mutating the returned slice must not affect the stored object.
			got[0] = 'X'
			again, _ := s.Get("task/1/input")
			if !bytes.Equal(again, []byte("abc")) {
				t.Error("store aliased caller memory")
			}
			if _, err := s.Get("nope"); !errors.Is(err, ErrNotFound) {
				t.Errorf("missing key err = %v", err)
			}
			s.Put("task/1/result", blob)
			s.Put("task/2/input", []byte("i"))
			// Put overwrites.
			s.Put("task/2/input", []byte("i-v2"))
			if got, _ := s.Get("task/2/input"); string(got) != "i-v2" {
				t.Errorf("overwritten object = %q", got)
			}
			if got, _ := s.Get("task/1/result"); !bytes.Equal(got, blob) {
				t.Errorf("large object: len=%d", len(got))
			}
			keys, err := s.List("task/1/")
			if err != nil || !slices.Equal(keys, []string{"task/1/input", "task/1/result"}) {
				t.Errorf("List = %v %v", keys, err)
			}
			if err := s.Delete("task/1/input"); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Get("task/1/input"); !errors.Is(err, ErrNotFound) {
				t.Error("delete did not remove object")
			}
			if err := s.Delete("task/1/input"); err != nil {
				t.Errorf("deleting an absent key: %v", err)
			}
			if st := stats.Stats(); st.Puts != 4 || st.Gets != 4 || st.BytesIn == 0 || st.BytesOut == 0 {
				t.Errorf("transfer counters: %+v", st)
			}
		}},
		{"concurrent writers and readers", func(t *testing.T, s Store, _ StatsProvider) {
			var wg sync.WaitGroup
			for i := 0; i < 16; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					key := string(rune('a' + i))
					for j := 0; j < 100; j++ {
						s.Put(key, []byte{byte(j)})
						if _, err := s.Get(key); err != nil {
							t.Error(err)
							return
						}
					}
				}(i)
			}
			wg.Wait()
		}},
	}
	for _, b := range backends {
		for _, tc := range cases {
			t.Run(b.name+"/"+tc.name, func(t *testing.T) {
				s, stats := b.open(t)
				tc.run(t, s, stats)
			})
		}
	}
}

func TestRPCHungServerTimesOut(t *testing.T) {
	// A server that accepts and never responds must not block Get forever:
	// the per-call I/O deadline fires.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var held net.Conn
	accepted := make(chan struct{})
	go func() {
		held, _ = l.Accept()
		close(accepted)
	}()
	defer func() {
		<-accepted
		if held != nil {
			held.Close()
		}
	}()

	c, err := Dial(l.Addr().String(), rpcx.Options{CallTimeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	if _, err := c.Get("k"); err == nil {
		t.Fatal("Get from hung server succeeded")
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("Get blocked %v despite 100ms call timeout", d)
	}
}
