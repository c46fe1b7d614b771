package mq

import (
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"hoyan/internal/durable"
	"hoyan/internal/retry"
	"hoyan/internal/rpcx"
)

// backends is every way a caller can hold a Queue: the state machine without
// and with a journal, a TCP client of it, and a retry-decorated handle. Each
// returns the handle under test and the Local behind it.
var backends = []struct {
	name string
	open func(t *testing.T) (Queue, *Local)
}{
	{"unjournaled", func(t *testing.T) (Queue, *Local) {
		q := NewMemory(nil)
		return q, q
	}},
	{"journaled", func(t *testing.T) (Queue, *Local) {
		q := openDurableQ(t, filepath.Join(t.TempDir(), "mq.wal"), durable.Options{Fsync: durable.SyncNever})
		t.Cleanup(q.Close)
		return q, q
	}},
	{"tcp", func(t *testing.T) (Queue, *Local) {
		q := NewMemory(nil)
		return dialServed(t, q, rpcx.Options{}), q
	}},
	{"retry", func(t *testing.T) (Queue, *Local) {
		q := NewMemory(nil)
		p := retry.Default()
		p.Retryable = func(err error) bool { return !errors.Is(err, ErrClosed) }
		return Decorate(func() Queue { return q }, p.Hook), q
	}},
}

// dialServed serves q on a loopback listener and dials it.
func dialServed(t *testing.T, q Queue, opts rpcx.Options) *Client {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	Serve(l, q, nil)
	c, err := Dial(l.Addr().String(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func openDurableQ(t *testing.T, path string, opts durable.Options) *Local {
	t.Helper()
	q, err := OpenDurable(path, opts, nil)
	if err != nil {
		t.Fatalf("OpenDurable(%s): %v", path, err)
	}
	return q
}

// TestQueueConformance is the Queue contract, run against every backend.
func TestQueueConformance(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, q Queue, local *Local)
	}{
		{"fifo per topic, payload intact", func(t *testing.T, q Queue, _ *Local) {
			if err := q.Push("t", Message{ID: "1", Kind: "route", Payload: []byte("data")}); err != nil {
				t.Fatal(err)
			}
			if err := q.Push("t", Message{ID: "2"}); err != nil {
				t.Fatal(err)
			}
			if err := q.Push("other", Message{ID: "o"}); err != nil {
				t.Fatal(err)
			}
			if n, err := q.Len("t"); n != 2 || err != nil {
				t.Errorf("Len = %d, %v", n, err)
			}
			m, ok, err := q.Pop("t", time.Second)
			if err != nil || !ok || m.ID != "1" || m.Kind != "route" || string(m.Payload) != "data" {
				t.Fatalf("Pop = %+v %v %v (FIFO order)", m, ok, err)
			}
			m, ok, _ = q.Pop("t", time.Second)
			if !ok || m.ID != "2" {
				t.Fatalf("Pop = %+v %v", m, ok)
			}
			if n, _ := q.Len("other"); n != 1 {
				t.Errorf("Len(other) = %d after draining t", n)
			}
		}},
		{"empty pop waits out its deadline", func(t *testing.T, q Queue, _ *Local) {
			start := time.Now()
			_, ok, err := q.Pop("empty", 30*time.Millisecond)
			if err != nil || ok {
				t.Fatalf("want timeout, got %v %v", ok, err)
			}
			if time.Since(start) < 25*time.Millisecond {
				t.Error("returned before the deadline")
			}
		}},
		{"push wakes a parked pop", func(t *testing.T, q Queue, _ *Local) {
			done := make(chan Message, 1)
			go func() {
				m, ok, _ := q.Pop("t", 2*time.Second)
				if ok {
					done <- m
				}
				close(done)
			}()
			time.Sleep(10 * time.Millisecond)
			if err := q.Push("t", Message{ID: "late"}); err != nil {
				t.Fatal(err)
			}
			select {
			case m, ok := <-done:
				if !ok || m.ID != "late" {
					t.Fatalf("got %v %v", m, ok)
				}
			case <-time.After(time.Second):
				t.Fatal("consumer never woke up")
			}
		}},
		{"concurrent consumers get each message once", func(t *testing.T, q Queue, _ *Local) {
			const n = 100
			for i := 0; i < n; i++ {
				if err := q.Push("t", Message{ID: fmt.Sprint(i)}); err != nil {
					t.Fatal(err)
				}
			}
			var mu sync.Mutex
			seen := map[string]bool{}
			var wg sync.WaitGroup
			for w := 0; w < 8; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						m, ok, err := q.Pop("t", 50*time.Millisecond)
						if err != nil || !ok {
							return
						}
						mu.Lock()
						if seen[m.ID] {
							t.Errorf("message %s delivered twice", m.ID)
						}
						seen[m.ID] = true
						mu.Unlock()
					}
				}()
			}
			wg.Wait()
			if len(seen) != n {
				t.Errorf("delivered %d of %d", len(seen), n)
			}
		}},
		// A worker deciding whether to keep consuming must see the ErrClosed
		// sentinel through every handle, a TCP hop and a retry policy included.
		{"close is ErrClosed on every op", func(t *testing.T, q Queue, local *Local) {
			local.Close()
			if err := q.Push("t", Message{ID: "x"}); !errors.Is(err, ErrClosed) {
				t.Errorf("Push after close: %v, want ErrClosed", err)
			}
			if _, _, err := q.Pop("t", 10*time.Millisecond); !errors.Is(err, ErrClosed) {
				t.Errorf("Pop after close: %v, want ErrClosed", err)
			}
			if _, err := q.Len("t"); !errors.Is(err, ErrClosed) {
				t.Errorf("Len after close: %v, want ErrClosed", err)
			}
		}},
	}
	for _, b := range backends {
		for _, tc := range cases {
			t.Run(b.name+"/"+tc.name, func(t *testing.T) {
				q, local := b.open(t)
				tc.run(t, q, local)
			})
		}
	}
}

func TestRPCHungServerTimesOut(t *testing.T) {
	// A server that accepts and never speaks gob must not wedge the client
	// forever: the per-call I/O deadline fires instead.
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
	if err := c.Push("t", Message{ID: "x"}); err == nil {
		t.Fatal("Push to hung server succeeded")
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("Push blocked %v despite 100ms call timeout", d)
	}
}

func TestRPCPopChunkStaysUnderCallTimeout(t *testing.T) {
	// A long Pop wait must be sliced into chunks shorter than the I/O
	// deadline, or an idle (but healthy) queue would look like a dead server.
	c := dialServed(t, NewMemory(nil), rpcx.Options{CallTimeout: 300 * time.Millisecond})
	// Wait longer than the call timeout: must return a clean timeout (no
	// message), not an I/O error.
	if _, ok, err := c.Pop("idle", 700*time.Millisecond); ok || err != nil {
		t.Fatalf("Pop on idle queue = ok=%v err=%v, want clean timeout", ok, err)
	}
}

func TestRPCTwoClients(t *testing.T) {
	q := NewMemory(nil)
	producer := dialServed(t, q, rpcx.Options{})
	consumer := dialServed(t, q, rpcx.Options{})

	go func() {
		time.Sleep(20 * time.Millisecond)
		producer.Push("jobs", Message{ID: "job-1"})
	}()
	m, ok, err := consumer.Pop("jobs", 2*time.Second)
	if err != nil || !ok || m.ID != "job-1" {
		t.Fatalf("cross-client delivery failed: %v %v %v", m, ok, err)
	}
}
