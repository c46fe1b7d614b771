// Package mq provides the message-queue substrate of the distributed
// simulation framework (Figure 3): the master pushes one message per subtask
// and each working server pops messages from the topic it listens to.
//
// One state machine, Local, is the queue: in memory alone (NewMemory) or
// logging every push and pop to a journal first (OpenDurable). A TCP
// server/client pair (net/rpc over gob) lets masters and workers run as
// separate OS processes, standing in for the production message-queue
// service, and Decorate routes a handle's calls through a hook (retries,
// fault injection, crash-and-reopen).
package mq

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"hoyan/internal/durable"
	"hoyan/internal/telemetry"
)

// Message is one queue entry. Payload is opaque to the queue (the framework
// stores JSON-encoded subtask metadata).
type Message struct {
	ID      string
	Kind    string
	Payload []byte
}

// Queue is the interface every handle satisfies.
type Queue interface {
	// Push appends a message to a topic.
	Push(topic string, m Message) error
	// Pop removes the oldest message from a topic, waiting up to wait for
	// one to arrive. ok is false on timeout.
	Pop(topic string, wait time.Duration) (m Message, ok bool, err error)
	// Len returns the number of queued messages in a topic.
	Len(topic string) (int, error)
}

// ErrClosed is returned after Close.
var ErrClosed = errors.New("mq: queue closed")

// Stats is a point-in-time copy of a queue's counters: the same
// StatsProvider shape the object store exposes, so the fleet binaries gather
// both through one seam.
type Stats struct {
	// Pushes counts accepted messages; Pops counts delivered messages (empty
	// poll timeouts are not pops). Depth is the number of messages currently
	// queued across all topics.
	Pushes int64 `json:"pushes"`
	Pops   int64 `json:"pops"`
	Depth  int64 `json:"depth"`
}

// StatsProvider is implemented by queues that track counters.
type StatsProvider interface {
	Stats() Stats
}

// Local is the in-process Queue. With a journal every push and pop is logged
// before it takes effect, so a restart replays the log and recovers exactly
// the undelivered messages — a message pushed but never popped survives the
// queue process dying; without one (NewMemory) the same machine runs in
// memory alone. Safe for concurrent use.
//
// Journaled delivery is at-least-once across a crash window (a pop whose log
// record was lost is re-delivered after recovery); the framework's attempt
// fencing makes duplicate delivery harmless.
type Local struct {
	mu     sync.Mutex
	cond   *sync.Cond
	topics map[string][]Message
	j      *durable.Journal // nil: in memory only
	closed bool

	pushes *telemetry.Counter
	pops   *telemetry.Counter
	depth  *telemetry.Gauge
}

// journalRec is one journal record: an accepted push or a delivered pop.
type journalRec struct {
	Op    string   `json:"op"` // "push" or "pop"
	Topic string   `json:"topic"`
	Msg   *Message `json:"msg,omitempty"` // push only
}

// NewMemory creates an empty in-memory queue whose counters are registered
// in reg (nil reg = detached).
func NewMemory(reg *telemetry.Registry) *Local {
	q := &Local{
		topics: make(map[string][]Message),
		pushes: reg.Counter("hoyan_mq_pushes_total", "messages accepted by the queue"),
		pops:   reg.Counter("hoyan_mq_pops_total", "messages delivered by the queue"),
		depth:  reg.Gauge("hoyan_mq_depth", "messages currently queued across all topics"),
	}
	q.cond = sync.NewCond(&q.mu)
	q.depth.Set(0)
	return q
}

// OpenDurable opens (creating if necessary) a journaled queue persisted at
// path, replaying any existing log to rebuild the undelivered messages. Its
// counters and the journal's durability metrics are registered in reg.
func OpenDurable(path string, opts durable.Options, reg *telemetry.Registry) (*Local, error) {
	q := NewMemory(reg)
	j, err := durable.OpenJournal(path, opts, durable.NewMetrics(reg, "mq"), func(rec journalRec) error {
		switch rec.Op {
		case "push":
			if rec.Msg == nil {
				return fmt.Errorf("mq push record without message")
			}
			q.topics[rec.Topic] = append(q.topics[rec.Topic], *rec.Msg)
		case "pop":
			if ms := q.topics[rec.Topic]; len(ms) > 0 {
				q.topics[rec.Topic] = ms[1:]
			}
		default:
			return fmt.Errorf("bad mq op %q", rec.Op)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	q.j = j
	q.depth.Set(float64(q.depthLocked()))
	return q, nil
}

func (q *Local) depthLocked() int64 {
	var n int64
	for _, ms := range q.topics {
		n += int64(len(ms))
	}
	return n
}

// Stats implements StatsProvider.
func (q *Local) Stats() Stats {
	q.mu.Lock()
	defer q.mu.Unlock()
	return Stats{Pushes: q.pushes.Value(), Pops: q.pops.Value(), Depth: q.depthLocked()}
}

// stateErrLocked reports why the queue answers nothing: crashed (transient —
// workers keep retrying until a reopened queue takes over) or closed (fatal
// to workers — this is orderly shutdown).
func (q *Local) stateErrLocked() error {
	if err := q.j.Down(); err != nil {
		return err
	}
	if q.closed {
		return ErrClosed
	}
	return nil
}

// snapshotLocked is the journal's compaction state: one push record per
// queued message.
func (q *Local) snapshotLocked() []any {
	var snap []any
	for topic, ms := range q.topics {
		for i := range ms {
			snap = append(snap, journalRec{Op: "push", Topic: topic, Msg: &ms[i]})
		}
	}
	return snap
}

// Push implements Queue.
func (q *Local) Push(topic string, m Message) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if err := q.stateErrLocked(); err != nil {
		return err
	}
	if err := q.j.Log(journalRec{Op: "push", Topic: topic, Msg: &m}, q.snapshotLocked); err != nil {
		return err
	}
	q.topics[topic] = append(q.topics[topic], m)
	q.pushes.Inc()
	q.depth.Add(1)
	q.cond.Broadcast()
	return nil
}

// Pop implements Queue: the pop is logged before the message is handed out,
// so a delivered message is never re-delivered after a clean restart (an
// unlogged delivery — crash between log and hand-off — errs on the safe side
// and re-delivers).
func (q *Local) Pop(topic string, wait time.Duration) (Message, bool, error) {
	deadline := time.Now().Add(wait)
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if err := q.stateErrLocked(); err != nil {
			return Message{}, false, err
		}
		if ms := q.topics[topic]; len(ms) > 0 {
			if err := q.j.Log(journalRec{Op: "pop", Topic: topic}, q.snapshotLocked); err != nil {
				return Message{}, false, err
			}
			m := ms[0]
			q.topics[topic] = ms[1:]
			q.pops.Inc()
			q.depth.Add(-1)
			return m, true, nil
		}
		remain := time.Until(deadline)
		if remain <= 0 {
			return Message{}, false, nil
		}
		// Wake periodically to honor the deadline without a timer per call.
		waker := time.AfterFunc(remain, q.cond.Broadcast)
		q.cond.Wait()
		waker.Stop()
	}
}

// Len implements Queue.
func (q *Local) Len(topic string) (int, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if err := q.stateErrLocked(); err != nil {
		return 0, err
	}
	return len(q.topics[topic]), nil
}

// Healthy reports nil while durable writes are landing.
func (q *Local) Healthy() error { return q.j.Healthy() }

// Close wakes all waiters, flushes the journal, and rejects further
// operations with ErrClosed.
func (q *Local) Close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.stateErrLocked() != nil {
		return
	}
	q.closed = true
	q.cond.Broadcast()
	q.j.Close()
}

// CrashClose simulates the queue process dying: waiters wake and every
// subsequent operation fails with durable.ErrCrashed — transient, unlike
// ErrClosed — until a queue reopened over the same path takes over.
func (q *Local) CrashClose() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.stateErrLocked() != nil {
		return
	}
	q.j.CrashClose()
	q.cond.Broadcast()
}

// Decorate returns a Queue that routes every operation through hook. get
// supplies the handle each call runs against and is evaluated inside the
// hook, so a hook that swaps handles (crash-and-reopen) takes effect on the
// next call. call reports whether the operation had an effect whose
// acknowledgement matters — a message enqueued or dequeued: fault injection
// loses exactly those replies, everything else ignores it.
func Decorate(get func() Queue, hook func(op string, call func() (acked bool, err error)) error) Queue {
	return &decorated{get: get, hook: hook}
}

type decorated struct {
	get  func() Queue
	hook func(op string, call func() (bool, error)) error
}

func (d *decorated) Push(topic string, m Message) error {
	return d.hook("mq.Push", func() (bool, error) {
		err := d.get().Push(topic, m)
		return err == nil, err
	})
}

func (d *decorated) Pop(topic string, wait time.Duration) (m Message, ok bool, err error) {
	err = d.hook("mq.Pop", func() (bool, error) {
		var e error
		m, ok, e = d.get().Pop(topic, wait)
		return ok, e
	})
	if err != nil {
		return Message{}, false, err
	}
	return m, ok, nil
}

func (d *decorated) Len(topic string) (n int, err error) {
	err = d.hook("mq.Len", func() (bool, error) {
		var e error
		n, e = d.get().Len(topic)
		return false, e
	})
	return n, err
}
