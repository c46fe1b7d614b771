// Package faults provides deterministic fault injection for the distributed
// simulation substrates: seeded per-operation error and latency injection
// hooked into the message queue, object store, and subtask database handles.
// The chaos tests drive the full route+traffic pipeline through these hooks
// and assert the results stay byte-identical to a clean run — the property
// the paper's master/worker protocol (resend failed subtasks, idempotent
// result files) is supposed to guarantee.
//
// Injection points are split into "before" (the wrapped operation never runs
// — a request lost on the way in) and "after" (the operation ran but the
// reply is lost — the nastier case, since a popped message or an acknowledged
// write silently disappears from the caller's view). Both fire with the same
// configured rate.
package faults

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// ErrInjected marks every injected error; retry policies classify it as
// transient like any other unknown error.
var ErrInjected = errors.New("faults: injected error")

// Injector decides, per operation, whether to inject an error or latency.
// One Injector may back several handles; it is safe for concurrent use and
// its decisions are a deterministic function of the seed and call order
// (concurrent callers interleave nondeterministically, but the overall
// error rate and reproducibility-per-sequence are preserved).
type Injector struct {
	// ErrorRate is the per-injection-point probability of failing an
	// operation (each op has up to two points: before and after).
	ErrorRate float64
	// MaxLatency, when > 0, sleeps a uniform [0, MaxLatency) before each
	// operation.
	MaxLatency time.Duration

	mu       sync.Mutex
	rng      *rand.Rand
	ops      int64
	injected int64
}

// NewInjector creates an injector with the given deterministic seed.
func NewInjector(seed int64) *Injector {
	return &Injector{rng: rand.New(rand.NewSource(seed))}
}

// point is one injection point; op names the operation for the error text.
func (in *Injector) point(op string) error {
	in.mu.Lock()
	fail := in.rng.Float64() < in.ErrorRate
	var delay time.Duration
	if in.MaxLatency > 0 {
		delay = time.Duration(in.rng.Int63n(int64(in.MaxLatency)))
	}
	in.ops++
	if fail {
		in.injected++
	}
	in.mu.Unlock()
	if delay > 0 {
		time.Sleep(delay)
	}
	if fail {
		return fmt.Errorf("%w: %s", ErrInjected, op)
	}
	return nil
}

// Stats reports how many injection points fired and how many injected an
// error.
func (in *Injector) Stats() (points, injected int64) {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.ops, in.injected
}

// Hook is the injector as a substrate call hook (mq.Decorate,
// objstore.Decorate, taskdb.Decorate): a "before" point on every operation,
// and an "after" point on the ones whose call reports an effect to acknowledge
// — Put, Push, Upsert, FencedUpsert, and a Pop that delivered a message.
// After-failures are the nasty ones: the object was stored, the message
// enqueued (a retried Push duplicates it) or dequeued (it is silently LOST —
// exactly the crash window lease reclaim exists for), the write landed, and
// the caller sees an error all the same, so retried writes must be
// idempotent. mq.Len is never failed: the master's pending-reclaim sweep uses
// it as its loss heuristic, and an in-process queue cannot misreport.
func (in *Injector) Hook(op string, call func() (acked bool, err error)) error {
	if op == "mq.Len" {
		_, err := call()
		return err
	}
	if err := in.point(op); err != nil {
		return err
	}
	acked, err := call()
	if err != nil || !acked {
		return err
	}
	return in.point(op + "(ack)")
}
