package faults

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
)

// ErrDown is the transient error every operation on a crashed Restartable
// returns until Reopen swaps a fresh substrate in. Retry policies classify it
// like any other unknown error: transient.
var ErrDown = errors.New("faults: substrate down (restarting)")

// Crasher is the crash hook the journaled substrates expose: drop the backing
// file handles without flushing, as a killed process would.
type Crasher interface {
	CrashClose()
}

// Restartable is a substrate handle (T is mq.Queue, objstore.Store or
// taskdb.DB) whose backing can be killed — CrashClose, as a process crash
// would — and reopened from its on-disk state mid-run. Decorate a handle with
// its Handle and Hook: while down, every operation fails with ErrDown, a
// transient error, so retry-wrapped callers ride the restart out.
type Restartable[T any] struct {
	mu      sync.RWMutex
	cur     atomic.Pointer[T]
	reopen  func() (T, error)
	down    bool
	crashes int
	downOps atomic.Int64
}

// NewRestartable wraps s; reopen recovers a fresh substrate from the same
// on-disk state after a crash.
func NewRestartable[T any](s T, reopen func() (T, error)) *Restartable[T] {
	r := &Restartable[T]{reopen: reopen}
	r.cur.Store(&s)
	return r
}

// Handle returns the current substrate.
func (r *Restartable[T]) Handle() T { return *r.cur.Load() }

// Crash kills the current substrate: its file handles are dropped unflushed
// (when it implements Crasher; that wakes a queue's blocked Pop waiters with
// the transient crash error, not ErrClosed, so workers survive) and every
// operation fails until Reopen.
func (r *Restartable[T]) Crash() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := any(r.Handle()).(Crasher); ok {
		c.CrashClose()
	}
	r.down = true
	r.crashes++
}

// Reopen recovers the substrate from disk and brings the handle back up.
func (r *Restartable[T]) Reopen() error {
	s, err := r.reopen()
	if err != nil {
		return err
	}
	r.mu.Lock()
	r.cur.Store(&s)
	r.down = false
	r.mu.Unlock()
	return nil
}

// Crashes reports how many times the substrate was crashed, and how many
// operations hit the down window.
func (r *Restartable[T]) Crashes() (crashes int, downOps int64) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.crashes, r.downOps.Load()
}

// Hook is the down window as a substrate call hook: an operation attempted
// while down fails fast with ErrDown, and one that got in holds off Crash
// until it returns. Except mq.Pop, which deliberately does not hold the lock
// across its blocking wait: Crash must be able to run (and wake the waiter)
// while a Pop is parked.
func (r *Restartable[T]) Hook(op string, call func() (acked bool, err error)) error {
	r.mu.RLock()
	if r.down {
		r.mu.RUnlock()
		r.downOps.Add(1)
		return fmt.Errorf("%w: %s", ErrDown, op)
	}
	if op == "mq.Pop" {
		r.mu.RUnlock()
	} else {
		defer r.mu.RUnlock()
	}
	_, err := call()
	return err
}

// TearTail truncates the last n bytes of the file at path, simulating a torn
// write: a crash that landed part of an append. n larger than the file
// truncates to empty.
func TearTail(path string, n int64) error {
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	size := fi.Size() - n
	if size < 0 {
		size = 0
	}
	return os.Truncate(path, size)
}

// FlipByte XORs one bit-pattern (0xFF) into the byte at offset off of the
// file at path, simulating on-disk corruption. Negative offsets count back
// from the end of the file (-1 is the last byte).
func FlipByte(path string, off int64) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	if off < 0 {
		fi, err := f.Stat()
		if err != nil {
			return err
		}
		off += fi.Size()
	}
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		return err
	}
	b[0] ^= 0xFF
	_, err = f.WriteAt(b[:], off)
	return err
}
