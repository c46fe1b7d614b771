package retry

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"
)

func TestDoSucceedsAfterTransientFailures(t *testing.T) {
	p := Policy{MaxTries: 5, BaseDelay: time.Microsecond}
	calls := 0
	err := p.Do(context.Background(), func() error {
		calls++
		if calls < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if calls != 3 {
		t.Fatalf("calls = %d, want 3", calls)
	}
}

func TestDoExhaustsTriesAndReturnsLastError(t *testing.T) {
	p := Policy{MaxTries: 4, BaseDelay: time.Microsecond}
	calls := 0
	last := errors.New("still broken")
	err := p.Do(context.Background(), func() error {
		calls++
		if calls == 4 {
			return last
		}
		return errors.New("broken")
	})
	if !errors.Is(err, last) {
		t.Fatalf("err = %v, want last error", err)
	}
	if calls != 4 {
		t.Fatalf("calls = %d, want 4", calls)
	}
}

func TestDoStopsOnPermanentError(t *testing.T) {
	p := Policy{MaxTries: 10, BaseDelay: time.Microsecond}
	calls := 0
	inner := errors.New("bad request")
	err := p.Do(context.Background(), func() error {
		calls++
		return Permanent(inner)
	})
	if calls != 1 {
		t.Fatalf("calls = %d, want 1", calls)
	}
	if !errors.Is(err, inner) {
		t.Fatalf("err = %v, want wrapped inner error", err)
	}
	if !IsPermanent(err) {
		t.Fatal("IsPermanent = false")
	}
}

func TestDoStopsOnContextErrors(t *testing.T) {
	// A ctx-cancel error from the op itself is non-retryable.
	p := Policy{MaxTries: 10, BaseDelay: time.Microsecond}
	calls := 0
	err := p.Do(context.Background(), func() error {
		calls++
		return context.Canceled
	})
	if calls != 1 || !errors.Is(err, context.Canceled) {
		t.Fatalf("calls = %d err = %v", calls, err)
	}

	// Cancellation during backoff interrupts the sleep.
	ctx, cancel := context.WithCancel(context.Background())
	p = Policy{MaxTries: 3, BaseDelay: time.Hour}
	calls = 0
	done := make(chan error, 1)
	go func() {
		done <- p.Do(ctx, func() error { calls++; return errors.New("transient") })
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Do did not return after cancellation")
	}
	if calls != 1 {
		t.Fatalf("calls = %d, want 1", calls)
	}
}

func TestDoCustomClassifier(t *testing.T) {
	sentinel := errors.New("closed")
	p := Policy{MaxTries: 5, BaseDelay: time.Microsecond,
		Retryable: func(err error) bool { return !errors.Is(err, sentinel) }}
	calls := 0
	err := p.Do(context.Background(), func() error { calls++; return sentinel })
	if calls != 1 || !errors.Is(err, sentinel) {
		t.Fatalf("calls = %d err = %v", calls, err)
	}
}

// TestGiveupsCountOnlyAbandonedOps: a give-up is an op the policy stopped
// trying — tries exhausted, or the context done (before an attempt, before a
// retry, or seen by the op itself). A non-retryable error is the op's answer
// (mq.ErrClosed on a Pop after Stop) and counts none.
func TestGiveupsCountOnlyAbandonedOps(t *testing.T) {
	closed := errors.New("closed")
	retryable := func(err error) bool { return !errors.Is(err, closed) && DefaultRetryable(err) }
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	live, cancelLive := context.WithCancel(context.Background())
	defer cancelLive()
	retrying, cancelRetrying := context.WithCancel(context.Background())
	defer cancelRetrying()
	for _, tc := range []struct {
		name string
		ctx  context.Context
		op   func() error
		want int64
	}{
		{"success", context.Background(), func() error { return nil }, 0},
		{"non-retryable", context.Background(), func() error { return closed }, 0},
		{"permanent", context.Background(), func() error { return Permanent(errors.New("bad request")) }, 0},
		{"exhausted", context.Background(), func() error { return errors.New("transient") }, 1},
		{"cancelled before the first attempt", cancelled, func() error { return nil }, 1},
		{"cancelled during the op", live, func() error { cancelLive(); return context.Canceled }, 1},
		{"cancelled before a retry", retrying, func() error { cancelRetrying(); return errors.New("transient") }, 1},
	} {
		m := NewMetrics(nil, "test")
		p := Policy{MaxTries: 3, Retryable: retryable, Metrics: m}
		p.Do(tc.ctx, tc.op)
		if got := m.Giveups.Value(); got != tc.want {
			t.Errorf("%s: %v give-ups, want %v", tc.name, got, tc.want)
		}
	}
}

func TestBackoffGrowsAndCaps(t *testing.T) {
	p := Policy{BaseDelay: 10 * time.Millisecond, MaxDelay: 60 * time.Millisecond, Multiplier: 2}
	rng := rand.New(rand.NewSource(1))
	want := []time.Duration{
		10 * time.Millisecond, // attempt 1
		20 * time.Millisecond, // attempt 2
		40 * time.Millisecond, // attempt 3
		60 * time.Millisecond, // attempt 4 (capped from 80ms)
		60 * time.Millisecond, // attempt 5 (stays capped)
	}
	for i, w := range want {
		if got := p.backoff(i+1, rng); got != w {
			t.Errorf("backoff(%d) = %v, want %v", i+1, got, w)
		}
	}
}

func TestBackoffJitterBoundedAndDeterministic(t *testing.T) {
	p := Policy{BaseDelay: 100 * time.Millisecond, MaxDelay: time.Second, Multiplier: 2, Jitter: 0.5}
	a := rand.New(rand.NewSource(7))
	b := rand.New(rand.NewSource(7))
	for attempt := 1; attempt <= 6; attempt++ {
		da, db := p.backoff(attempt, a), p.backoff(attempt, b)
		if da != db {
			t.Fatalf("same seed diverged at attempt %d: %v vs %v", attempt, da, db)
		}
		lo := time.Duration(float64(p.BaseDelay) * 0.49)
		hi := time.Duration(float64(p.MaxDelay) * 1.51)
		if da < lo || da > hi {
			t.Fatalf("jittered backoff %v outside [%v, %v]", da, lo, hi)
		}
	}
}

func TestPermanentNil(t *testing.T) {
	if Permanent(nil) != nil {
		t.Fatal("Permanent(nil) != nil")
	}
	if IsPermanent(nil) {
		t.Fatal("IsPermanent(nil)")
	}
}
