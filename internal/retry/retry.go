// Package retry provides context-aware retries with exponential backoff and
// seeded jitter for the distributed simulation substrates. The paper's
// framework assumes the message queue, object store, and subtask database are
// remote services that flake under load; masters and workers wrap every
// substrate call in a Policy so transient TCP/gob errors are ridden out
// instead of killing the run.
//
// Determinism: the jitter source is seeded per Do call, so a given Policy
// produces the same backoff schedule on every run — chaos tests stay
// reproducible.
package retry

import (
	"context"
	"errors"
	"math/rand"
	"time"

	"hoyan/internal/telemetry"
)

// Policy describes how an operation is retried.
type Policy struct {
	// MaxTries is the total number of attempts (first try included).
	// Values < 1 mean a single attempt.
	MaxTries int
	// BaseDelay is the sleep before the second attempt.
	BaseDelay time.Duration
	// MaxDelay caps the per-attempt backoff (before jitter).
	MaxDelay time.Duration
	// Multiplier grows the delay between attempts (values <= 1 mean 2).
	Multiplier float64
	// Jitter is the +/- fraction of each delay randomized (0..1).
	Jitter float64
	// Seed seeds the jitter source; the zero value uses a fixed default so
	// schedules are reproducible unless the caller opts into variety.
	Seed int64
	// Retryable classifies errors; nil uses DefaultRetryable.
	Retryable func(error) bool
	// Metrics, when non-nil, counts attempts, retries, and give-ups (see
	// NewMetrics). Nil disables instrumentation.
	Metrics *Metrics
}

// Metrics are a policy's telemetry instruments.
type Metrics struct {
	// Attempts counts every op invocation; Retries the subset beyond an op's
	// first attempt; Giveups ops that failed because the policy stopped
	// trying: retries exhausted, or the context done. A non-retryable error is
	// the op's answer (a closed queue, a rejected request), not a give-up.
	Attempts *telemetry.Counter
	Retries  *telemetry.Counter
	Giveups  *telemetry.Counter
}

// NewMetrics registers the standard retry metrics for one component in reg.
// A nil reg yields detached instruments.
func NewMetrics(reg *telemetry.Registry, component string) *Metrics {
	l := telemetry.L("component", component)
	return &Metrics{
		Attempts: reg.Counter("hoyan_retry_attempts_total", "substrate operation attempts (first tries included)", l),
		Retries:  reg.Counter("hoyan_retry_retries_total", "substrate operation attempts beyond the first", l),
		Giveups:  reg.Counter("hoyan_retry_giveups_total", "substrate operations abandoned with retries exhausted or the context done (a non-retryable error is an answer, not a give-up)", l),
	}
}

// Default is a policy suited to loopback/LAN substrate RPCs: five tries over
// roughly a second.
func Default() Policy {
	return Policy{MaxTries: 5, BaseDelay: 10 * time.Millisecond, MaxDelay: 500 * time.Millisecond, Multiplier: 2, Jitter: 0.5}
}

// DefaultRetryable retries every error except context cancellation/expiry and
// errors marked with Permanent.
func DefaultRetryable(err error) bool {
	if err == nil {
		return false
	}
	if IsPermanent(err) || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	return true
}

// permanentError marks an error as not worth retrying.
type permanentError struct{ err error }

func (p *permanentError) Error() string { return p.err.Error() }
func (p *permanentError) Unwrap() error { return p.err }

// Permanent marks err so DefaultRetryable (and IsPermanent) classify it as
// non-retryable. A nil err stays nil.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err: err}
}

// IsPermanent reports whether err (or anything it wraps) was marked with
// Permanent.
func IsPermanent(err error) bool {
	var p *permanentError
	return errors.As(err, &p)
}

// Do runs op, retrying per the policy until it succeeds, exhausts MaxTries,
// is classified non-retryable, or ctx is done. It returns the last error (the
// ctx error if cancellation interrupted a backoff sleep). Only exhausted tries
// and a done context count as give-ups.
func (p Policy) Do(ctx context.Context, op func() error) error {
	tries := p.MaxTries
	if tries < 1 {
		tries = 1
	}
	retryable := p.Retryable
	if retryable == nil {
		retryable = DefaultRetryable
	}
	seed := p.Seed
	if seed == 0 {
		seed = 1
	}
	rng := rand.New(rand.NewSource(seed))

	var err error
	for attempt := 0; attempt < tries; attempt++ {
		if attempt > 0 {
			if serr := sleep(ctx, p.backoff(attempt, rng)); serr != nil {
				p.giveup()
				return serr
			}
		}
		if ctx.Err() != nil {
			p.giveup()
			return ctx.Err()
		}
		if m := p.Metrics; m != nil {
			m.Attempts.Inc()
			if attempt > 0 {
				m.Retries.Inc()
			}
		}
		if err = op(); err == nil {
			return nil
		}
		if !retryable(err) {
			if ctx.Err() != nil {
				p.giveup() // the op saw the cancellation first
			}
			return err
		}
	}
	p.giveup()
	return err
}

// Hook is the policy as a substrate call hook (mq.Decorate, objstore.Decorate,
// taskdb.Decorate): each call rides out retryable errors in place. Substrate
// interfaces carry no context, so the envelope (MaxTries, MaxDelay) is what
// bounds a call.
func (p Policy) Hook(_ string, call func() (acked bool, err error)) error {
	return p.Do(context.Background(), func() error {
		_, err := call()
		return err
	})
}

func (p Policy) giveup() {
	if p.Metrics != nil {
		p.Metrics.Giveups.Inc()
	}
}

// backoff computes the delay before the given attempt (attempt >= 1).
func (p Policy) backoff(attempt int, rng *rand.Rand) time.Duration {
	base := p.BaseDelay
	if base <= 0 {
		return 0
	}
	mult := p.Multiplier
	if mult <= 1 {
		mult = 2
	}
	d := float64(base)
	for i := 1; i < attempt; i++ {
		d *= mult
		if p.MaxDelay > 0 && d >= float64(p.MaxDelay) {
			d = float64(p.MaxDelay)
			break
		}
	}
	if p.MaxDelay > 0 && d > float64(p.MaxDelay) {
		d = float64(p.MaxDelay)
	}
	if p.Jitter > 0 {
		d *= 1 + p.Jitter*(2*rng.Float64()-1)
	}
	if d < 0 {
		d = 0
	}
	return time.Duration(d)
}

func sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
