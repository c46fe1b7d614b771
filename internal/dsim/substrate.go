package dsim

import (
	"context"
	"errors"
	"net/rpc"

	"hoyan/internal/durable"
	"hoyan/internal/mq"
	"hoyan/internal/objstore"
	"hoyan/internal/retry"
	"hoyan/internal/taskdb"
	"hoyan/internal/telemetry"
)

// TransientSubstrateError classifies substrate errors for the retry layer:
// everything is presumed transient (TCP resets, I/O deadlines, injected
// chaos) except deliberate shutdown (mq.ErrClosed, rpc.ErrShutdown), missing
// objects (objstore.ErrNotFound — inputs and snapshots are written before any
// message referencing them is pushed, so absence is a protocol bug, not a
// flake), a journal closed by orderly shutdown (durable.ErrClosed) and
// context cancellation.
func TransientSubstrateError(err error) bool {
	if err == nil {
		return false
	}
	switch {
	case errors.Is(err, mq.ErrClosed),
		errors.Is(err, objstore.ErrNotFound),
		errors.Is(err, rpc.ErrShutdown),
		errors.Is(err, durable.ErrClosed),
		errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded):
		return false
	}
	return true
}

// DefaultRetryPolicy is the policy masters and workers wrap their substrate
// handles with: five tries over roughly a second, transient-only.
func DefaultRetryPolicy() retry.Policy {
	p := retry.Default()
	p.Retryable = TransientSubstrateError
	return p
}

// withRetry decorates the services' queue, store, and task DB so every call
// rides out transient substrate errors under DefaultRetryPolicy, with
// per-component retry activity counted in reg (nil reg = detached). Masters
// and workers each wrap the raw handles they are given once, at construction.
//
// Note the at-least-once consequence for Pop: if a reply is lost after the
// server already dequeued a message, the retried Pop returns a different
// message and the first one is gone — the master's lease reclaim re-enqueues
// its subtask.
func withRetry(svc Services, reg *telemetry.Registry) Services {
	policy := func(component string) retry.Policy {
		p := DefaultRetryPolicy()
		p.Metrics = retry.NewMetrics(reg, component)
		return p
	}
	return Services{
		Queue: mq.Decorate(func() mq.Queue { return svc.Queue }, policy("mq").Hook),
		Store: objstore.Decorate(func() objstore.Store { return svc.Store }, policy("objstore").Hook),
		Tasks: taskdb.Decorate(func() taskdb.DB { return svc.Tasks }, policy("taskdb").Hook),
	}
}
