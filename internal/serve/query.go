package serve

import (
	"context"
	"encoding/json"
	"sync"
	"time"

	"hoyan/internal/core"
)

// Query states: pending (queued) → running → done | failed | canceled.
const (
	StatePending  = "pending"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// LinkRef names a link by its endpoint devices (the order is normalized by
// the topology lookup).
type LinkRef struct {
	A string `json:"a"`
	B string `json:"b"`
}

// QueryRequest is the body of POST /v1/queries.
type QueryRequest struct {
	// Kind selects the executor: "whatif" (fail links/devices and resimulate),
	// "verify" (check specs against the base state), "kfail" (exhaustive
	// failure sweep), "plan" (apply a change plan). Defaults to "whatif".
	Kind string `json:"kind"`
	// NetworkID targets a loaded snapshot; empty means the active one.
	NetworkID string `json:"network_id"`

	// What-if scenario: links and devices to fail.
	FailLinks   []LinkRef `json:"fail_links,omitempty"`
	FailDevices []string  `json:"fail_devices,omitempty"`

	// Specs are RCL intent specifications checked against (base, updated);
	// for "verify" queries updated == base.
	Specs []string `json:"specs,omitempty"`

	// Commands maps device name to a config-command block ("plan" queries).
	Commands map[string]string `json:"commands,omitempty"`

	// K and MaxScenarios parameterize "kfail" sweeps.
	K            int `json:"k,omitempty"`
	MaxScenarios int `json:"max_scenarios,omitempty"`

	// DeadlineMS overrides the server's default per-query deadline.
	DeadlineMS int `json:"deadline_ms,omitempty"`
}

// QueryResult is the terminal payload of a finished query.
type QueryResult struct {
	// RIBDigest is the sha256 of the updated state's sorted global RIB rows —
	// byte-identity with the batch CLI path is checked against this.
	RIBDigest string `json:"rib_digest,omitempty"`
	// BaseDigest is the digest of the base state for reference.
	BaseDigest string `json:"base_digest,omitempty"`
	// RouteDelta counts RIB rows that changed versus base.
	RouteDelta int `json:"route_delta"`
	// Specs reports each intent spec's outcome.
	Specs []SpecReport `json:"specs,omitempty"`
	// SpecsOK is true when every spec held.
	SpecsOK bool `json:"specs_ok"`
	// Kfail carries sweep outcomes for kfail queries.
	Kfail *KfailSummary `json:"kfail,omitempty"`
}

// SpecReport is one intent spec's outcome.
type SpecReport struct {
	Spec       string   `json:"spec"`
	Satisfied  bool     `json:"satisfied"`
	Violations []string `json:"violations,omitempty"`
}

// KfailSummary condenses a kfail sweep.
type KfailSummary struct {
	Scenarios  int      `json:"scenarios"`
	Violations int      `json:"violations"`
	Worst      []string `json:"worst,omitempty"`
}

// Event is one SSE frame of a query's lifecycle.
type Event struct {
	Seq  int             `json:"seq"`
	Type string          `json:"type"` // "state" | "progress" | "result"
	Data json.RawMessage `json:"data"`
	Time time.Time       `json:"time"`
}

// Query is one admitted what-if query moving through the queue and worker
// pool. All mutable fields are guarded by mu; Done closes when the query
// reaches a terminal state.
type Query struct {
	ID     string
	Tenant *tenant
	Req    QueryRequest

	// net and delta are what a plan query was resolved against at submit;
	// the worker that executes it drops them, so a finished query keeps no
	// network alive after a newer one replaces it.
	net   *Network
	delta core.Delta

	mu          sync.Mutex
	state       string
	events      []Event
	subscribers map[chan Event]struct{}
	result      *QueryResult
	err         string

	enqueuedAt time.Time
	startedAt  time.Time
	finishedAt time.Time

	// finishing is set by the finish call that owns the terminal transition;
	// persist, when set, is how that call stores the final status in the run
	// history before the terminal state becomes visible.
	finishing bool
	persist   func(Status)
	// released is set by the one release that returns the query's slot.
	released bool

	cancel context.CancelFunc
	done   chan struct{}
}

func newQuery(id string, t *tenant, req QueryRequest) *Query {
	q := &Query{
		ID:          id,
		Tenant:      t,
		Req:         req,
		state:       StatePending,
		subscribers: make(map[chan Event]struct{}),
		enqueuedAt:  time.Now(),
		done:        make(chan struct{}),
	}
	q.emitLocked("state", map[string]string{"state": StatePending})
	return q
}

// emitLocked appends an event and fans it out; callers without the lock use
// emit. Serialization errors are impossible for the small payloads used here
// and are swallowed.
func (q *Query) emitLocked(typ string, payload any) {
	data, _ := json.Marshal(payload)
	ev := Event{Seq: len(q.events) + 1, Type: typ, Data: data, Time: time.Now()}
	q.events = append(q.events, ev)
	for ch := range q.subscribers {
		select {
		case ch <- ev:
		default: // slow subscriber: drop; replay on reconnect recovers
		}
	}
}

func (q *Query) emit(typ string, payload any) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.emitLocked(typ, payload)
}

// Subscribe returns a replay of every past event plus a channel of future
// ones; call the returned unsubscribe when done. A terminal query returns a
// nil channel (replay only).
func (q *Query) Subscribe() ([]Event, chan Event, func()) {
	q.mu.Lock()
	defer q.mu.Unlock()
	replay := make([]Event, len(q.events))
	copy(replay, q.events)
	if q.terminalLocked() {
		return replay, nil, func() {}
	}
	ch := make(chan Event, 64)
	q.subscribers[ch] = struct{}{}
	return replay, ch, func() {
		q.mu.Lock()
		defer q.mu.Unlock()
		delete(q.subscribers, ch)
	}
}

func (q *Query) terminalLocked() bool { return terminal(q.state) }

func terminal(state string) bool {
	return state == StateDone || state == StateFailed || state == StateCanceled
}

// setRunning marks the query started. It reports false, changing nothing,
// when the query already finished (canceled while queued).
func (q *Query) setRunning() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.finishing {
		return false
	}
	q.state = StateRunning
	q.startedAt = time.Now()
	q.emitLocked("state", map[string]string{"state": StateRunning})
	return true
}

// finish moves the query to a terminal state, emits the result event, and
// closes Done. Idempotent: only the first call wins, and a losing call
// returns only once the winner has published, so the query reads as terminal
// after any finish (or Cancel) returns. The final status is persisted before
// it is published — whoever sees the terminal state, a closed Done or the
// result event also finds the query in the run history — and outside the
// lock, so status polls are not held up by disk writes; until then the query
// still reads as pending or running.
func (q *Query) finish(state string, res *QueryResult, errMsg string) {
	q.mu.Lock()
	if q.finishing {
		q.mu.Unlock()
		<-q.done
		return
	}
	q.finishing = true
	q.result, q.err, q.finishedAt = res, errMsg, time.Now()
	final := q.statusLocked(state)
	started := !q.startedAt.IsZero()
	q.mu.Unlock()
	if !started {
		// It will never run (setRunning refuses it now): its slot comes back
		// here, before Done closes, not when a worker pops it.
		q.release()
	}

	if q.persist != nil {
		q.persist(final)
	}

	q.mu.Lock()
	defer q.mu.Unlock()
	q.state = state
	q.emitLocked("state", map[string]string{"state": state})
	if res != nil {
		q.emitLocked("result", res)
	} else if errMsg != "" {
		q.emitLocked("result", map[string]string{"error": errMsg})
	}
	for ch := range q.subscribers {
		close(ch)
	}
	q.subscribers = make(map[chan Event]struct{})
	close(q.done)
}

// Status is the JSON shape of GET /v1/queries/{id}.
type Status struct {
	ID          string       `json:"id"`
	Tenant      string       `json:"tenant"`
	Kind        string       `json:"kind"`
	State       string       `json:"state"`
	Error       string       `json:"error,omitempty"`
	Result      *QueryResult `json:"result,omitempty"`
	EnqueuedAt  time.Time    `json:"enqueued_at"`
	StartedAt   *time.Time   `json:"started_at,omitempty"`
	FinishedAt  *time.Time   `json:"finished_at,omitempty"`
	QueueWaitMS float64      `json:"queue_wait_ms"`
	RunMS       float64      `json:"run_ms,omitempty"`
}

// Snapshot returns the query's status for the REST layer.
func (q *Query) Snapshot() Status {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.statusLocked(q.state)
}

// statusLocked is the query's status as of lifecycle state `state`; the
// outcome fields appear only once that state is terminal.
func (q *Query) statusLocked(state string) Status {
	st := Status{
		ID:         q.ID,
		Tenant:     q.Tenant.cfg.Name,
		Kind:       q.Req.Kind,
		State:      state,
		EnqueuedAt: q.enqueuedAt,
	}
	if !q.startedAt.IsZero() {
		t := q.startedAt
		st.StartedAt = &t
		st.QueueWaitMS = float64(q.startedAt.Sub(q.enqueuedAt)) / float64(time.Millisecond)
	} else {
		st.QueueWaitMS = float64(time.Since(q.enqueuedAt)) / float64(time.Millisecond)
	}
	if terminal(state) {
		st.Error, st.Result = q.err, q.result
		t := q.finishedAt
		st.FinishedAt = &t
		if !q.startedAt.IsZero() {
			st.RunMS = float64(q.finishedAt.Sub(q.startedAt)) / float64(time.Millisecond)
		}
	}
	return st
}

// Cancel cancels a pending or running query and returns once it is terminal
// (for a queued query that includes the history write, done on the caller's
// goroutine).
func (q *Query) Cancel() {
	q.mu.Lock()
	cancel := q.cancel
	q.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	q.finish(StateCanceled, nil, "canceled by client")
}

// release returns the query's in-flight slot to its tenant. Only the first
// call does: the worker that ran the query, or finish for one that never ran,
// and the worker that pops a query canceled while queued finds it done.
func (q *Query) release() {
	q.mu.Lock()
	was := q.released
	q.released = true
	q.mu.Unlock()
	if !was {
		q.Tenant.release()
	}
}

// setCancel installs the run context's cancel func so DELETE can reach it.
func (q *Query) setCancel(c context.CancelFunc) {
	q.mu.Lock()
	q.cancel = c
	q.mu.Unlock()
}

// Done returns a channel closed when the query reaches a terminal state.
func (q *Query) Done() <-chan struct{} { return q.done }
