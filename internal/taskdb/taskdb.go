// Package taskdb provides the subtask-status database of the distributed
// simulation framework: workers update subtask status here, the master
// monitors it, and the §3.2 ordering heuristic records each route subtask's
// covered address range here so traffic subtasks can test overlap.
//
// Fault tolerance: each record carries a lease (HeartbeatAt, refreshed by the
// executing worker) and a fence (Attempts, the attempt epoch the master
// assigns on every (re-)enqueue). FencedUpsert rejects writes from attempts
// older than the stored one, so a worker reclaimed as dead cannot clobber the
// status written by the attempt that superseded it.
package taskdb

import (
	"cmp"
	"fmt"
	"net"
	"slices"
	"sync"
	"time"

	"hoyan/internal/durable"
	"hoyan/internal/rpcx"
	"hoyan/internal/telemetry"
)

// Status of a subtask.
type Status string

// Subtask lifecycle states.
const (
	StatusPending Status = "pending"
	StatusRunning Status = "running"
	StatusDone    Status = "done"
	StatusFailed  Status = "failed"
)

// Record is one subtask's state. RangeLo/RangeHi hold the address range
// covered by a route subtask's input prefixes (textual netip.Addr form, kept
// as strings for clean wire encoding).
type Record struct {
	TaskID string // simulation task this subtask belongs to
	SubID  int
	Kind   string // "route" or "traffic"
	Status Status
	Worker string
	// Attempts is the attempt epoch: 0 for the first enqueue, incremented by
	// the master on every re-enqueue (failure or lease reclaim). It doubles
	// as the fence token for FencedUpsert.
	Attempts int
	Error    string

	RangeLo string
	RangeHi string

	// EnqueuedAt is stamped by the master when the subtask's message is
	// (re-)pushed; a record pending long past it with an empty queue means
	// the message was lost.
	EnqueuedAt time.Time
	StartedAt  time.Time
	FinishedAt time.Time
	// HeartbeatAt is refreshed by the executing worker's heartbeat loop; the
	// master treats a running record with a stale heartbeat as a dead worker
	// and reclaims the subtask.
	HeartbeatAt time.Time
	DurationMs  int64

	// LoadedRIBFiles counts how many route-subtask result files a traffic
	// subtask loaded (the Figure 5(d) metric).
	LoadedRIBFiles int
}

// Key identifies a subtask record.
func (r Record) Key() string { return fmt.Sprintf("%s/%s/%d", r.TaskID, r.Kind, r.SubID) }

// DB is the subtask database interface.
type DB interface {
	// Upsert stores the record unconditionally, replacing any previous state.
	Upsert(rec Record) error
	// FencedUpsert stores the record unless the stored record belongs to a
	// newer attempt (stored.Attempts > rec.Attempts). It reports whether the
	// write was applied; a rejected write is not an error.
	FencedUpsert(rec Record) (bool, error)
	// Heartbeat refreshes HeartbeatAt on a running record of the given
	// attempt. It reports whether the record matched (same attempt, still
	// running); a miss is not an error.
	Heartbeat(taskID, kind string, subID, attempt int, at time.Time) (bool, error)
	// Get fetches one record.
	Get(taskID, kind string, subID int) (Record, bool, error)
	// List returns all records of a task, sorted by kind then sub ID.
	List(taskID string) ([]Record, error)
}

// Local is the in-process DB: the authoritative record map lives in memory
// and, with a journal, every applied mutation is logged first, so a restart
// replays the log and recovers exactly the acknowledged state. Fencing
// semantics are preserved across restarts — the fence check runs against the
// recovered map and only applied writes are ever logged, so replay needs no
// re-checking. Without a journal (NewMemory) the same machine runs in memory
// alone. Safe for concurrent use.
type Local struct {
	mu   sync.RWMutex
	recs map[string]Record
	j    *durable.Journal // nil: in memory only
}

// journalRec is one journal record: an applied upsert or heartbeat.
type journalRec struct {
	Op  string  `json:"op"` // "up" or "hb"
	Rec *Record `json:"rec,omitempty"`

	// Heartbeat fields ("hb").
	TaskID  string    `json:"task,omitempty"`
	Kind    string    `json:"kind,omitempty"`
	SubID   int       `json:"sub,omitempty"`
	Attempt int       `json:"attempt,omitempty"`
	At      time.Time `json:"at,omitempty"`
}

// NewMemory creates an empty in-memory DB.
func NewMemory() *Local { return &Local{recs: make(map[string]Record)} }

// OpenDurable opens (creating if necessary) a journaled task DB persisted at
// path, replaying any existing log. The journal's durability metrics are
// registered in reg under the taskdb component label (nil reg = detached).
func OpenDurable(path string, opts durable.Options, reg *telemetry.Registry) (*Local, error) {
	db := NewMemory()
	j, err := durable.OpenJournal(path, opts, durable.NewMetrics(reg, "taskdb"), func(rec journalRec) error {
		switch rec.Op {
		case "up":
			if rec.Rec == nil {
				return fmt.Errorf("taskdb upsert record without payload")
			}
			db.recs[rec.Rec.Key()] = *rec.Rec
		case "hb":
			if key, r, ok := db.leaseLocked(rec.TaskID, rec.Kind, rec.SubID, rec.Attempt); ok {
				r.HeartbeatAt = rec.At
				db.recs[key] = r
			}
		default:
			return fmt.Errorf("bad taskdb op %q", rec.Op)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	db.j = j
	return db, nil
}

// snapshotLocked is the journal's compaction state: one upsert per record.
func (db *Local) snapshotLocked() []any {
	keys := make([]string, 0, len(db.recs))
	for k := range db.recs {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	snap := make([]any, 0, len(keys))
	for _, k := range keys {
		rec := db.recs[k]
		snap = append(snap, journalRec{Op: "up", Rec: &rec})
	}
	return snap
}

// putLocked logs and then stores rec.
func (db *Local) putLocked(rec Record) error {
	if err := db.j.Log(journalRec{Op: "up", Rec: &rec}, db.snapshotLocked); err != nil {
		return err
	}
	db.recs[rec.Key()] = rec
	return nil
}

// Upsert implements DB.
func (db *Local) Upsert(rec Record) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.j.Down(); err != nil {
		return err
	}
	return db.putLocked(rec)
}

// FencedUpsert implements DB: the fence check runs against the in-memory
// state (recovered, when journaled), and only applied writes reach the log.
func (db *Local) FencedUpsert(rec Record) (bool, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.j.Down(); err != nil {
		return false, err
	}
	if old, ok := db.recs[rec.Key()]; ok && old.Attempts > rec.Attempts {
		return false, nil
	}
	if err := db.putLocked(rec); err != nil {
		return false, err
	}
	return true, nil
}

// leaseLocked is the lease rule, live and on replay: a heartbeat of the given
// attempt may refresh only a record of that attempt that is still running.
func (db *Local) leaseLocked(taskID, kind string, subID, attempt int) (key string, rec Record, ok bool) {
	key = Record{TaskID: taskID, Kind: kind, SubID: subID}.Key()
	rec, ok = db.recs[key]
	return key, rec, ok && rec.Attempts == attempt && rec.Status == StatusRunning
}

// Heartbeat implements DB. Applied heartbeats are logged so recovered leases
// carry their true freshness (a resumed master otherwise reclaims every
// running subtask immediately, which is safe but wasteful).
func (db *Local) Heartbeat(taskID, kind string, subID, attempt int, at time.Time) (bool, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.j.Down(); err != nil {
		return false, err
	}
	key, rec, ok := db.leaseLocked(taskID, kind, subID, attempt)
	if !ok {
		return false, nil
	}
	hb := journalRec{Op: "hb", TaskID: taskID, Kind: kind, SubID: subID, Attempt: attempt, At: at}
	if err := db.j.Log(hb, db.snapshotLocked); err != nil {
		return false, err
	}
	rec.HeartbeatAt = at
	db.recs[key] = rec
	return true, nil
}

// Get implements DB.
func (db *Local) Get(taskID, kind string, subID int) (Record, bool, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if err := db.j.Down(); err != nil {
		return Record{}, false, err
	}
	rec, ok := db.recs[Record{TaskID: taskID, Kind: kind, SubID: subID}.Key()]
	return rec, ok, nil
}

// List implements DB.
func (db *Local) List(taskID string) ([]Record, error) {
	db.mu.RLock()
	if err := db.j.Down(); err != nil {
		db.mu.RUnlock()
		return nil, err
	}
	var out []Record
	for _, rec := range db.recs {
		if rec.TaskID == taskID {
			out = append(out, rec)
		}
	}
	db.mu.RUnlock()
	slices.SortFunc(out, func(a, b Record) int {
		if c := cmp.Compare(a.Kind, b.Kind); c != 0 {
			return c
		}
		return cmp.Compare(a.SubID, b.SubID)
	})
	return out, nil
}

// Healthy reports nil while durable writes are landing.
func (db *Local) Healthy() error { return db.j.Healthy() }

// Close flushes the journal and closes the DB: later writes fail with
// durable.ErrClosed.
func (db *Local) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.j.Close()
}

// CrashClose simulates the DB process dying: every subsequent operation
// fails with durable.ErrCrashed (transient) until a DB reopened over the same
// path takes over.
func (db *Local) CrashClose() {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.j.CrashClose()
}

// Decorate returns a DB that routes every operation through hook. get
// supplies the handle each call runs against and is evaluated inside the
// hook, so a hook that swaps handles (crash-and-reopen) takes effect on the
// next call. call reports whether the operation was a write whose
// acknowledgement matters (Upsert, FencedUpsert): fault injection loses
// exactly those replies, everything else ignores it.
func Decorate(get func() DB, hook func(op string, call func() (acked bool, err error)) error) DB {
	return &decorated{get: get, hook: hook}
}

type decorated struct {
	get  func() DB
	hook func(op string, call func() (bool, error)) error
}

func (d *decorated) Upsert(rec Record) error {
	return d.hook("tasks.Upsert", func() (bool, error) {
		err := d.get().Upsert(rec)
		return err == nil, err
	})
}

func (d *decorated) FencedUpsert(rec Record) (applied bool, err error) {
	err = d.hook("tasks.FencedUpsert", func() (bool, error) {
		var e error
		applied, e = d.get().FencedUpsert(rec)
		return e == nil, e
	})
	return applied && err == nil, err
}

func (d *decorated) Heartbeat(taskID, kind string, subID, attempt int, at time.Time) (applied bool, err error) {
	err = d.hook("tasks.Heartbeat", func() (bool, error) {
		var e error
		applied, e = d.get().Heartbeat(taskID, kind, subID, attempt, at)
		return false, e
	})
	return applied, err
}

func (d *decorated) Get(taskID, kind string, subID int) (rec Record, ok bool, err error) {
	err = d.hook("tasks.Get", func() (bool, error) {
		var e error
		rec, ok, e = d.get().Get(taskID, kind, subID)
		return false, e
	})
	return rec, ok, err
}

func (d *decorated) List(taskID string) (recs []Record, err error) {
	err = d.hook("tasks.List", func() (bool, error) {
		var e error
		recs, e = d.get().List(taskID)
		return false, e
	})
	return recs, err
}

// Service exposes a DB over net/rpc, counting writes and heartbeats.
type Service struct {
	db DB

	upserts    *telemetry.Counter
	heartbeats *telemetry.Counter
	fenced     *telemetry.Counter
}

// Upsert is the RPC form of DB.Upsert.
func (s *Service) Upsert(rec *Record, _ *struct{}) error {
	s.upserts.Inc()
	return s.db.Upsert(*rec)
}

// FencedUpsert is the RPC form of DB.FencedUpsert.
func (s *Service) FencedUpsert(rec *Record, applied *bool) error {
	s.upserts.Inc()
	ok, err := s.db.FencedUpsert(*rec)
	if err == nil && !ok {
		s.fenced.Inc()
	}
	*applied = ok
	return err
}

// HeartbeatArgs are the arguments of Tasks.Heartbeat.
type HeartbeatArgs struct {
	TaskID  string
	Kind    string
	SubID   int
	Attempt int
	At      time.Time
}

// Heartbeat is the RPC form of DB.Heartbeat.
func (s *Service) Heartbeat(args *HeartbeatArgs, applied *bool) error {
	s.heartbeats.Inc()
	ok, err := s.db.Heartbeat(args.TaskID, args.Kind, args.SubID, args.Attempt, args.At)
	*applied = ok
	return err
}

// GetArgs are the arguments of Tasks.Get.
type GetArgs struct {
	TaskID string
	Kind   string
	SubID  int
}

// GetReply is the result of Tasks.Get.
type GetReply struct {
	Rec   Record
	Found bool
}

// Get is the RPC form of DB.Get.
func (s *Service) Get(args *GetArgs, reply *GetReply) error {
	rec, ok, err := s.db.Get(args.TaskID, args.Kind, args.SubID)
	reply.Rec, reply.Found = rec, ok
	return err
}

// List is the RPC form of DB.List.
func (s *Service) List(taskID *string, reply *[]Record) error {
	recs, err := s.db.List(*taskID)
	*reply = recs
	return err
}

// Serve serves db on l until the listener is closed, with the service's RPC
// counters registered in reg (nil reg = detached). It returns immediately.
func Serve(l net.Listener, db DB, reg *telemetry.Registry) {
	rpcx.Serve(l, "Tasks", &Service{
		db:         db,
		upserts:    reg.Counter("hoyan_taskdb_upserts_total", "subtask record writes served"),
		heartbeats: reg.Counter("hoyan_taskdb_heartbeats_total", "lease heartbeats served"),
		fenced:     reg.Counter("hoyan_taskdb_fenced_writes_total", "writes rejected by the attempt fence"),
	})
}

// Client is a DB talking to a remote Serve instance over a reconnecting
// connection with dial and per-call I/O timeouts.
type Client struct{ c *rpcx.Client }

// Dial connects to a task DB server (the zero Options are the default
// timeouts).
func Dial(addr string, opts rpcx.Options) (*Client, error) {
	c, err := rpcx.Dial(addr, opts)
	if err != nil {
		return nil, fmt.Errorf("taskdb: dial %s: %w", addr, err)
	}
	return &Client{c: c}, nil
}

// Upsert implements DB.
func (c *Client) Upsert(rec Record) error {
	return c.c.Call("Tasks.Upsert", &rec, &struct{}{})
}

// FencedUpsert implements DB.
func (c *Client) FencedUpsert(rec Record) (bool, error) {
	var applied bool
	err := c.c.Call("Tasks.FencedUpsert", &rec, &applied)
	return applied, err
}

// Heartbeat implements DB.
func (c *Client) Heartbeat(taskID, kind string, subID, attempt int, at time.Time) (bool, error) {
	var applied bool
	err := c.c.Call("Tasks.Heartbeat",
		&HeartbeatArgs{TaskID: taskID, Kind: kind, SubID: subID, Attempt: attempt, At: at}, &applied)
	return applied, err
}

// Get implements DB.
func (c *Client) Get(taskID, kind string, subID int) (Record, bool, error) {
	var reply GetReply
	err := c.c.Call("Tasks.Get", &GetArgs{TaskID: taskID, Kind: kind, SubID: subID}, &reply)
	return reply.Rec, reply.Found, err
}

// List implements DB.
func (c *Client) List(taskID string) ([]Record, error) {
	var recs []Record
	err := c.c.Call("Tasks.List", &taskID, &recs)
	return recs, err
}

// Close closes the client connection.
func (c *Client) Close() error { return c.c.Close() }
