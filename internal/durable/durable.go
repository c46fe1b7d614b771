// Package durable is the persistence layer under the distributed framework's
// substrates: an append-only write-ahead log with length-prefixed,
// CRC-checksummed records, truncated-tail recovery (replay stops cleanly at
// the first torn or corrupt record and drops everything after it), periodic
// snapshot compaction, and a configurable fsync policy.
//
// Each substrate (mq.Local, taskdb.Local, objstore.Disk) is one state machine
// that keeps its authoritative state in memory and, when it was opened over a
// Journal, logs every mutation here before applying it, so a process restart
// replays the log and resumes exactly where the previous incarnation's last
// durable write left off. PR 2's fault tolerance (heartbeats, lease reclaim,
// attempt fencing) makes re-execution of anything lost past that point safe.
//
// Stdlib only, like the rest of the fleet.
package durable

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"hoyan/internal/telemetry"
)

// Policy selects when the WAL (and the object files riding the same
// guarantees) are fsynced to stable storage.
type Policy int

// Fsync policies. The zero value is SyncInterval: bounded loss on machine
// crash, near-memory throughput.
const (
	// SyncInterval fsyncs at most once per DefaultSyncInterval of active
	// writes: a machine crash loses at most the last interval's appends.
	SyncInterval Policy = iota
	// SyncAlways fsyncs after every append: nothing acknowledged is ever
	// lost, at the cost of one fsync per write.
	SyncAlways
	// SyncNever leaves flushing to the OS (and Close/Compact): fastest, and
	// still safe against process crashes — only a machine crash can lose
	// acknowledged writes.
	SyncNever
)

// String renders the policy in the -fsync flag vocabulary.
func (p Policy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncNever:
		return "never"
	default:
		return "interval"
	}
}

// ParsePolicy parses the -fsync flag vocabulary ("always", "interval",
// "never").
func ParsePolicy(s string) (Policy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "always":
		return SyncAlways, nil
	case "interval", "":
		return SyncInterval, nil
	case "never":
		return SyncNever, nil
	}
	return SyncInterval, fmt.Errorf("durable: unknown fsync policy %q (want always, interval, or never)", s)
}

// Options configure a WAL and the substrate built on it.
type Options struct {
	// Fsync is the sync policy (zero value: SyncInterval).
	Fsync Policy
	// CompactEvery is how many appended records a substrate accumulates
	// before rewriting its WAL as a snapshot; 0 means DefaultCompactEvery.
	CompactEvery int
}

// DefaultSyncInterval is the SyncInterval cadence.
const DefaultSyncInterval = 100 * time.Millisecond

// DefaultCompactEvery is the appends-between-compactions default.
const DefaultCompactEvery = 4096

// HealthFailureThreshold is how many consecutive durable-write failures flip
// Healthy() to an error (and /healthz to degraded) — a single flake rides the
// retry path without alarming anyone.
const HealthFailureThreshold = 3

// ErrCrashed is returned by a durable substrate after CrashClose: the chaos
// harness's stand-in for a killed substrate process. It is classified as
// transient (unlike mq.ErrClosed), so masters and workers retry until the
// substrate is reopened.
var ErrCrashed = errors.New("durable: substrate crashed (reopen required)")

// Metrics are the durability counters one component (taskdb, objstore, mq)
// surfaces. All fields are non-nil; NewMetrics with a nil registry yields
// detached instruments.
type Metrics struct {
	// WriteFailures counts failed durable writes: WAL appends, object-file
	// writes, and compaction rewrites (durable_write_failures_total).
	WriteFailures *telemetry.Counter
	// Replayed counts WAL records replayed at recovery (wal_records_replayed).
	Replayed *telemetry.Counter
	// Compactions counts snapshot compactions (wal_compactions_total).
	Compactions *telemetry.Counter
	// Appended, AppendedBytes and Fsyncs are the log's write cost: records
	// appended (wal_records_appended_total), their framed bytes
	// (wal_bytes_appended_total), and fsyncs issued by the sync policy, Sync
	// and Compact (wal_fsyncs_total).
	Appended      *telemetry.Counter
	AppendedBytes *telemetry.Counter
	Fsyncs        *telemetry.Counter
}

// NewMetrics registers the durability counters in reg under the given
// component label (nil reg = detached instruments).
func NewMetrics(reg *telemetry.Registry, component string) *Metrics {
	l := telemetry.L("component", component)
	return &Metrics{
		WriteFailures: reg.Counter("durable_write_failures_total",
			"durable substrate write failures (WAL appends, object files, compactions)", l),
		Replayed: reg.Counter("wal_records_replayed",
			"WAL records replayed at recovery", l),
		Compactions: reg.Counter("wal_compactions_total",
			"WAL snapshot compactions", l),
		Appended: reg.Counter("wal_records_appended_total",
			"WAL records appended", l),
		AppendedBytes: reg.Counter("wal_bytes_appended_total",
			"framed bytes of the WAL records appended", l),
		Fsyncs: reg.Counter("wal_fsyncs_total",
			"fsyncs of the WAL file (sync policy, explicit Sync, compaction)", l),
	}
}
