package durable

import (
	"encoding/json"
	"fmt"
)

// Journal is the write-ahead half of a substrate state machine: a WAL of JSON
// records plus the append / count / compact-every-N loop. A nil *Journal is
// the in-memory substrate: every method is a no-op that reports success, so
// the state machine above it is written once.
//
// A Journal is not safe for concurrent use on its own. Its owner calls Log,
// Down, Close and CrashClose under the mutex that guards the owner's state,
// which is also what makes log-before-mutate atomic. Healthy may be called
// from anywhere.
type Journal struct {
	wal     *WAL
	every   int
	appends int // records since the last compaction
	crashed bool
}

// OpenJournal opens (creating if necessary) the journal at path and replays
// every intact record, decoded as an R, through apply in append order.
func OpenJournal[R any](path string, opts Options, m *Metrics, apply func(R) error) (*Journal, error) {
	wal, _, err := Open(path, opts, m, func(p []byte) error {
		var rec R
		if err := json.Unmarshal(p, &rec); err != nil {
			return fmt.Errorf("bad journal record: %w", err)
		}
		return apply(rec)
	})
	if err != nil {
		return nil, err
	}
	every := opts.CompactEvery
	if every <= 0 {
		every = DefaultCompactEvery
	}
	return &Journal{wal: wal, every: every}, nil
}

// Log appends rec, which the owner applies to its state only after Log
// returns nil. Every CompactEvery appends the log is rewritten as snapshot()
// — records that rebuild the owner's state as it is now, before rec — followed
// by rec.
func (j *Journal) Log(rec any, snapshot func() []any) error {
	if j == nil {
		return nil
	}
	p, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if err := j.wal.Append(p); err != nil {
		return err
	}
	j.appends++
	if j.appends < j.every {
		return nil
	}
	state := snapshot()
	snap := make([][]byte, 0, len(state)+1)
	for _, r := range state {
		sp, err := json.Marshal(r)
		if err != nil {
			return err
		}
		snap = append(snap, sp)
	}
	if err := j.wal.Compact(append(snap, p)); err != nil {
		return err
	}
	j.appends = 0
	return nil
}

// Down returns ErrCrashed after CrashClose and nil otherwise. Owners check it
// at the top of every operation, reads included: a killed process answers
// nothing.
func (j *Journal) Down() error {
	if j != nil && j.crashed {
		return ErrCrashed
	}
	return nil
}

// NoteExternalWrite folds a durable write performed outside the log (an
// object file sharing its guarantees) into the same failure-health
// accounting.
func (j *Journal) NoteExternalWrite(err error) { j.wal.noteWrite(err) }

// Healthy returns nil while durable writes are landing (see WAL.Healthy).
func (j *Journal) Healthy() error {
	if j == nil {
		return nil
	}
	return j.wal.Healthy()
}

// Close flushes and closes the log; later Log calls fail with ErrClosed.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	return j.wal.Close()
}

// CrashClose drops the log's file handle without flushing — the chaos
// harness's stand-in for kill -9 on the substrate process — after which Down
// reports ErrCrashed. Reopen the same path to recover.
func (j *Journal) CrashClose() {
	if j == nil {
		return
	}
	j.crashed = true
	j.wal.CrashClose()
}
