package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// walMagic is the 8-byte file header identifying a Hoyan WAL (version 1).
var walMagic = []byte("HOYWAL1\n")

// recHeaderSize is the per-record header: u32le payload length + u32le CRC32C
// of the payload.
const recHeaderSize = 8

// maxRecordSize is the sanity bound on a single record: a length field above
// it means the header bytes are garbage, not a huge record.
const maxRecordSize = 1 << 30

// castagnoli is the CRC32C table (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Decode errors. Both mean "stop replaying here": ErrTorn is an incomplete
// tail (a write that persisted only a prefix), ErrCorrupt a checksum or
// length-field mismatch (bit rot, or garbage after a torn boundary).
var (
	ErrTorn    = errors.New("durable: torn record (incomplete tail)")
	ErrCorrupt = errors.New("durable: corrupt record (checksum mismatch)")
)

// ErrClosed is returned by writes to a WAL after Close: orderly shutdown, so
// unlike ErrCrashed it is not transient and callers must not retry it.
var ErrClosed = errors.New("durable: WAL is closed")

// EncodeRecord appends the framed form of payload to dst and returns the
// extended slice.
func EncodeRecord(dst, payload []byte) []byte {
	var hdr [recHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// DecodeRecord reads one framed record from the front of b. It returns the
// payload, the total bytes consumed, and an error: ErrTorn when b holds only
// a prefix of a record, ErrCorrupt when the frame is complete but fails its
// checksum or sanity checks. The returned payload aliases b.
func DecodeRecord(b []byte) (payload []byte, n int, err error) {
	if len(b) < recHeaderSize {
		return nil, 0, ErrTorn
	}
	length := binary.LittleEndian.Uint32(b[0:4])
	sum := binary.LittleEndian.Uint32(b[4:8])
	if length > maxRecordSize {
		return nil, 0, fmt.Errorf("%w: length field %d exceeds limit", ErrCorrupt, length)
	}
	end := recHeaderSize + int(length)
	if len(b) < end {
		return nil, 0, ErrTorn
	}
	payload = b[recHeaderSize:end]
	if crc32.Checksum(payload, castagnoli) != sum {
		return nil, 0, ErrCorrupt
	}
	return payload, end, nil
}

// Recovery describes what Open found on disk.
type Recovery struct {
	// Records is the number of intact records replayed.
	Records int
	// TruncatedBytes is how much torn/corrupt tail was dropped (0 on a clean
	// log). The file is physically truncated back to the last good record.
	TruncatedBytes int64
	// Reset reports that the file held no usable header (empty or partial)
	// and was re-initialized.
	Reset bool
}

// WAL is an append-only write-ahead log. All methods are safe for concurrent
// use. The zero value is not usable; call Open.
type WAL struct {
	mu       sync.Mutex
	f        *os.File
	path     string
	opts     Options
	size     int64
	lastSync time.Time
	crashed  bool
	closed   bool
	metrics  *Metrics

	// consecFails drives Healthy(): consecutive failed durable writes,
	// reset by the first success.
	consecFails atomic.Int32
}

// Open opens (creating if necessary) the WAL at path, replays every intact
// record through replay in append order, truncates any torn or corrupt tail,
// and returns the log positioned for appending. A replay error aborts Open.
//
// An empty or partially-written header (a crash during initial creation) is
// treated like an empty log and re-initialized; a full-size header that is
// not a Hoyan WAL header is an error — Open refuses to clobber a foreign
// file. The log's durability counters land in m (see NewMetrics), recovery
// replay included.
func Open(path string, opts Options, m *Metrics, replay func(rec []byte) error) (*WAL, Recovery, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, Recovery{}, fmt.Errorf("durable: creating WAL dir: %w", err)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, Recovery{}, fmt.Errorf("durable: opening WAL %s: %w", path, err)
	}
	w := &WAL{f: f, path: path, opts: opts, metrics: m, lastSync: time.Now()}
	rec, err := w.recover(replay)
	if err != nil {
		f.Close()
		return nil, rec, err
	}
	return w, rec, nil
}

// recover replays the log and truncates the tail at the first bad record.
func (w *WAL) recover(replay func(rec []byte) error) (Recovery, error) {
	data, err := io.ReadAll(w.f)
	if err != nil {
		return Recovery{}, fmt.Errorf("durable: reading WAL %s: %w", w.path, err)
	}
	var rec Recovery
	if len(data) < len(walMagic) {
		// Empty file, or a crash mid-header: (re-)initialize.
		rec.Reset = len(data) > 0
		rec.TruncatedBytes = int64(len(data))
		if err := w.f.Truncate(0); err != nil {
			return rec, fmt.Errorf("durable: resetting WAL %s: %w", w.path, err)
		}
		if _, err := w.f.WriteAt(walMagic, 0); err != nil {
			return rec, fmt.Errorf("durable: writing WAL header: %w", err)
		}
		w.size = int64(len(walMagic))
		if _, err := w.f.Seek(w.size, io.SeekStart); err != nil {
			return rec, err
		}
		return rec, nil
	}
	if string(data[:len(walMagic)]) != string(walMagic) {
		return rec, fmt.Errorf("durable: %s is not a Hoyan WAL (bad header)", w.path)
	}
	off := len(walMagic)
	for off < len(data) {
		payload, n, derr := DecodeRecord(data[off:])
		if derr != nil {
			// Torn or corrupt tail: replay stops cleanly here; everything
			// after the last good record is dropped.
			break
		}
		if err := replay(payload); err != nil {
			return rec, fmt.Errorf("durable: replaying WAL %s record %d: %w", w.path, rec.Records, err)
		}
		rec.Records++
		off += n
	}
	w.metrics.Replayed.Add(int64(rec.Records))
	rec.TruncatedBytes = int64(len(data) - off)
	if rec.TruncatedBytes > 0 {
		if err := w.f.Truncate(int64(off)); err != nil {
			return rec, fmt.Errorf("durable: truncating torn WAL tail: %w", err)
		}
	}
	w.size = int64(off)
	if _, err := w.f.Seek(w.size, io.SeekStart); err != nil {
		return rec, err
	}
	return rec, nil
}

// Append logs one record. The record is durable per the fsync policy: with
// SyncAlways it has reached stable storage when Append returns; with
// SyncInterval/SyncNever it has at least reached the OS (surviving a process
// crash). Errors are transient from the caller's perspective: the log's
// in-memory offset is only advanced on success, so a retried Append after a
// partial write produces a torn tail that recovery truncates.
func (w *WAL) Append(payload []byte) error {
	frame := EncodeRecord(nil, payload)
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.stateErrLocked(); err != nil {
		return err
	}
	if _, err := w.f.WriteAt(frame, w.size); err != nil {
		w.noteWrite(err)
		return fmt.Errorf("durable: WAL append: %w", err)
	}
	w.size += int64(len(frame))
	w.metrics.Appended.Inc()
	w.metrics.AppendedBytes.Add(int64(len(frame)))
	if err := w.maybeSyncLocked(); err != nil {
		w.noteWrite(err)
		return err
	}
	w.noteWrite(nil)
	return nil
}

// stateErrLocked reports the closed/crashed sentinel, if any.
func (w *WAL) stateErrLocked() error {
	if w.crashed {
		return ErrCrashed
	}
	if w.closed {
		return fmt.Errorf("%w: %s", ErrClosed, w.path)
	}
	return nil
}

// maybeSyncLocked applies the fsync policy after an append.
func (w *WAL) maybeSyncLocked() error {
	switch w.opts.Fsync {
	case SyncAlways:
		if err := w.fsyncLocked(); err != nil {
			return fmt.Errorf("durable: WAL fsync: %w", err)
		}
	case SyncInterval:
		if time.Since(w.lastSync) >= DefaultSyncInterval {
			if err := w.fsyncLocked(); err != nil {
				return fmt.Errorf("durable: WAL fsync: %w", err)
			}
			w.lastSync = time.Now()
		}
	}
	return nil
}

// fsyncLocked syncs the log file and counts the fsync.
func (w *WAL) fsyncLocked() error {
	w.metrics.Fsyncs.Inc()
	return w.f.Sync()
}

// Sync forces an fsync regardless of policy.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.stateErrLocked(); err != nil {
		return err
	}
	if err := w.fsyncLocked(); err != nil {
		w.noteWrite(err)
		return fmt.Errorf("durable: WAL fsync: %w", err)
	}
	w.lastSync = time.Now()
	return nil
}

// Compact atomically replaces the log's contents with the given records (a
// snapshot of the owner's current state): they are written to a temporary
// file, fsynced, and renamed over the log, so a crash at any point leaves
// either the old log or the new one — never a mix.
func (w *WAL) Compact(records [][]byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.stateErrLocked(); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(w.path), filepath.Base(w.path)+".compact-*")
	if err != nil {
		w.noteWrite(err)
		return fmt.Errorf("durable: WAL compact: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	buf := append([]byte(nil), walMagic...)
	for _, rec := range records {
		buf = EncodeRecord(buf, rec)
	}
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		w.noteWrite(err)
		return fmt.Errorf("durable: WAL compact write: %w", err)
	}
	// The snapshot replaces history: it must be durable before the rename
	// makes it authoritative, whatever the append-path policy says.
	if w.opts.Fsync != SyncNever {
		if err := tmp.Sync(); err != nil {
			tmp.Close()
			w.noteWrite(err)
			return fmt.Errorf("durable: WAL compact fsync: %w", err)
		}
		w.metrics.Fsyncs.Inc()
	}
	if err := tmp.Close(); err != nil {
		w.noteWrite(err)
		return fmt.Errorf("durable: WAL compact close: %w", err)
	}
	if err := os.Rename(tmp.Name(), w.path); err != nil {
		w.noteWrite(err)
		return fmt.Errorf("durable: WAL compact rename: %w", err)
	}
	nf, err := os.OpenFile(w.path, os.O_RDWR, 0o644)
	if err != nil {
		w.noteWrite(err)
		return fmt.Errorf("durable: reopening compacted WAL: %w", err)
	}
	w.f.Close()
	w.f = nf
	w.size = int64(len(buf))
	if _, err := w.f.Seek(w.size, io.SeekStart); err != nil {
		return err
	}
	w.metrics.Compactions.Inc()
	w.noteWrite(nil)
	return nil
}

// Size returns the log's current byte size (header included).
func (w *WAL) Size() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.size
}

// Close flushes and closes the log.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed || w.crashed {
		return nil
	}
	w.closed = true
	if w.opts.Fsync != SyncNever {
		w.fsyncLocked()
	}
	return w.f.Close()
}

// CrashClose drops the file handle without flushing or compacting and makes
// every subsequent operation fail with ErrCrashed — the chaos harness's
// stand-in for kill -9 on the substrate process. Reopen the same path with
// Open to recover.
func (w *WAL) CrashClose() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed || w.crashed {
		return
	}
	w.crashed = true
	w.f.Close()
}

// noteWrite records one durable-write outcome for Healthy() and the
// write-failure counter.
func (w *WAL) noteWrite(err error) {
	if err == nil {
		w.consecFails.Store(0)
		return
	}
	w.consecFails.Add(1)
	w.metrics.WriteFailures.Inc()
}

// Healthy returns nil while writes are landing, and an error once
// HealthFailureThreshold consecutive durable writes have failed — the signal
// /healthz degrades on instead of crashing the process.
func (w *WAL) Healthy() error {
	if n := w.consecFails.Load(); n >= HealthFailureThreshold {
		return fmt.Errorf("durable: last %d writes to %s failed", n, filepath.Base(w.path))
	}
	return nil
}
