package objstore

import (
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"

	"hoyan/internal/durable"
	"hoyan/internal/telemetry"
)

// Disk is a disk-backed Store: each object lives in its own file (written
// atomically via tmp+rename), and a WAL manifest records which keys exist so
// a restart recovers the exact acknowledged key set without scanning and
// trusting stray files. Safe for concurrent use.
//
// Layout under the data directory:
//
//	<dir>/manifest.wal           durable.Journal of {op, key} records
//	<dir>/objects/<escaped key>  one file per object (url.PathEscape'd key)
type Disk struct {
	mu         sync.Mutex
	dir        string
	keys       map[string]struct{}
	j          *durable.Journal // the manifest
	syncAlways bool             // fsync object files before the rename

	counters storeCounters
}

// manifestRec is one manifest WAL record.
type manifestRec struct {
	Op  string `json:"op"` // "put" or "del"
	Key string `json:"key"`
}

// OpenDisk opens (creating if necessary) a disk-backed store rooted at dir,
// replaying the manifest and dropping any key whose object file did not make
// it to disk. Orphaned object and temp files (writes that crashed before
// their manifest record) are removed. Transfer counters and the manifest's
// durability metrics are registered in reg (nil reg = detached).
func OpenDisk(dir string, opts durable.Options, reg *telemetry.Registry) (*Disk, error) {
	objDir := filepath.Join(dir, "objects")
	if err := os.MkdirAll(objDir, 0o755); err != nil {
		return nil, fmt.Errorf("objstore: creating %s: %w", objDir, err)
	}
	d := &Disk{
		dir: dir, keys: make(map[string]struct{}), syncAlways: opts.Fsync == durable.SyncAlways,
		counters: newStoreCounters(reg, "hoyan_objstore_"),
	}
	j, err := durable.OpenJournal(filepath.Join(dir, "manifest.wal"), opts, durable.NewMetrics(reg, "objstore"), func(rec manifestRec) error {
		switch rec.Op {
		case "put":
			d.keys[rec.Key] = struct{}{}
		case "del":
			delete(d.keys, rec.Key)
		default:
			return fmt.Errorf("bad manifest op %q", rec.Op)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	d.j = j

	// Reconcile the manifest against the object files: a manifest entry
	// whose file vanished (machine crash before the data blocks landed) is
	// dropped — the fleet re-executes the subtask that produced it — and
	// files the manifest doesn't acknowledge are orphans from torn writes.
	ents, err := os.ReadDir(objDir)
	if err != nil {
		j.Close()
		return nil, fmt.Errorf("objstore: scanning %s: %w", objDir, err)
	}
	onDisk := make(map[string]struct{}, len(ents))
	for _, e := range ents {
		key, uerr := url.PathUnescape(e.Name())
		if uerr != nil || strings.Contains(e.Name(), ".tmp-") {
			os.Remove(filepath.Join(objDir, e.Name()))
			continue
		}
		if _, ok := d.keys[key]; !ok {
			os.Remove(filepath.Join(objDir, e.Name()))
			continue
		}
		onDisk[key] = struct{}{}
	}
	for key := range d.keys {
		if _, ok := onDisk[key]; !ok {
			delete(d.keys, key)
		}
	}
	return d, nil
}

// objPath maps a key to its object file.
func (d *Disk) objPath(key string) string {
	return filepath.Join(d.dir, "objects", url.PathEscape(key))
}

// Put implements Store: the object file is written to a temp file and
// renamed into place (readers never observe a partial object), then the key
// is acknowledged in the manifest.
func (d *Disk) Put(key string, data []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.j.Down(); err != nil {
		return err
	}
	path := d.objPath(key)
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		d.j.NoteExternalWrite(err)
		return fmt.Errorf("objstore: put %s: %w", key, err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		d.j.NoteExternalWrite(err)
		return fmt.Errorf("objstore: put %s: %w", key, err)
	}
	if d.syncAlways {
		if err := tmp.Sync(); err != nil {
			tmp.Close()
			d.j.NoteExternalWrite(err)
			return fmt.Errorf("objstore: put %s: %w", key, err)
		}
	}
	if err := tmp.Close(); err != nil {
		d.j.NoteExternalWrite(err)
		return fmt.Errorf("objstore: put %s: %w", key, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		d.j.NoteExternalWrite(err)
		return fmt.Errorf("objstore: put %s: %w", key, err)
	}
	if err := d.j.Log(manifestRec{Op: "put", Key: key}, d.snapshotLocked); err != nil {
		return err
	}
	d.keys[key] = struct{}{}
	d.counters.puts.Inc()
	d.counters.bytesIn.Add(int64(len(data)))
	return nil
}

// Get implements Store.
func (d *Disk) Get(key string) ([]byte, error) {
	d.mu.Lock()
	down := d.j.Down()
	_, ok := d.keys[key]
	d.mu.Unlock()
	if down != nil {
		return nil, down
	}
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	data, err := os.ReadFile(d.objPath(key))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
		}
		return nil, fmt.Errorf("objstore: get %s: %w", key, err)
	}
	d.counters.gets.Inc()
	d.counters.bytesOut.Add(int64(len(data)))
	return data, nil
}

// List implements Store.
func (d *Disk) List(prefix string) ([]string, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.j.Down(); err != nil {
		return nil, err
	}
	var out []string
	for k := range d.keys {
		if strings.HasPrefix(k, prefix) {
			out = append(out, k)
		}
	}
	slices.Sort(out)
	return out, nil
}

// Delete implements Store: the manifest forgets the key first, so a crash
// mid-delete leaves an orphan file (cleaned at next open), never a manifest
// entry pointing at nothing.
func (d *Disk) Delete(key string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.j.Down(); err != nil {
		return err
	}
	if _, ok := d.keys[key]; !ok {
		return nil
	}
	if err := d.j.Log(manifestRec{Op: "del", Key: key}, d.snapshotLocked); err != nil {
		return err
	}
	delete(d.keys, key)
	os.Remove(d.objPath(key))
	return nil
}

// snapshotLocked is the manifest's compaction state: one put per live key.
func (d *Disk) snapshotLocked() []any {
	keys := make([]string, 0, len(d.keys))
	for k := range d.keys {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	snap := make([]any, 0, len(keys))
	for _, k := range keys {
		snap = append(snap, manifestRec{Op: "put", Key: k})
	}
	return snap
}

// Stats implements StatsProvider.
func (d *Disk) Stats() Stats { return d.counters.stats() }

// Healthy reports nil while durable writes are landing (see durable.WAL.Healthy).
func (d *Disk) Healthy() error { return d.j.Healthy() }

// Close flushes the manifest and closes the store.
func (d *Disk) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.j.Close()
}

// CrashClose simulates the store process dying: the manifest handle is
// dropped without flushing and every subsequent operation fails with
// durable.ErrCrashed (transient — callers retry until a reopened store takes
// over).
func (d *Disk) CrashClose() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.j.CrashClose()
}
