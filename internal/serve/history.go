package serve

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"hoyan/internal/durable"
	"hoyan/internal/objstore"
	"hoyan/internal/telemetry"
)

// HistoryEntry is one finished query's durable record. The entry itself is
// WAL-logged; the (potentially large) result body lives in the object store
// under ResultKey.
type HistoryEntry struct {
	ID          string    `json:"id"`
	Tenant      string    `json:"tenant"`
	Kind        string    `json:"kind"`
	NetworkID   string    `json:"network_id"`
	State       string    `json:"state"`
	Error       string    `json:"error,omitempty"`
	EnqueuedAt  time.Time `json:"enqueued_at"`
	FinishedAt  time.Time `json:"finished_at"`
	QueueWaitMS float64   `json:"queue_wait_ms"`
	RunMS       float64   `json:"run_ms"`
	ResultKey   string    `json:"result_key,omitempty"`
}

// history is a bounded, WAL-backed ring of finished queries. Restarting the
// daemon replays the WAL, so GET /v1/history survives crashes; entries past
// the bound are compacted away together with their result blobs.
type history struct {
	mu      sync.Mutex
	wal     *durable.WAL
	store   *objstore.Disk
	entries []HistoryEntry
	limit   int
}

// openHistory opens (or replays) the run-history store under dir.
func openHistory(dir string, limit int, opts durable.Options, reg *telemetry.Registry) (*history, error) {
	if limit <= 0 {
		limit = 1024
	}
	h := &history{limit: limit}
	store, err := objstore.OpenDisk(filepath.Join(dir, "results"), opts, reg)
	if err != nil {
		return nil, fmt.Errorf("serve: history objstore: %w", err)
	}
	h.store = store
	wal, _, err := durable.Open(filepath.Join(dir, "history.wal"), opts, durable.NewMetrics(reg, "serve_history"), func(rec []byte) error {
		var e HistoryEntry
		if err := json.Unmarshal(rec, &e); err != nil {
			return err
		}
		h.entries = append(h.entries, e)
		return nil
	})
	if err != nil {
		store.Close()
		return nil, fmt.Errorf("serve: history wal: %w", err)
	}
	h.wal = wal
	if len(h.entries) > limit {
		h.entries = h.entries[len(h.entries)-limit:]
	}
	return h, nil
}

// Record appends one finished query, storing its result body (if any) in the
// object store, and compacts past the bound.
func (h *history) Record(e HistoryEntry, result *QueryResult) error {
	if result != nil {
		body, err := json.Marshal(result)
		if err != nil {
			return err
		}
		e.ResultKey = "result/" + e.ID
		if err := h.store.Put(e.ResultKey, body); err != nil {
			return err
		}
	}
	rec, err := json.Marshal(e)
	if err != nil {
		return err
	}

	h.mu.Lock()
	defer h.mu.Unlock()
	h.entries = append(h.entries, e)
	if err := h.wal.Append(rec); err != nil {
		return err
	}
	if len(h.entries) > h.limit {
		evicted := h.entries[:len(h.entries)-h.limit]
		h.entries = append([]HistoryEntry(nil), h.entries[len(h.entries)-h.limit:]...)
		records := make([][]byte, 0, len(h.entries))
		for _, keep := range h.entries {
			r, err := json.Marshal(keep)
			if err != nil {
				return err
			}
			records = append(records, r)
		}
		if err := h.wal.Compact(records); err != nil {
			return err
		}
		for _, old := range evicted {
			if old.ResultKey != "" {
				h.store.Delete(old.ResultKey)
			}
		}
	}
	return nil
}

// List returns the newest-first entries, optionally filtered by tenant,
// capped at limit (0 = 100).
func (h *history) List(tenant string, limit int) []HistoryEntry {
	if limit <= 0 {
		limit = 100
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	var out []HistoryEntry
	for i := len(h.entries) - 1; i >= 0 && len(out) < limit; i-- {
		if tenant != "" && h.entries[i].Tenant != tenant {
			continue
		}
		out = append(out, h.entries[i])
	}
	return out
}

// Result fetches a stored result body by entry ID.
func (h *history) Result(id string) (*QueryResult, error) {
	body, err := h.store.Get("result/" + id)
	if err != nil {
		return nil, err
	}
	var res QueryResult
	if err := json.Unmarshal(body, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// Entry finds one entry by ID.
func (h *history) Entry(id string) (HistoryEntry, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for i := len(h.entries) - 1; i >= 0; i-- {
		if h.entries[i].ID == id {
			return h.entries[i], true
		}
	}
	return HistoryEntry{}, false
}

// Close flushes and closes the WAL and object store.
func (h *history) Close() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	err := h.wal.Close()
	if cerr := h.store.Close(); err == nil {
		err = cerr
	}
	return err
}
