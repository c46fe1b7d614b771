package durable

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// openCollect opens the WAL at path and collects replayed payloads.
func openCollect(t *testing.T, path string, opts Options) (*WAL, Recovery, [][]byte) {
	t.Helper()
	var got [][]byte
	w, rec, err := Open(path, opts, NewMetrics(nil, ""), func(p []byte) error {
		got = append(got, append([]byte(nil), p...))
		return nil
	})
	if err != nil {
		t.Fatalf("Open(%s): %v", path, err)
	}
	return w, rec, got
}

func TestWALRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.wal")
	w, rec, _ := openCollect(t, path, Options{Fsync: SyncNever})
	if rec.Records != 0 || rec.TruncatedBytes != 0 {
		t.Fatalf("fresh WAL recovery = %+v, want zeroes", rec)
	}
	var want [][]byte
	for i := 0; i < 50; i++ {
		p := []byte(fmt.Sprintf("record-%03d", i))
		want = append(want, p)
		if err := w.Append(p); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	w2, rec, got := openCollect(t, path, Options{Fsync: SyncNever})
	defer w2.Close()
	if rec.Records != 50 || rec.TruncatedBytes != 0 {
		t.Fatalf("recovery = %+v, want 50 clean records", rec)
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestWALRecoveryTails is the table over damaged logs: truncated tails at
// every interesting boundary, bit-flipped payloads and checksums, and
// empty/partial/foreign headers.
func TestWALRecoveryTails(t *testing.T) {
	// Build a clean three-record log once; each case mutates a copy.
	base := append([]byte(nil), walMagic...)
	payloads := [][]byte{
		[]byte("alpha"),
		[]byte("bravo-longer-payload"),
		[]byte("charlie"),
	}
	var offsets []int // byte offset where each record starts
	for _, p := range payloads {
		offsets = append(offsets, len(base))
		base = EncodeRecord(base, p)
	}

	cases := []struct {
		name        string
		mutate      func([]byte) []byte
		wantRecords int
		wantDrop    bool // TruncatedBytes > 0
		wantReset   bool
		wantErr     bool
	}{
		{name: "clean", mutate: func(b []byte) []byte { return b }, wantRecords: 3},
		{name: "empty file", mutate: func([]byte) []byte { return nil }, wantRecords: 0},
		{
			name:      "partial header",
			mutate:    func([]byte) []byte { return []byte("HOY") },
			wantReset: true, wantDrop: true,
		},
		{
			name:    "foreign header",
			mutate:  func(b []byte) []byte { return append([]byte("NOTAWAL\n"), b[len(walMagic):]...) },
			wantErr: true,
		},
		{
			name:        "torn mid last header",
			mutate:      func(b []byte) []byte { return b[:offsets[2]+3] },
			wantRecords: 2, wantDrop: true,
		},
		{
			name:        "torn mid last payload",
			mutate:      func(b []byte) []byte { return b[:len(b)-2] },
			wantRecords: 2, wantDrop: true,
		},
		{
			name:        "torn mid first record",
			mutate:      func(b []byte) []byte { return b[:offsets[0]+recHeaderSize+1] },
			wantRecords: 0, wantDrop: true,
		},
		{
			name: "bit flip in middle payload",
			mutate: func(b []byte) []byte {
				c := append([]byte(nil), b...)
				c[offsets[1]+recHeaderSize] ^= 0x40
				return c
			},
			wantRecords: 1, wantDrop: true,
		},
		{
			name: "bit flip in middle checksum",
			mutate: func(b []byte) []byte {
				c := append([]byte(nil), b...)
				c[offsets[1]+5] ^= 0x01
				return c
			},
			wantRecords: 1, wantDrop: true,
		},
		{
			name: "garbage length field",
			mutate: func(b []byte) []byte {
				c := append([]byte(nil), b...)
				c[offsets[0]+3] = 0xFF // length > maxRecordSize
				return c
			},
			wantRecords: 0, wantDrop: true,
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "tail.wal")
			if err := os.WriteFile(path, tc.mutate(append([]byte(nil), base...)), 0o644); err != nil {
				t.Fatal(err)
			}
			var got int
			w, rec, err := Open(path, Options{Fsync: SyncNever}, NewMetrics(nil, ""), func([]byte) error { got++; return nil })
			if tc.wantErr {
				if err == nil {
					w.Close()
					t.Fatal("Open succeeded, want error")
				}
				return
			}
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			defer w.Close()
			if got != tc.wantRecords || rec.Records != tc.wantRecords {
				t.Fatalf("replayed %d (recovery %d), want %d", got, rec.Records, tc.wantRecords)
			}
			if (rec.TruncatedBytes > 0) != tc.wantDrop {
				t.Fatalf("TruncatedBytes = %d, wantDrop=%v", rec.TruncatedBytes, tc.wantDrop)
			}
			if rec.Reset != tc.wantReset {
				t.Fatalf("Reset = %v, want %v", rec.Reset, tc.wantReset)
			}

			// The damaged tail must be physically gone: appending and
			// reopening yields the surviving records plus the new one.
			if err := w.Append([]byte("after-recovery")); err != nil {
				t.Fatalf("Append after recovery: %v", err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			w2, rec2, replayed := openCollect(t, path, Options{Fsync: SyncNever})
			defer w2.Close()
			if rec2.TruncatedBytes != 0 || rec2.Records != tc.wantRecords+1 {
				t.Fatalf("second recovery = %+v, want %d clean records", rec2, tc.wantRecords+1)
			}
			if last := replayed[len(replayed)-1]; string(last) != "after-recovery" {
				t.Fatalf("last record = %q", last)
			}
		})
	}
}

func TestWALCompact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "compact.wal")
	w, _, _ := openCollect(t, path, Options{Fsync: SyncNever})
	for i := 0; i < 100; i++ {
		if err := w.Append([]byte(fmt.Sprintf("r%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	before := w.Size()
	if err := w.Compact([][]byte{[]byte("snapshot")}); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if w.Size() >= before {
		t.Fatalf("size after compact %d, want < %d", w.Size(), before)
	}
	if got := w.metrics.Compactions.Value(); got != 1 {
		t.Fatalf("compactions counter = %d, want 1", got)
	}
	// Appends after compaction land after the snapshot.
	if err := w.Append([]byte("post")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, rec, got := openCollect(t, path, Options{})
	defer w2.Close()
	if rec.Records != 2 || string(got[0]) != "snapshot" || string(got[1]) != "post" {
		t.Fatalf("replay after compact = %q (recovery %+v)", got, rec)
	}
}

func TestWALCrashClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "crash.wal")
	w, _, _ := openCollect(t, path, Options{Fsync: SyncNever})
	if err := w.Append([]byte("persisted")); err != nil {
		t.Fatal(err)
	}
	w.CrashClose()
	if err := w.Append([]byte("lost")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("Append after CrashClose = %v, want ErrCrashed", err)
	}
	if err := w.Sync(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("Sync after CrashClose = %v, want ErrCrashed", err)
	}
	if err := w.Compact(nil); !errors.Is(err, ErrCrashed) {
		t.Fatalf("Compact after CrashClose = %v, want ErrCrashed", err)
	}
	// Reopen recovers everything appended pre-crash.
	w2, rec, got := openCollect(t, path, Options{})
	defer w2.Close()
	if rec.Records != 1 || string(got[0]) != "persisted" {
		t.Fatalf("reopen after crash replayed %q (recovery %+v)", got, rec)
	}
}

// TestWALClosedIsSentinel pins the orderly-shutdown error: writes after Close
// fail with ErrClosed (callers must not retry it), reads of Size still work.
func TestWALClosedIsSentinel(t *testing.T) {
	w, _, _ := openCollect(t, filepath.Join(t.TempDir(), "closed.wal"), Options{Fsync: SyncNever})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte("late")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append after Close = %v, want ErrClosed", err)
	}
	if err := w.Compact(nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Compact after Close = %v, want ErrClosed", err)
	}
	if got := w.metrics.WriteFailures.Value(); got != 0 {
		t.Fatalf("writes refused by a closed WAL counted as %d write failures", got)
	}
}

func TestWALHealthy(t *testing.T) {
	path := filepath.Join(t.TempDir(), "health.wal")
	w, _, _ := openCollect(t, path, Options{Fsync: SyncNever})
	defer w.Close()
	if err := w.Healthy(); err != nil {
		t.Fatalf("fresh WAL unhealthy: %v", err)
	}
	for i := 0; i < HealthFailureThreshold; i++ {
		w.noteWrite(errors.New("disk full"))
	}
	if err := w.Healthy(); err == nil {
		t.Fatal("Healthy() = nil after threshold failures, want error")
	}
	if got := w.metrics.WriteFailures.Value(); got != HealthFailureThreshold {
		t.Fatalf("write failures counter = %d, want %d", got, HealthFailureThreshold)
	}
	w.noteWrite(nil)
	if err := w.Healthy(); err != nil {
		t.Fatalf("Healthy() after success = %v, want nil", err)
	}
}

func TestParsePolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Policy
		err  bool
	}{
		{"always", SyncAlways, false},
		{"interval", SyncInterval, false},
		{"", SyncInterval, false},
		{"never", SyncNever, false},
		{" Never ", SyncNever, false},
		{"sometimes", SyncInterval, true},
	} {
		got, err := ParsePolicy(tc.in)
		if (err != nil) != tc.err || got != tc.want {
			t.Errorf("ParsePolicy(%q) = %v, %v; want %v, err=%v", tc.in, got, err, tc.want, tc.err)
		}
	}
	for _, p := range []Policy{SyncAlways, SyncInterval, SyncNever} {
		rt, err := ParsePolicy(p.String())
		if err != nil || rt != p {
			t.Errorf("round trip %v -> %q -> %v, %v", p, p.String(), rt, err)
		}
	}
}

// FuzzWALRecord throws arbitrary bytes at the record decoder (it must never
// panic, and must consume at most the input) and checks encode/decode
// round-trips.
func FuzzWALRecord(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("short"))
	f.Add(EncodeRecord(nil, []byte("seed payload")))
	f.Add(EncodeRecord(EncodeRecord(nil, []byte("two")), []byte("records")))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, n, err := DecodeRecord(data)
		if err == nil {
			if n < recHeaderSize || n > len(data) {
				t.Fatalf("DecodeRecord consumed %d of %d bytes", n, len(data))
			}
			// A successfully decoded record must re-encode to the same frame.
			if re := EncodeRecord(nil, payload); !bytes.Equal(re, data[:n]) {
				t.Fatalf("re-encode mismatch: %x vs %x", re, data[:n])
			}
		} else if !errors.Is(err, ErrTorn) && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("DecodeRecord error %v is neither ErrTorn nor ErrCorrupt", err)
		}
		// Round-trip the input as a payload.
		frame := EncodeRecord(nil, data)
		got, n, err := DecodeRecord(frame)
		if err != nil || n != len(frame) || !bytes.Equal(got, data) {
			t.Fatalf("round trip failed: n=%d err=%v", n, err)
		}
	})
}
