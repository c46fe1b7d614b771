package objstore

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"hoyan/internal/durable"
)

func openDisk(t *testing.T, dir string, opts durable.Options) *Disk {
	t.Helper()
	d, err := OpenDisk(dir, opts, nil)
	if err != nil {
		t.Fatalf("OpenDisk(%s): %v", dir, err)
	}
	return d
}

func TestDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	d := openDisk(t, dir, durable.Options{Fsync: durable.SyncNever})
	if err := d.Put("tasks/t1/route/0/input", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := d.Put("tasks/t1/route/1/input", []byte("world")); err != nil {
		t.Fatal(err)
	}
	if err := d.Put("tasks/t1/route/0/input", []byte("hello-v2")); err != nil {
		t.Fatal(err)
	}
	if err := d.Delete("tasks/t1/route/1/input"); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the acknowledged state survives.
	d2 := openDisk(t, dir, durable.Options{})
	defer d2.Close()
	got, err := d2.Get("tasks/t1/route/0/input")
	if err != nil || string(got) != "hello-v2" {
		t.Fatalf("Get after reopen = %q, %v", got, err)
	}
	if _, err := d2.Get("tasks/t1/route/1/input"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted key resurrected: %v", err)
	}
	st := d2.Stats()
	if st.Gets != 1 {
		t.Fatalf("stats after reopen = %+v", st)
	}
}

func TestDiskCrashReopen(t *testing.T) {
	dir := t.TempDir()
	d := openDisk(t, dir, durable.Options{Fsync: durable.SyncNever})
	big := bytes.Repeat([]byte("x"), 1<<16)
	if err := d.Put("a", big); err != nil {
		t.Fatal(err)
	}
	if err := d.Put("b", []byte("small")); err != nil {
		t.Fatal(err)
	}
	d.CrashClose()
	if err := d.Put("c", nil); !errors.Is(err, durable.ErrCrashed) {
		t.Fatalf("Put after crash = %v, want ErrCrashed", err)
	}
	if _, err := d.Get("a"); !errors.Is(err, durable.ErrCrashed) {
		t.Fatalf("Get after crash = %v, want ErrCrashed", err)
	}
	if _, err := d.List(""); !errors.Is(err, durable.ErrCrashed) {
		t.Fatalf("List after crash = %v, want ErrCrashed", err)
	}

	d2 := openDisk(t, dir, durable.Options{})
	defer d2.Close()
	got, err := d2.Get("a")
	if err != nil || !bytes.Equal(got, big) {
		t.Fatalf("Get(a) after crash-reopen: %d bytes, %v", len(got), err)
	}
	if got, err := d2.Get("b"); err != nil || string(got) != "small" {
		t.Fatalf("Get(b) after crash-reopen = %q, %v", got, err)
	}
}

// TestDiskTornManifest damages the manifest tail: the store reopens cleanly
// with the torn record's key dropped, and a stray object file for the
// unacknowledged key is cleaned up.
func TestDiskTornManifest(t *testing.T) {
	dir := t.TempDir()
	d := openDisk(t, dir, durable.Options{Fsync: durable.SyncNever})
	if err := d.Put("kept", []byte("kept-data")); err != nil {
		t.Fatal(err)
	}
	if err := d.Put("torn", []byte("torn-data")); err != nil {
		t.Fatal(err)
	}
	d.CrashClose()

	// Tear the tail of the manifest mid-record: the "torn" put is lost.
	manifest := filepath.Join(dir, "manifest.wal")
	data, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(manifest, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	d2 := openDisk(t, dir, durable.Options{})
	defer d2.Close()
	if got, err := d2.Get("kept"); err != nil || string(got) != "kept-data" {
		t.Fatalf("Get(kept) = %q, %v", got, err)
	}
	if _, err := d2.Get("torn"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get(torn) = %v, want ErrNotFound (tail dropped)", err)
	}
	// The orphaned object file is gone.
	if _, err := os.Stat(filepath.Join(dir, "objects", "torn")); !os.IsNotExist(err) {
		t.Fatalf("orphan object file survived: %v", err)
	}
}

// TestDiskMissingObjectFile drops a manifest-acknowledged file (a machine
// crash under fsync=never): the key is dropped at open instead of serving a
// phantom object.
func TestDiskMissingObjectFile(t *testing.T) {
	dir := t.TempDir()
	d := openDisk(t, dir, durable.Options{Fsync: durable.SyncNever})
	if err := d.Put("ghost", []byte("data")); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "objects", "ghost")); err != nil {
		t.Fatal(err)
	}
	d2 := openDisk(t, dir, durable.Options{})
	defer d2.Close()
	if _, err := d2.Get("ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get(ghost) = %v, want ErrNotFound", err)
	}
}

// TestDiskCompaction drives the manifest past its compaction threshold and
// checks the log shrinks while the state survives a reopen.
func TestDiskCompaction(t *testing.T) {
	dir := t.TempDir()
	d := openDisk(t, dir, durable.Options{Fsync: durable.SyncNever, CompactEvery: 8})
	for i := 0; i < 40; i++ {
		key := "obj"
		if err := d.Put(key, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// 40 rewrites of one key with CompactEvery=8: the manifest holds far
	// fewer than 40 records.
	info, err := os.Stat(filepath.Join(dir, "manifest.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() > 1024 {
		t.Fatalf("manifest not compacted: %d bytes", info.Size())
	}
	d2 := openDisk(t, dir, durable.Options{})
	defer d2.Close()
	got, err := d2.Get("obj")
	if err != nil || !bytes.Equal(got, []byte{39}) {
		t.Fatalf("Get after compaction = %v, %v", got, err)
	}
}

// TestDiskKeyEscaping checks slashed keys map to flat files and survive.
func TestDiskKeyEscaping(t *testing.T) {
	dir := t.TempDir()
	d := openDisk(t, dir, durable.Options{})
	weird := []string{"a/b/c", "a%2Fb", "trailing/", "../escape", "plain"}
	for i, k := range weird {
		if err := d.Put(k, []byte{byte(i)}); err != nil {
			t.Fatalf("Put(%q): %v", k, err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2 := openDisk(t, dir, durable.Options{})
	defer d2.Close()
	for i, k := range weird {
		got, err := d2.Get(k)
		if err != nil || !bytes.Equal(got, []byte{byte(i)}) {
			t.Fatalf("Get(%q) = %v, %v", k, got, err)
		}
	}
	// Nothing escaped the objects directory.
	if _, err := os.Stat(filepath.Join(dir, "..", "escape")); !os.IsNotExist(err) {
		t.Fatalf("key escaped the objects dir: %v", err)
	}
}

// TestDiskReplayMatchesMemory feeds the same random operations to a disk
// store and an in-memory one, kills the disk store, and requires the reopened
// store to hold exactly what the in-memory one holds. The small CompactEvery
// makes the replayed manifest a snapshot plus a tail several times over.
func TestDiskReplayMatchesMemory(t *testing.T) {
	dir := t.TempDir()
	opts := durable.Options{Fsync: durable.SyncNever, CompactEvery: 7}
	disk, memory := openDisk(t, dir, opts), NewMemory(nil)
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 300; i++ {
		key := fmt.Sprintf("tasks/t/%d", rng.Intn(12))
		if rng.Intn(3) > 0 {
			data := []byte(fmt.Sprintf("v%d", i))
			if err := disk.Put(key, data); err != nil {
				t.Fatal(err)
			}
			memory.Put(key, data)
			continue
		}
		if err := disk.Delete(key); err != nil {
			t.Fatal(err)
		}
		memory.Delete(key)
	}
	disk.CrashClose()

	reopened := openDisk(t, dir, opts)
	defer reopened.Close()
	got, err := reopened.List("")
	if err != nil {
		t.Fatal(err)
	}
	want, _ := memory.List("")
	if !slices.Equal(got, want) {
		t.Fatalf("replayed keys %v, in-memory store holds %v", got, want)
	}
	for _, key := range want {
		g, err := reopened.Get(key)
		w, _ := memory.Get(key)
		if err != nil || !bytes.Equal(g, w) {
			t.Fatalf("Get(%s) after replay = %q, %v; in-memory store holds %q", key, g, err, w)
		}
	}
}
