package backend

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestMemStoreLifecycle(t *testing.T) {
	s := NewMemStore()
	if _, err := s.Open("ghost", true); !errors.Is(err, ErrNotExist) {
		t.Fatalf("open missing: %v", err)
	}
	f, err := s.Create("a.img")
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteFull(f, []byte("hello"), 0); err != nil {
		t.Fatal(err)
	}
	// Handles share content; Close is a no-op on the underlying data.
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	h2, err := s.Open("a.img", false)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 5)
	if err := ReadFull(h2, got, 0); err != nil || string(got) != "hello" {
		t.Fatalf("shared content: %v %q", err, got)
	}
	if sz, err := s.Stat("a.img"); err != nil || sz != 5 {
		t.Fatalf("stat: %d %v", sz, err)
	}
	if _, err := s.Stat("ghost"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("stat missing: %v", err)
	}

	// Read-only handles reject mutation but read fine.
	ro, err := s.Open("a.img", true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ro.WriteAt([]byte{1}, 0); err == nil {
		t.Fatal("RO handle accepted write")
	}
	if err := ro.Truncate(1); err == nil {
		t.Fatal("RO handle accepted truncate")
	}
	if err := ReadFull(ro, got, 0); err != nil {
		t.Fatal(err)
	}

	s.Create("b.img") //nolint:errcheck
	names := s.Names()
	if len(names) != 2 || names[0] != "a.img" || names[1] != "b.img" {
		t.Fatalf("names = %v", names)
	}
	if s.TotalBytes() != 5 {
		t.Fatalf("total = %d", s.TotalBytes())
	}
	if err := s.Remove("a.img"); err != nil {
		t.Fatal(err)
	}
	if err := s.Remove("a.img"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("double remove: %v", err)
	}
}

func TestDirStoreLifecycle(t *testing.T) {
	dir := t.TempDir()
	s, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Open("ghost", true); !errors.Is(err, ErrNotExist) {
		t.Fatalf("open missing: %v", err)
	}
	if _, err := s.Stat("ghost"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("stat missing: %v", err)
	}
	f, err := s.Create("x.img")
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteFull(f, bytes.Repeat([]byte{9}, 1000), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if sz, err := s.Stat("x.img"); err != nil || sz != 1000 {
		t.Fatalf("stat: %d %v", sz, err)
	}
	ro, err := s.Open("x.img", true)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 1000)
	if err := ReadFull(ro, got, 0); err != nil {
		t.Fatal(err)
	}
	ro.Close() //nolint:errcheck
	if err := s.Remove("x.img"); err != nil {
		t.Fatal(err)
	}
	if err := s.Remove("x.img"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("double remove: %v", err)
	}
}

func TestCopyFileBetweenStores(t *testing.T) {
	src := NewMemStore()
	dst := NewMemStore()
	f, _ := src.Create("big")
	payload := bytes.Repeat([]byte{0x5c}, 3<<20+123) // > one copy buffer
	if err := WriteFull(f, payload, 0); err != nil {
		t.Fatal(err)
	}
	n, err := CopyFile(dst, "copy", src, "big")
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(payload)) {
		t.Fatalf("copied %d of %d", n, len(payload))
	}
	out, err := dst.Open("copy", true)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(payload))
	if err := ReadFull(out, got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("copy mismatch")
	}
	// Missing source fails cleanly.
	if _, err := CopyFile(dst, "nope", src, "ghost"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("copy missing: %v", err)
	}
}

// syncCountStore counts the Syncs made on the files it creates.
type syncCountStore struct {
	*MemStore
	syncs atomic.Int64
}

func (s *syncCountStore) Create(name string) (File, error) {
	f, err := s.MemStore.Create(name)
	return syncCountFile{File: f, n: &s.syncs}, err
}

type syncCountFile struct {
	File
	n *atomic.Int64
}

func (f syncCountFile) Sync() error { f.n.Add(1); return f.File.Sync() }

// TestStreamFileLeavesDurabilityToCaller: CopyFile ends in one fsync,
// StreamFile in none, and StreamFile refuses a source above its limit before
// the destination exists.
func TestStreamFileLeavesDurabilityToCaller(t *testing.T) {
	src := NewMemStore()
	f, _ := src.Create("img")
	payload := bytes.Repeat([]byte{7}, 2*copyWindow+5)
	if err := WriteFull(f, payload, 0); err != nil {
		t.Fatal(err)
	}
	dst := &syncCountStore{MemStore: NewMemStore()}
	if _, err := CopyFile(dst, "copied", src, "img"); err != nil || dst.syncs.Load() != 1 {
		t.Fatalf("CopyFile: %v, %d syncs, want 1", err, dst.syncs.Load())
	}
	if n, err := StreamFile(dst, "streamed", src, "img", int64(len(payload))); err != nil || n != int64(len(payload)) {
		t.Fatalf("StreamFile: %d bytes, %v", n, err)
	}
	if dst.syncs.Load() != 1 {
		t.Fatalf("StreamFile synced its copy")
	}
	if _, err := StreamFile(dst, "big", src, "img", int64(len(payload))-1); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("over the limit: %v, want ErrTooLarge", err)
	}
	if _, err := dst.Stat("big"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("a refused copy created its destination: %v", err)
	}
}

// barrierReader holds each read until want reads have been in flight at once
// (or two seconds passed), so a copy that keeps fewer windows in flight
// cannot reach the peak.
type barrierReader struct {
	io.ReaderAt
	want     int
	mu       sync.Mutex
	inFlight int
	peak     int
}

func (r *barrierReader) ReadAt(p []byte, off int64) (int, error) {
	r.mu.Lock()
	r.inFlight++
	r.peak = max(r.peak, r.inFlight)
	deadline := time.Now().Add(2 * time.Second)
	for r.peak < r.want && time.Now().Before(deadline) {
		r.mu.Unlock()
		time.Sleep(time.Millisecond)
		r.mu.Lock()
	}
	r.inFlight--
	r.mu.Unlock()
	return r.ReaderAt.ReadAt(p, off)
}

// TestCopyWindowsInFlight: the copy keeps copyInFlight windows on the wire at
// once and writes each at its own offset, whatever order they land in.
func TestCopyWindowsInFlight(t *testing.T) {
	payload := make([]byte, 9*copyWindow+123)
	for i := range payload {
		payload[i] = byte(i / 4099)
	}
	src := NewMemFileSize(int64(len(payload)))
	if err := WriteFull(src, payload, 0); err != nil {
		t.Fatal(err)
	}
	r := &barrierReader{ReaderAt: src, want: copyInFlight}
	out := NewMemFile()
	n, err := copyWindows(out, r, int64(len(payload)))
	if err != nil || n != int64(len(payload)) {
		t.Fatalf("copied %d of %d: %v", n, len(payload), err)
	}
	if r.peak != copyInFlight {
		t.Fatalf("peak windows in flight = %d, want %d", r.peak, copyInFlight)
	}
	got := make([]byte, len(payload))
	if err := ReadFull(out, got, 0); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("copy differs from its source (%v)", err)
	}
}

// failingReader counts the reads issued through it and fails every one after
// the first ok.
type failingReader struct {
	io.ReaderAt
	ok int64
	n  atomic.Int64
}

func (r *failingReader) ReadAt(p []byte, off int64) (int, error) {
	if r.n.Add(1) > r.ok {
		return 0, ErrInjected
	}
	return r.ReaderAt.ReadAt(p, off)
}

// TestCopyWindowsFailureStops: after the first failed read no worker takes
// another window — at most one failing read per worker follows the five that
// succeed — the error is the injected one, and no worker outlives the copy.
func TestCopyWindowsFailureStops(t *testing.T) {
	const windows = 32
	src := &failingReader{ReaderAt: NewMemFileSize(windows * copyWindow), ok: 5}
	before := runtime.NumGoroutine()
	_, err := copyWindows(NewMemFile(), src, windows*copyWindow)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("copy error %v, want the injected fault", err)
	}
	if reads := src.n.Load(); reads > 5+copyInFlight {
		t.Fatalf("%d windows read after a fault armed at the 6th, want at most %d", reads, 5+copyInFlight)
	}
	// A worker that has returned may still be exiting: wait for the count
	// to come back, up to a second, then assert it.
	after := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); after > before && time.Now().Before(deadline); after = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	if after > before {
		t.Fatalf("%d goroutines after a failed copy, %d before", after, before)
	}
}

func TestNopClose(t *testing.T) {
	f := NewMemFileSize(10)
	nc := NopClose(f)
	if err := nc.Close(); err != nil {
		t.Fatal(err)
	}
	// The underlying file survives the wrapper's Close.
	if _, err := f.ReadAt(make([]byte, 1), 0); err != nil {
		t.Fatalf("underlying closed: %v", err)
	}
}

// TestMemStoreRemovedFileKeepsHandles: a file removed (or replaced by Create)
// while handles are open keeps serving them its bytes; only when its last
// handle closes is its storage released. A named file outlives its handles.
func TestMemStoreRemovedFileKeepsHandles(t *testing.T) {
	s := NewMemStore()
	pat := bytes.Repeat([]byte("scratch!"), 3*memChunkSize/8)
	w, err := s.Create("cow")
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteFull(w, pat, 0); err != nil {
		t.Fatal(err)
	}
	r, err := s.Open("cow", true)
	if err != nil {
		t.Fatal(err)
	}
	readsPat := func(name string, f File) {
		t.Helper()
		got := make([]byte, len(pat))
		if err := ReadFull(f, got, 0); err != nil || !bytes.Equal(got, pat) {
			t.Fatalf("%s: %v or wrong bytes", name, err)
		}
	}
	if err := s.Remove("cow"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Stat("cow"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("stat after remove: %v", err)
	}
	readsPat("writer after remove", w)
	readsPat("reader after remove", r)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil { // twice is a no-op
		t.Fatal(err)
	}
	readsPat("reader after the writer closed", r)
	if err := WriteFull(w, pat[:8], 0); err != nil {
		t.Fatalf("a closed handle of a file with another open handle: %v", err)
	}
	mf := r.(*roFile).File.(*memHandle).MemFile
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if n := mf.AllocatedBytes(); n != 0 {
		t.Fatalf("removed file with no handle still holds %d bytes", n)
	}
	if _, err := r.ReadAt(make([]byte, 8), 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("read of a released file: %v, want ErrClosed", err)
	}

	// Replaced by Create while open: the old handle keeps the old bytes.
	old, err := s.Create("img")
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteFull(old, pat, 0); err != nil {
		t.Fatal(err)
	}
	fresh, err := s.Create("img")
	if err != nil {
		t.Fatal(err)
	}
	readsPat("replaced file", old)
	if sz, _ := fresh.Size(); sz != 0 {
		t.Fatalf("fresh file has %d bytes", sz)
	}
	if err := WriteFull(fresh, pat, 0); err != nil {
		t.Fatal(err)
	}
	old.Close()   //nolint:errcheck // test
	fresh.Close() //nolint:errcheck // test

	// A named file keeps its bytes with every handle closed.
	again, err := s.Open("img", true)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close() //nolint:errcheck // test
	readsPat("named file reopened", again)
}

// TestMemFileChunkReuse: a chunk recycled from a closed file reads zeros
// wherever a later partial write did not land, and a write covering a whole
// recycled chunk reads back exactly.
func TestMemFileChunkReuse(t *testing.T) {
	dirty := bytes.Repeat([]byte{0xa5}, memChunkSize)
	whole := bytes.Repeat([]byte{0x3c}, memChunkSize)
	reused := 0
	for i := 0; i < 200 && reused < 5; i++ {
		old := NewMemFile()
		if err := WriteFull(old, dirty, 0); err != nil {
			t.Fatal(err)
		}
		chunk := &old.chunks[0][0]
		old.Close() //nolint:errcheck // recycles the chunk

		f := NewMemFile()
		if err := WriteFull(f, []byte("partial"), 100); err != nil {
			t.Fatal(err)
		}
		if &f.chunks[0][0] == chunk {
			reused++
		}
		if err := f.Truncate(memChunkSize); err != nil { // read the whole chunk
			t.Fatal(err)
		}
		got := make([]byte, memChunkSize)
		if err := ReadFull(f, got, 0); err != nil {
			t.Fatal(err)
		}
		want := make([]byte, memChunkSize)
		copy(want[100:], "partial")
		if !bytes.Equal(got, want) {
			t.Fatal("a recycled chunk kept bytes no write put there")
		}
		f.Close() //nolint:errcheck // recycles again

		g := NewMemFile()
		if err := WriteFull(g, whole, memChunkSize); err != nil {
			t.Fatal(err)
		}
		if err := ReadFull(g, got, memChunkSize); err != nil || !bytes.Equal(got, whole) {
			t.Fatalf("whole-chunk write: %v or wrong bytes", err)
		}
		g.Close() //nolint:errcheck // test
	}
	if reused == 0 {
		t.Fatal("no chunk was ever recycled")
	}
}
