package backend

import (
	"bytes"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
)

func TestMemFileReadWriteRoundTrip(t *testing.T) {
	f := NewMemFile()
	data := []byte("hello, block world")
	if err := WriteFull(f, data, 100); err != nil {
		t.Fatalf("WriteFull: %v", err)
	}
	got := make([]byte, len(data))
	if err := ReadFull(f, got, 100); err != nil {
		t.Fatalf("ReadFull: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("round trip mismatch: %q != %q", got, data)
	}
	if sz, _ := f.Size(); sz != 100+int64(len(data)) {
		t.Fatalf("size = %d, want %d", sz, 100+len(data))
	}
}

func TestMemFileHolesReadZero(t *testing.T) {
	f := NewMemFileSize(1 << 20)
	buf := make([]byte, 4096)
	for i := range buf {
		buf[i] = 0xff
	}
	n, err := f.ReadAt(buf, 500000)
	if err != nil || n != len(buf) {
		t.Fatalf("ReadAt hole: n=%d err=%v", n, err)
	}
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("hole byte %d = %#x, want 0", i, b)
		}
	}
}

func TestMemFileEOFSemantics(t *testing.T) {
	f := NewMemFileSize(10)
	buf := make([]byte, 20)
	n, err := f.ReadAt(buf, 0)
	if n != 10 || err != io.EOF {
		t.Fatalf("short read past end: n=%d err=%v, want 10, EOF", n, err)
	}
	n, err = f.ReadAt(buf, 10)
	if n != 0 || err != io.EOF {
		t.Fatalf("read at end: n=%d err=%v, want 0, EOF", n, err)
	}
	if _, err := f.ReadAt(buf, -1); err != ErrNegativeOffset {
		t.Fatalf("negative offset: err=%v", err)
	}
}

func TestMemFileCrossChunkWrite(t *testing.T) {
	f := NewMemFile()
	data := make([]byte, 3*memChunkSize+123)
	rnd := rand.New(rand.NewSource(7))
	rnd.Read(data)
	off := int64(memChunkSize - 50) // straddles several chunk boundaries
	if err := WriteFull(f, data, off); err != nil {
		t.Fatalf("WriteFull: %v", err)
	}
	got := make([]byte, len(data))
	if err := ReadFull(f, got, off); err != nil {
		t.Fatalf("ReadFull: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("cross-chunk round trip mismatch")
	}
}

func TestMemFileTruncateShrinkZeroesTail(t *testing.T) {
	f := NewMemFile()
	if err := WriteFull(f, bytes.Repeat([]byte{0xaa}, 1000), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(100); err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(1000); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 900)
	if err := ReadFull(f, buf, 100); err != nil {
		t.Fatal(err)
	}
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("byte %d after shrink+grow = %#x, want 0", i, b)
		}
	}
}

func TestMemFileSparseness(t *testing.T) {
	f := NewMemFileSize(1 << 40) // 1 TiB virtual
	if err := WriteFull(f, []byte{1}, 1<<39); err != nil {
		t.Fatal(err)
	}
	if got := allocatedBytes(f); got > 4*memChunkSize {
		t.Fatalf("sparse file allocated %d bytes for a 1-byte write", got)
	}
}

func TestMemFileClosedOps(t *testing.T) {
	f := NewMemFile()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ReadAt(make([]byte, 1), 0); err != ErrClosed {
		t.Fatalf("read after close: %v", err)
	}
	if _, err := f.WriteAt(make([]byte, 1), 0); err != ErrClosed {
		t.Fatalf("write after close: %v", err)
	}
	if err := f.Close(); err != ErrClosed {
		t.Fatalf("double close: %v", err)
	}
}

// Property: any sequence of writes to a MemFile matches the same writes to a
// plain byte slice.
func TestMemFileQuickMatchesReference(t *testing.T) {
	type op struct {
		Off  uint16
		Data []byte
	}
	check := func(ops []op) bool {
		const limit = 1 << 16
		f := NewMemFile()
		ref := make([]byte, limit+256)
		maxEnd := int64(0)
		for _, o := range ops {
			if len(o.Data) > 256 {
				o.Data = o.Data[:256]
			}
			off := int64(o.Off)
			if _, err := f.WriteAt(o.Data, off); err != nil {
				return false
			}
			copy(ref[off:], o.Data)
			if end := off + int64(len(o.Data)); end > maxEnd {
				maxEnd = end
			}
		}
		got := make([]byte, maxEnd)
		if maxEnd > 0 {
			if err := ReadFull(f, got, 0); err != nil {
				return false
			}
		}
		return bytes.Equal(got, ref[:maxEnd])
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestOSFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "img.bin")
	f, err := CreateOSFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("on-disk payload")
	if err := WriteFull(f, data, 4096); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if sz, _ := f.Size(); sz != 4096+int64(len(data)) {
		t.Fatalf("size = %d", sz)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	ro, err := OpenOSFile(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	got := make([]byte, len(data))
	if err := ReadFull(ro, got, 4096); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("os file round trip mismatch")
	}
	if _, err := ro.WriteAt([]byte{1}, 0); err == nil {
		t.Fatal("write to read-only OS file succeeded")
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}
}

func TestCountingFileTallies(t *testing.T) {
	inner := NewMemFile()
	c := &Counters{}
	cf := NewCountingFile(inner, c)
	if err := WriteFull(cf, make([]byte, 1000), 0); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 400)
	if err := ReadFull(cf, buf, 100); err != nil {
		t.Fatal(err)
	}
	if err := ReadFull(cf, buf[:100], 0); err != nil {
		t.Fatal(err)
	}
	if err := cf.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := c.WriteBytes.Load(); got != 1000 {
		t.Fatalf("WriteBytes = %d", got)
	}
	if got := c.ReadBytes.Load(); got != 500 {
		t.Fatalf("ReadBytes = %d", got)
	}
	if got := c.ReadOps.Load(); got != 2 {
		t.Fatalf("ReadOps = %d", got)
	}
	if got := c.MaxReadSize.Load(); got != 400 {
		t.Fatalf("MaxReadSize = %d", got)
	}
	if got := c.SyncOps.Load(); got != 1 {
		t.Fatalf("SyncOps = %d", got)
	}
	c.Reset()
	if c.ReadBytes.Load() != 0 || c.WriteOps.Load() != 0 {
		t.Fatal("Reset did not zero counters")
	}
}

func TestHookFileCallbacks(t *testing.T) {
	inner := NewMemFileSize(1 << 20)
	hf := NewHookFile(inner)
	var reads, writes, syncs int
	var lastOff int64
	hf.OnRead = func(off int64, n int) { reads++; lastOff = off }
	hf.OnWrite = func(off int64, n int) { writes++ }
	hf.OnSync = func() { syncs++ }

	if err := WriteFull(hf, make([]byte, 10), 50); err != nil {
		t.Fatal(err)
	}
	if err := ReadFull(hf, make([]byte, 10), 50); err != nil {
		t.Fatal(err)
	}
	if err := hf.Sync(); err != nil {
		t.Fatal(err)
	}
	if reads != 1 || writes != 1 || syncs != 1 || lastOff != 50 {
		t.Fatalf("hooks: reads=%d writes=%d syncs=%d lastOff=%d", reads, writes, syncs, lastOff)
	}
}

func TestReadFullPastEnd(t *testing.T) {
	f := NewMemFileSize(4)
	err := ReadFull(f, make([]byte, 8), 0)
	if err != io.ErrUnexpectedEOF {
		t.Fatalf("ReadFull past end: %v, want ErrUnexpectedEOF", err)
	}
}

func TestFaultyFileArming(t *testing.T) {
	f := NewFaultyFile(NewMemFileSize(1 << 20))
	buf := make([]byte, 10)
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	f.FailReadAfter(1)
	if _, err := f.ReadAt(buf, 0); err != nil { // one more success
		t.Fatal(err)
	}
	if _, err := f.ReadAt(buf, 0); err != ErrInjected {
		t.Fatalf("armed read did not fail: %v", err)
	}
	f.FailReadAfter(-1)
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatalf("disarm failed: %v", err)
	}
	f.FailWriteAfter(0)
	if _, err := f.WriteAt(buf, 0); err != ErrInjected {
		t.Fatalf("armed write did not fail: %v", err)
	}
	f.FailSync(true)
	if err := f.Sync(); err != ErrInjected {
		t.Fatalf("armed sync did not fail: %v", err)
	}
	f.FailSync(false)
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Size(); err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(100); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// allocatedBytes reports how many bytes of chunk storage f has materialised.
func allocatedBytes(f *MemFile) int64 {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return int64(len(f.chunks)) * memChunkSize
}
