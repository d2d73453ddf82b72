package backend

import (
	"io"
	"sync"
)

// MemFile is an in-memory File. It stands in for tmpfs-backed files in the
// paper's setup ("we use the Linux tmpfs and tmpfs exports for backing
// (remote) files by memory when necessary", §5) and backs all simulator
// experiments so the full data path runs without touching the host disk.
//
// Storage is chunked so that sparse images (a multi-GB virtual disk with a
// few hundred MB touched) do not allocate their full size.
type MemFile struct {
	mu     sync.RWMutex
	chunks map[int64][]byte // chunk index -> chunk (len == chunkSize)
	size   int64
	closed bool
}

const memChunkSize = 64 << 10

// chunkPool recycles the chunks of memory files nothing can read any more
// (closed, truncated away, or a MemStore file unnamed with its last handle
// closed), so short-lived files — a boot session's CoW scratch — stop
// allocating and zeroing a fresh 64 KiB per chunk they touch.
var chunkPool sync.Pool

// newChunk returns a chunk for a write; clean asks for zeros, which a write
// that covers the whole chunk does not need.
func newChunk(clean bool) []byte {
	if p, _ := chunkPool.Get().(*[memChunkSize]byte); p != nil {
		if clean {
			clear(p[:])
		}
		return p[:]
	}
	return make([]byte, memChunkSize)
}

func recycleChunk(c []byte) { chunkPool.Put((*[memChunkSize]byte)(c)) }

// NewMemFile returns an empty memory file.
func NewMemFile() *MemFile {
	return &MemFile{chunks: make(map[int64][]byte)}
}

// NewMemFileSize returns a memory file pre-sized to n zero bytes (sparse).
func NewMemFileSize(n int64) *MemFile {
	f := NewMemFile()
	f.size = n
	return f
}

// ReadAt implements io.ReaderAt. Holes read as zero bytes.
func (f *MemFile) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, ErrNegativeOffset
	}
	f.mu.RLock()
	defer f.mu.RUnlock()
	if f.closed {
		return 0, ErrClosed
	}
	if off >= f.size {
		return 0, io.EOF
	}
	n := len(p)
	var errEOF error
	if off+int64(n) > f.size {
		n = int(f.size - off)
		errEOF = io.EOF
	}
	read := 0
	for read < n {
		ci := (off + int64(read)) / memChunkSize
		co := (off + int64(read)) % memChunkSize
		want := n - read
		if avail := memChunkSize - int(co); want > avail {
			want = avail
		}
		if chunk, ok := f.chunks[ci]; ok {
			copy(p[read:read+want], chunk[co:])
		} else {
			zero(p[read : read+want])
		}
		read += want
	}
	return n, errEOF
}

// WriteAt implements io.WriterAt, growing the file as needed.
func (f *MemFile) WriteAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, ErrNegativeOffset
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return 0, ErrClosed
	}
	n := len(p)
	written := 0
	for written < n {
		ci := (off + int64(written)) / memChunkSize
		co := (off + int64(written)) % memChunkSize
		want := n - written
		if avail := memChunkSize - int(co); want > avail {
			want = avail
		}
		chunk, ok := f.chunks[ci]
		if !ok {
			chunk = newChunk(want < memChunkSize)
			f.chunks[ci] = chunk
		}
		copy(chunk[co:], p[written:written+want])
		written += want
	}
	if end := off + int64(n); end > f.size {
		f.size = end
	}
	return n, nil
}

// Size reports the file length.
func (f *MemFile) Size() (int64, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	if f.closed {
		return 0, ErrClosed
	}
	return f.size, nil
}

// Truncate grows (sparsely) or shrinks the file.
func (f *MemFile) Truncate(n int64) error {
	if n < 0 {
		return ErrNegativeOffset
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return ErrClosed
	}
	if n < f.size {
		// Drop chunks wholly past the new end and zero the tail of the
		// boundary chunk so a later re-grow reads zeros.
		lastChunk := n / memChunkSize
		for ci, chunk := range f.chunks {
			if ci > lastChunk {
				delete(f.chunks, ci)
				recycleChunk(chunk)
			}
		}
		if chunk, ok := f.chunks[lastChunk]; ok {
			zero(chunk[n%memChunkSize:])
		}
	}
	f.size = n
	return nil
}

// Sync is a no-op for memory files.
func (f *MemFile) Sync() error {
	f.mu.RLock()
	defer f.mu.RUnlock()
	if f.closed {
		return ErrClosed
	}
	return nil
}

// Close releases the storage.
func (f *MemFile) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return ErrClosed
	}
	f.closed = true
	for _, chunk := range f.chunks {
		recycleChunk(chunk)
	}
	f.chunks = nil
	return nil
}

func zero(b []byte) {
	for i := range b {
		b[i] = 0
	}
}
