package backend

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
)

// Store is a named collection of block files: the paper's media. A compute
// node's disk, a storage node's NFS export, and a tmpfs all appear as Stores
// so chain construction can place each image on the medium the experiment
// calls for.
type Store interface {
	// Open returns a handle to an existing file. Handles are independent:
	// closing one does not invalidate others on the same name.
	Open(name string, readOnly bool) (File, error)

	// Create returns a handle to a new empty file, replacing any
	// existing content under that name.
	Create(name string) (File, error)

	// Remove deletes the named file.
	Remove(name string) error

	// Stat reports the file's size, or an error if it does not exist.
	Stat(name string) (int64, error)
}

// ErrNotExist is returned by Store operations on missing names.
var ErrNotExist = errors.New("backend: file does not exist")

// MemStore is an in-memory Store: the tmpfs / RAM medium. All handles to a
// name share the same MemFile. A file's storage is released (its chunks
// recycled) once it has left the store — removed, or replaced by Create —
// and its last handle has closed; until then every handle keeps working.
type MemStore struct {
	mu    sync.Mutex
	files map[string]*MemFile
	open  map[*MemFile]int // open handles per file, named or not
}

// NewMemStore returns an empty memory store.
func NewMemStore() *MemStore {
	return &MemStore{files: make(map[string]*MemFile), open: make(map[*MemFile]int)}
}

// Open returns a shared handle to the named file.
func (s *MemStore) Open(name string, readOnly bool) (File, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.files[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotExist, name)
	}
	if readOnly {
		return &roFile{s.handleLocked(name, f)}, nil
	}
	return s.handleLocked(name, f), nil
}

// Create installs a fresh file under name.
func (s *MemStore) Create(name string) (File, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.unnameLocked(name)
	f := NewMemFile()
	s.files[name] = f
	return s.handleLocked(name, f), nil
}

// Remove deletes the named file.
func (s *MemStore) Remove(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.files[name]; !ok {
		return fmt.Errorf("%w: %s", ErrNotExist, name)
	}
	s.unnameLocked(name)
	return nil
}

// unnameLocked takes name's file (if any) out of the store, releasing it
// when no handle is open on it.
func (s *MemStore) unnameLocked(name string) {
	if f, ok := s.files[name]; ok {
		delete(s.files, name)
		if s.open[f] == 0 {
			f.Close() //nolint:errcheck // unreachable now
		}
	}
}

func (s *MemStore) handleLocked(name string, f *MemFile) *memHandle {
	s.open[f]++
	return &memHandle{MemFile: f, s: s, name: name}
}

// memHandle is one open handle on a MemStore file. Closing it closes the
// file only when it was the file's last handle and the file has left the
// store; closing twice is a no-op.
type memHandle struct {
	*MemFile
	s      *MemStore
	name   string
	closed atomic.Bool
}

func (h *memHandle) Close() error {
	if h.closed.Swap(true) {
		return nil
	}
	s := h.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.open[h.MemFile]--; s.open[h.MemFile] > 0 {
		return nil
	}
	delete(s.open, h.MemFile)
	if s.files[h.name] != h.MemFile {
		h.MemFile.Close() //nolint:errcheck // its last handle is gone
	}
	return nil
}

// Stat reports the size of the named file.
func (s *MemStore) Stat(name string) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.files[name]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNotExist, name)
	}
	return f.Size()
}

// Names lists stored file names in sorted order.
func (s *MemStore) Names() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.files))
	for n := range s.files {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// TotalBytes sums the sizes of all stored files.
func (s *MemStore) TotalBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var total int64
	for _, f := range s.files {
		if sz, err := f.Size(); err == nil {
			total += sz
		}
	}
	return total
}

// roFile rejects mutation.
type roFile struct{ File }

func (roFile) WriteAt(p []byte, off int64) (int, error) { return 0, errReadOnlyStore }
func (roFile) Truncate(int64) error                     { return errReadOnlyStore }

var errReadOnlyStore = errors.New("backend: file opened read-only")

// DirStore is a directory-backed Store for the command-line tools.
type DirStore struct {
	dir string
}

// NewDirStore returns a Store rooted at dir (created if absent).
func NewDirStore(dir string) (*DirStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &DirStore{dir: dir}, nil
}

func (s *DirStore) path(name string) string { return filepath.Join(s.dir, filepath.Clean(name)) }

// Open opens an existing file in the directory.
func (s *DirStore) Open(name string, readOnly bool) (File, error) {
	f, err := OpenOSFile(s.path(name), readOnly)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("%w: %s", ErrNotExist, name)
		}
		return nil, err
	}
	return f, nil
}

// Create creates/truncates a file in the directory.
func (s *DirStore) Create(name string) (File, error) {
	return CreateOSFile(s.path(name))
}

// Remove deletes a file from the directory.
func (s *DirStore) Remove(name string) error {
	err := os.Remove(s.path(name))
	if os.IsNotExist(err) {
		return fmt.Errorf("%w: %s", ErrNotExist, name)
	}
	return err
}

// Stat reports a file's size.
func (s *DirStore) Stat(name string) (int64, error) {
	fi, err := os.Stat(s.path(name))
	if err != nil {
		if os.IsNotExist(err) {
			return 0, fmt.Errorf("%w: %s", ErrNotExist, name)
		}
		return 0, err
	}
	return fi.Size(), nil
}

// The copy loop keeps four 1 MiB windows in flight: the jumbo segments an
// rblock client sizes its receive buffer for on a zero-copy open.
const copyWindow, copyInFlight = 1 << 20, 4

var copyBufPool = sync.Pool{New: func() any { b := make([]byte, copyWindow); return &b }}

// ErrTooLarge is returned by StreamFile for a source above its limit.
var ErrTooLarge = errors.New("backend: source exceeds the copy limit")

// CopyFile copies a whole file between stores and fsyncs the copy (cache
// transfers to the storage node's memory, Fig. 13). Returns bytes copied.
func CopyFile(dst Store, dstName string, src Store, srcName string) (int64, error) {
	return copyFile(dst, dstName, src, srcName, 0, true)
}

// StreamFile is CopyFile for a caller that makes the copy durable itself: it
// does not fsync, and a source above limit bytes (when limit > 0) is refused
// with ErrTooLarge before dstName is created.
func StreamFile(dst Store, dstName string, src Store, srcName string, limit int64) (int64, error) {
	return copyFile(dst, dstName, src, srcName, limit, false)
}

func copyFile(dst Store, dstName string, src Store, srcName string, limit int64, durable bool) (int64, error) {
	in, err := src.Open(srcName, true)
	if err != nil {
		return 0, err
	}
	defer in.Close() //nolint:errcheck // read-only handle
	size, err := in.Size()
	if err != nil {
		return 0, err
	}
	if limit > 0 && size > limit {
		return 0, fmt.Errorf("%w: %s is %d bytes, the limit %d", ErrTooLarge, srcName, size, limit)
	}
	out, err := dst.Create(dstName)
	if err != nil {
		return 0, err
	}
	copied, err := copyWindows(out, in, size)
	if err == nil && durable {
		err = out.Sync()
	}
	if err != nil {
		out.Close() //nolint:errcheck // already failing
		return copied, err
	}
	return copied, out.Close()
}

// copyWindows copies size bytes of in to out and reports the bytes written.
// Each worker reads the next window into its pooled buffer, writes it at its
// offset as it lands and starts its writeback, so a closing fsync finds the
// file on its way to disk. After the first error no worker takes a window.
func copyWindows(out File, in io.ReaderAt, size int64) (int64, error) {
	hint, _ := out.(interface{ StartWriteback(off, n int64) })
	workers := min(copyInFlight, (size+copyWindow-1)/copyWindow)
	errs := make(chan error, workers)
	var next, copied atomic.Int64
	var wg sync.WaitGroup
	wg.Add(int(workers))
	for range workers {
		go func() {
			defer wg.Done()
			bp := copyBufPool.Get().(*[]byte)
			defer copyBufPool.Put(bp)
			for len(errs) == 0 {
				off := next.Add(copyWindow) - copyWindow
				if off >= size {
					return
				}
				buf := (*bp)[:min(copyWindow, size-off)]
				err := ReadFull(in, buf, off)
				if err == nil {
					err = WriteFull(out, buf, off)
				}
				if err != nil {
					errs <- err
					return
				}
				if hint != nil {
					hint.StartWriteback(off, int64(len(buf)))
				}
				copied.Add(int64(len(buf)))
			}
		}()
	}
	wg.Wait()
	close(errs)
	return copied.Load(), <-errs // nil when no worker failed
}
