package backend

import "sync/atomic"

// Counters aggregates traffic through a CountingFile. All fields are updated
// atomically and may be read concurrently. This is how the evaluation
// harness observes "traffic at the storage node" (Fig. 9/10): the base
// image's container is wrapped in a CountingFile and every byte the CoW/cache
// chain pulls from it is tallied here.
type Counters struct {
	ReadOps      atomic.Int64
	ReadBytes    atomic.Int64
	WriteOps     atomic.Int64
	WriteBytes   atomic.Int64
	SyncOps      atomic.Int64
	TruncateOps  atomic.Int64
	SizeOps      atomic.Int64
	MaxReadSize  atomic.Int64
	MaxWriteSize atomic.Int64
}

// Reset zeroes all counters.
func (c *Counters) Reset() {
	c.ReadOps.Store(0)
	c.ReadBytes.Store(0)
	c.WriteOps.Store(0)
	c.WriteBytes.Store(0)
	c.SyncOps.Store(0)
	c.TruncateOps.Store(0)
	c.SizeOps.Store(0)
	c.MaxReadSize.Store(0)
	c.MaxWriteSize.Store(0)
}

func storeMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// CountingFile wraps a File and tallies every operation into Counters.
type CountingFile struct {
	inner File
	c     *Counters
}

// NewCountingFile wraps inner, tallying into c.
func NewCountingFile(inner File, c *Counters) *CountingFile {
	return &CountingFile{inner: inner, c: c}
}

// ReadAt counts the bytes actually transferred and forwards.
func (f *CountingFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := f.inner.ReadAt(p, off)
	f.c.ReadOps.Add(1)
	f.c.ReadBytes.Add(int64(n))
	storeMax(&f.c.MaxReadSize, int64(n))
	return n, err
}

// WriteAt counts the bytes actually transferred and forwards.
func (f *CountingFile) WriteAt(p []byte, off int64) (int, error) {
	n, err := f.inner.WriteAt(p, off)
	f.c.WriteOps.Add(1)
	f.c.WriteBytes.Add(int64(n))
	storeMax(&f.c.MaxWriteSize, int64(n))
	return n, err
}

// Size counts and forwards.
func (f *CountingFile) Size() (int64, error) {
	f.c.SizeOps.Add(1)
	return f.inner.Size()
}

// Truncate counts and forwards.
func (f *CountingFile) Truncate(n int64) error {
	f.c.TruncateOps.Add(1)
	return f.inner.Truncate(n)
}

// Sync counts and forwards.
func (f *CountingFile) Sync() error {
	f.c.SyncOps.Add(1)
	return f.inner.Sync()
}

// Close forwards; counters remain readable afterwards.
func (f *CountingFile) Close() error { return f.inner.Close() }

// HookFile wraps a File and invokes callbacks around reads and writes. The
// cluster simulator uses it to charge simulated time (network transfer,
// disk service) for every byte moved through a particular medium, while the
// data itself still flows through the real image-format code.
type HookFile struct {
	inner File
	// OnRead and OnWrite, when non-nil, run before the operation is
	// forwarded, receiving the offset and length.
	OnRead  func(off int64, n int)
	OnWrite func(off int64, n int)
	// OnSync, when non-nil, runs before Sync is forwarded.
	OnSync func()
}

// NewHookFile wraps inner with empty hooks.
func NewHookFile(inner File) *HookFile { return &HookFile{inner: inner} }

// ReadAt invokes OnRead then forwards.
func (f *HookFile) ReadAt(p []byte, off int64) (int, error) {
	if f.OnRead != nil {
		f.OnRead(off, len(p))
	}
	return f.inner.ReadAt(p, off)
}

// WriteAt invokes OnWrite then forwards.
func (f *HookFile) WriteAt(p []byte, off int64) (int, error) {
	if f.OnWrite != nil {
		f.OnWrite(off, len(p))
	}
	return f.inner.WriteAt(p, off)
}

// Size forwards.
func (f *HookFile) Size() (int64, error) { return f.inner.Size() }

// Truncate forwards.
func (f *HookFile) Truncate(n int64) error { return f.inner.Truncate(n) }

// Sync invokes OnSync then forwards.
func (f *HookFile) Sync() error {
	if f.OnSync != nil {
		f.OnSync()
	}
	return f.inner.Sync()
}

// Close forwards.
func (f *HookFile) Close() error { return f.inner.Close() }
