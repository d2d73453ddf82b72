//go:build linux

package backend

import "syscall"

// StartWriteback asks the kernel to begin writing [off, off+n) out without
// waiting for it (sync_file_range(2), SYNC_FILE_RANGE_WRITE). It is a hint:
// only Sync makes anything durable. A writer that streams a large file and
// fsyncs once at the end calls it per window, so the fsync finds most of the
// file already on its way to disk.
func (o *OSFile) StartWriteback(off, n int64) {
	syscall.SyncFileRange(int(o.f.Fd()), off, n, 2) //nolint:errcheck // advisory
}
