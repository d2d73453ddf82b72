//go:build !linux

package backend

// StartWriteback is a no-op where sync_file_range(2) does not exist.
func (o *OSFile) StartWriteback(off, n int64) {}
