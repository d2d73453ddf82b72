//go:build !linux

package zerocopy

import "os"

// Mmap is unavailable off Linux; callers keep the pread path.
func Mmap(*os.File, int64) ([]byte, error) { return nil, ErrUnsupported }

// Munmap matches the Linux signature; no mapping can exist to release.
func Munmap([]byte) error { return ErrUnsupported }
