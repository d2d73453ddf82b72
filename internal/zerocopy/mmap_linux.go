//go:build linux

package zerocopy

import (
	"fmt"
	"os"
	"syscall"
)

// Mmap maps f[0:n) read-only and shared. The caller owns the mapping and
// must release it with Munmap; the mapping stays valid across an unlink of
// the file (eviction of a published cache), exactly like a held descriptor.
func Mmap(f *os.File, n int64) ([]byte, error) {
	if n <= 0 {
		return nil, fmt.Errorf("zerocopy: mmap of %d bytes", n)
	}
	if int64(int(n)) != n {
		return nil, fmt.Errorf("zerocopy: mmap of %d bytes exceeds address space", n)
	}
	return syscall.Mmap(int(f.Fd()), 0, int(n), syscall.PROT_READ, syscall.MAP_SHARED)
}

// Munmap releases a mapping returned by Mmap.
func Munmap(m []byte) error { return syscall.Munmap(m) }
