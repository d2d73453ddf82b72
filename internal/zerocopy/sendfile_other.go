//go:build !linux

package zerocopy

import (
	"net"
	"os"
)

// Supported reports whether the platform provides true zero-copy sends.
const Supported = false

// Send degrades to the portable pread+write loop on platforms without a
// sendfile fast path. The contract (resume at the file offset after short
// writes, error on a file shorter than n) is identical.
func Send(conn net.Conn, f *os.File, off, n int64) (int64, error) {
	if n <= 0 {
		return 0, nil
	}
	return CopySegment(conn, f, off, n)
}

// SendExtents is copyExtents on platforms without a sendfile fast path.
func SendExtents(conn net.Conn, exts []FileExtent) (int64, error) {
	return copyExtents(conn, exts)
}
