//go:build !linux

package zerocopy

import "net"

// Supported reports whether the platform provides true zero-copy sends.
const Supported = false

// SendExtents is copyExtents on platforms without a sendfile fast path.
func SendExtents(conn net.Conn, exts []FileExtent) (int64, error) {
	return copyExtents(conn, exts)
}
