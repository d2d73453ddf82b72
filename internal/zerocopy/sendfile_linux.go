//go:build linux

package zerocopy

import (
	"io"
	"net"
	"os"
	"syscall"
)

// Supported reports whether the platform provides true zero-copy sends.
const Supported = true

// maxSendfileChunk bounds one sendfile(2) call; the kernel caps transfers
// around 2 GiB per call anyway, and resuming in bounded chunks keeps the
// short-return arithmetic honest.
const maxSendfileChunk = 1 << 30

// Send transfers f[off:off+n) to conn without copying the bytes through
// user space; it is SendExtents of one extent.
func Send(conn net.Conn, f *os.File, off, n int64) (int64, error) {
	if n <= 0 {
		return 0, nil
	}
	return SendExtents(conn, []FileExtent{{F: f, Off: off, Len: n}})
}

// SendExtents transfers exts to conn in order without copying the bytes
// through user space, under one hold of the socket's write side. The
// destination must be a real socket (anything exposing syscall.Conn); other
// writers — and transports whose raw write path refuses sendfile — degrade
// to CopySegment. Short sendfile returns and EAGAIN are resumed at the
// correct FILE offset (the extent's off+sent), never by replaying a stale
// position, so a slow receiver mid-batch cannot skew the stream. It reports
// the bytes sent and stops at the first error.
func SendExtents(conn net.Conn, exts []FileExtent) (int64, error) {
	sc, ok := conn.(syscall.Conn)
	if !ok {
		return copyExtents(conn, exts)
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		return copyExtents(conn, exts)
	}
	var total, sent int64 // sent: bytes of exts[i] already on the wire
	i := 0
	var opErr error
	fallback := false
	werr := rc.Write(func(fd uintptr) bool {
		for ; i < len(exts); i, sent = i+1, 0 {
			e := exts[i]
			src := int(e.F.Fd())
			for sent < e.Len {
				chunk := min(e.Len-sent, maxSendfileChunk)
				// pos is recomputed from sent every call: sendfile
				// advances it in place, and a short return resumes
				// exactly where the kernel stopped.
				pos := e.Off + sent
				m, err := syscall.Sendfile(int(fd), src, &pos, int(chunk))
				if m > 0 {
					sent += int64(m)
					total += int64(m)
				}
				switch err {
				case nil:
					if m == 0 {
						// The file ended before the promised length (the
						// caller's header already announced it).
						opErr = io.ErrUnexpectedEOF
						return true
					}
				case syscall.EINTR:
					// retry
				case syscall.EAGAIN:
					return false // wait for writability, then resume
				case syscall.EINVAL, syscall.ENOSYS:
					// The pair does not support sendfile after all; finish
					// the remainder through the copy path.
					fallback = true
					return true
				default:
					opErr = err
					return true
				}
			}
		}
		return true
	})
	if werr != nil {
		return total, werr
	}
	if fallback {
		e := exts[i]
		m, err := CopySegment(conn, e.F, e.Off+sent, e.Len-sent)
		total += m
		if err != nil {
			return total, err
		}
		m, err = copyExtents(conn, exts[i+1:])
		return total + m, err
	}
	return total, opErr
}
