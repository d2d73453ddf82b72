// Package zerocopy holds the platform fast paths that move published cache
// bytes to the wire (or into the boot path) without a user-space copy:
// sendfile(2) from an immutable cache file straight to a client socket, and
// read-only mmap of a warm container so in-process reads become memory
// copies instead of pread syscalls.
//
// Everything here is best-effort by contract: every entry point has a
// portable fallback (CopySegment, ErrUnsupported) so callers on non-Linux
// platforms — or over transports that are not real sockets — degrade to the
// ordinary copy path instead of failing. The serve-path invariant the fast
// paths rely on is IMMUTABILITY: a file segment handed to Send or a mapping
// installed by Mmap is read after the call returns with no lock held, which
// is only sound because published caches are frozen (0444, cluster mappings
// never change) and their descriptors are held open across eviction.
package zerocopy

import (
	"errors"
	"io"
	"os"
	"sync"
)

// ErrUnsupported marks a fast path the platform (or the concrete transport)
// cannot provide; callers fall back to the copy path.
var ErrUnsupported = errors.New("zerocopy: not supported on this platform")

// FileExtent is one physically contiguous run of an immutable container
// file: the unit the extent-export API (qcow.Image.PlainExtents) hands to
// the serve path, and the unit Send pushes to a socket.
type FileExtent struct {
	F   *os.File
	Off int64
	Len int64
}

// ExtentSource is implemented by devices that can translate a read over
// fully-valid raw clusters into container-file extents instead of bytes.
// PlainExtents appends the extents covering [off, off+n) to dst and reports
// whether the WHOLE range is served that way; ok == false means some part of
// the range needs the copy path (compressed cluster, partial sub-cluster,
// unallocated run, writable image) and the caller must fall back for the
// entire request. The returned extents stay valid as long as the device is
// open: the contract is only offered by read-only images whose cluster
// mappings are frozen.
type ExtentSource interface {
	PlainExtents(off, n int64, dst []FileExtent) ([]FileExtent, bool)
}

// Filer exposes the *os.File under a backend wrapper, the descriptor the
// sendfile and mmap paths need. Wrappers around os-backed files forward it;
// memory files and remote files do not implement it.
type Filer interface {
	SysFile() *os.File
}

// SysFile unwraps v to its *os.File, or nil when v is not os-backed.
func SysFile(v any) *os.File {
	if s, ok := v.(Filer); ok {
		return s.SysFile()
	}
	return nil
}

// segBufPool recycles the scratch buffers of the portable CopySegment
// fallback so the copy path allocates nothing in steady state.
var segBufPool = sync.Pool{New: func() any {
	b := make([]byte, 256<<10)
	return &b
}}

// CopySegment is the portable serve path for one file segment: pread into a
// pooled buffer, write out, resuming at the correct FILE offset after any
// short write (a short write consumes only part of the buffer; the next
// pread continues from off+done, not from a stale buffer position). It is
// the non-Linux body of Send and the fallback when the destination is not a
// real socket.
func CopySegment(w io.Writer, f *os.File, off, n int64) (int64, error) {
	bp := segBufPool.Get().(*[]byte)
	defer segBufPool.Put(bp)
	buf := *bp
	var done int64
	for done < n {
		chunk := n - done
		if chunk > int64(len(buf)) {
			chunk = int64(len(buf))
		}
		m, rerr := f.ReadAt(buf[:chunk], off+done)
		if m > 0 {
			wn, werr := writeFull(w, buf[:m])
			done += int64(wn)
			if werr != nil {
				return done, werr
			}
		}
		if rerr != nil {
			if errors.Is(rerr, io.EOF) {
				// The file ended before the promised segment length:
				// the frame header already announced n bytes, so a
				// short segment would desynchronise the stream.
				return done, io.ErrUnexpectedEOF
			}
			return done, rerr
		}
	}
	return done, nil
}

// writeFull pushes all of p, tolerating writers that return short counts
// without an error (rate-limited pipes in fault-injection tests do).
func writeFull(w io.Writer, p []byte) (int, error) {
	var done int
	for done < len(p) {
		n, err := w.Write(p[done:])
		done += n
		if err != nil {
			return done, err
		}
		if n == 0 {
			return done, io.ErrShortWrite
		}
	}
	return done, nil
}
