// Package backend provides the block-file abstraction underneath image
// formats. An image format (internal/qcow) reads and writes its container
// through the File interface, so the same format code can run over OS files,
// memory files (the tmpfs stand-in used throughout the evaluation), remote
// block devices (internal/rblock), or instrumented wrappers that count or
// delay traffic.
package backend

import (
	"errors"
	"io"
)

// File is a random-access block container. It is the minimal surface an
// image format needs: positioned reads and writes, growth, durability and
// release. Implementations must allow ReadAt beyond the current size to
// return io.EOF or short reads consistent with io.ReaderAt semantics.
type File interface {
	io.ReaderAt
	io.WriterAt

	// Size reports the current length of the container in bytes.
	Size() (int64, error)

	// Truncate grows or shrinks the container to exactly n bytes. Growth
	// exposes zero bytes.
	Truncate(n int64) error

	// Sync flushes buffered state to stable storage. For memory files it
	// is a no-op kept for interface parity with OS files.
	Sync() error

	// Close releases the container. Further operations are invalid.
	Close() error
}

// ErrClosed is returned by operations on a closed file.
var ErrClosed = errors.New("backend: file is closed")

// ErrNegativeOffset is returned when a caller passes a negative offset.
var ErrNegativeOffset = errors.New("backend: negative offset")

// ReadFull reads exactly len(p) bytes at off, translating the short-read
// conventions of ReadAt into a single error. Reads that run past the end of
// the file fail with io.ErrUnexpectedEOF.
func ReadFull(f io.ReaderAt, p []byte, off int64) error {
	n, err := f.ReadAt(p, off)
	if n == len(p) {
		return nil
	}
	if err == nil || err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return err
}

// Range is one piece of a batched read: len(P) bytes at Off.
type Range struct {
	P   []byte
	Off int64
}

// ReadBatch fills every range in rs, each with ReadFull's rules. A file with
// a ReadBatch method of its own (a remote file keeps all of the batch in
// flight at once) serves the whole batch; any other is read range by range.
func ReadBatch(f io.ReaderAt, rs []Range) error {
	if b, ok := f.(interface{ ReadBatch([]Range) error }); ok {
		return b.ReadBatch(rs)
	}
	for _, r := range rs {
		if err := ReadFull(f, r.P, r.Off); err != nil {
			return err
		}
	}
	return nil
}

// WriteFull writes all of p at off, failing if the implementation reports a
// short write without an error.
func WriteFull(f io.WriterAt, p []byte, off int64) error {
	n, err := f.WriteAt(p, off)
	if err != nil {
		return err
	}
	if n != len(p) {
		return io.ErrShortWrite
	}
	return nil
}

// NopClose wraps f so Close becomes a no-op; useful when several consumers
// share one underlying file whose lifetime an outer owner manages.
func NopClose(f File) File { return nopCloseWrap{f} }

type nopCloseWrap struct{ File }

func (nopCloseWrap) Close() error { return nil }
