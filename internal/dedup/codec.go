package dedup

import (
	"bytes"
	"compress/flate"
	"errors"
	"io"
	"sync"
)

// Pooled DEFLATE codecs and scratch buffers. flate.NewWriter allocates
// roughly a megabyte of window and probe state per call; paying that once
// per chunk made codec setup, not compression, the dominant cost of the
// publication path. Writers and readers are recycled through sync.Pool and
// rearmed with Reset, so steady-state chunk encode/decode allocates only
// the output bytes.

var flateWriterPool = sync.Pool{
	New: func() any {
		w, err := flate.NewWriter(io.Discard, flate.BestSpeed)
		if err != nil {
			panic(err) // BestSpeed is a valid level
		}
		return w
	},
}

// blobReader bundles a flate reader with its source so one pool entry
// carries both; bytes.Reader resets in place.
type blobReader struct {
	src  bytes.Reader
	fr   io.ReadCloser
	tail [1]byte // where inflateInto looks for bytes past the frame
}

var blobReaderPool = sync.Pool{
	New: func() any {
		br := &blobReader{}
		br.fr = flate.NewReader(&br.src)
		return br
	},
}

// deflateTo appends the DEFLATE stream of raw to buf through a pooled
// writer.
func deflateTo(buf *bytes.Buffer, raw []byte) error {
	fw := flateWriterPool.Get().(*flate.Writer)
	fw.Reset(buf)
	_, err := fw.Write(raw)
	if err == nil {
		err = fw.Close()
	}
	flateWriterPool.Put(fw)
	return err
}

// errPastFrame reports a DEFLATE stream that inflates to more bytes than its
// frame names.
var errPastFrame = errors.New("stream runs past its frame")

// inflateInto fills raw from the DEFLATE stream comp through a pooled
// reader. The stream must end exactly there: one that ends early or runs on
// is an error, so raw is either filled by the whole stream or the call fails.
func inflateInto(raw, comp []byte) error {
	br := blobReaderPool.Get().(*blobReader)
	br.src.Reset(comp)
	if err := br.fr.(flate.Resetter).Reset(&br.src, nil); err != nil {
		return err // pool entry dropped: reader state is suspect
	}
	_, err := io.ReadFull(br.fr, raw)
	if err == nil {
		var n int
		if n, err = br.fr.Read(br.tail[:]); n > 0 {
			err = errPastFrame
		} else if err == io.EOF {
			err = nil
		}
	}
	blobReaderPool.Put(br)
	return err
}

// streamBufPool recycles the 256 KiB copy buffers of the stream codecs
// (CompressStream/DecompressStream) and the whole-file checksum paths.
var streamBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 256<<10)
		return &b
	},
}

// GetStreamBuf borrows a 256 KiB scratch buffer; return it with
// PutStreamBuf. Exposed so callers hashing whole files (cachemgr's
// publication fast path) share the pool instead of allocating their own.
func GetStreamBuf() *[]byte  { return streamBufPool.Get().(*[]byte) }
func PutStreamBuf(b *[]byte) { streamBufPool.Put(b) }
