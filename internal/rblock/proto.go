// Package rblock implements a small read-only remote block-file protocol over
// TCP: the repository's stand-in for the NFS export between the storage node
// and the compute nodes (§5). A server exports a backend.Store of immutable
// files (base images, published caches); clients open them by name and get a
// backend.File whose reads travel over the network as vectored OpReadV
// requests of up to 1 MiB. Every cache and copy-on-write image lives on its
// compute node, so nothing writes through rblock. The paper tuned its NFS
// rwsize to 64 KiB ("the default rwsize of 1MB does not match well with the
// small-sized read requests during boot time"); here a small read is a small
// request whatever the cap, so there is no rwsize.
package rblock

import (
	"encoding/binary"
	"errors"
	"io"
	"math"
	"sync"

	"vmicache/internal/zerocopy"
)

// Protocol constants.
const (
	// Magic starts every frame ("RBLK").
	Magic = 0x52424c4b

	// sendfileMin is the smallest OpReadV request the server answers with
	// sendfile rather than through a pooled buffer (the paper's tuned NFS
	// rwsize), and the size of the pooled payload buffers on both ends.
	sendfileMin = 64 << 10

	// MaxNameLen bounds export names.
	MaxNameLen = 4096

	// maxPayload bounds any single frame's payload (sanity limit).
	maxPayload = 8 << 20
)

// Op identifies a request/response type.
type Op uint8

// Protocol operations; responses reuse the request op with the reply flag.
// Codes 2–6 and 10 belonged to the retired single-range read, write, sync,
// truncate, stat and single-chunk fetch; a server answers them, like any
// unknown op, StatusBadRequest.
const (
	// OpOpen opens an export by name, read-only: the request payload is the
	// name, the request must set the read-only flag (bit 0 of flags), and
	// the reply carries the handle and, in aux, the file's size. A name
	// that is empty, absolute or escapes the export through ".." answers
	// StatusBadRequest; an open without the read-only flag StatusReadOnly.
	OpOpen  Op = 1
	OpClose Op = 7

	// OpMap queries the chunk-validity map of an export by name (no open
	// handle needed): the request payload is the export name, the reply
	// payload an opaque encoded map (internal/swarm wire format). Servers
	// without a map source answer StatusBadRequest; exports that are not
	// currently advertised answer StatusNotFound.
	OpMap Op = 8

	// OpManifest queries the chunk manifest of a published export by name
	// (no open handle needed): the request payload is the export name, the
	// reply payload an opaque encoded manifest (internal/dedup wire
	// format). Servers without a chunk source answer StatusBadRequest;
	// unknown names answer StatusNotFound.
	OpManifest Op = 9

	// OpChunkBatch fetches a run of content-addressed chunks in one round
	// trip: the request payload is N concatenated 32-byte SHA-256 hashes,
	// the reply payload N' records of [u32 compLen][compressed
	// length-framed blob] with the record count echoed in aux. The server
	// serves the longest prefix it holds that fits in one frame: a missing
	// hash after at least one served record ends the reply early (the
	// client re-requests the tail), a missing first hash answers
	// StatusNotFound. Servers without a chunk source answer
	// StatusBadRequest.
	OpChunkBatch Op = 11

	// OpReadV is the one read op: it reads one or many ranges of an open
	// handle in one round trip. The request payload is N records of
	// [u64 off][u32 len], the reply payload the ranges' bytes back to back,
	// at most maxReadV in all. A range that ends past the file's end ends
	// the reply there, short. A payload checkReadV refuses answers
	// StatusBadRequest.
	OpReadV Op = 12

	// replyFlag marks response frames.
	replyFlag = 0x80
)

// flagReadOnly is the OpOpen flag every open must carry.
const flagReadOnly = 1

// OpReadV bounds. maxReadV caps one reply's bytes, and so the buffer the
// server fills per request (1 MiB measured better than 256 KiB for a cold
// warm's plan windows); readVRecLen is one [u64 off][u32 len] record; and
// maxReadVRecords caps the records a client packs into one request, keeping
// a batch of tiny ranges below maxPayload.
const (
	maxReadV        = 1 << 20
	readVRecLen     = 12
	maxReadVRecords = 1 << 16
)

// checkReadV validates an OpReadV payload before anything is allocated for
// it and returns its record count and reply size. It refuses a length that
// is not a whole number of records, an empty list, a zero-length range, an
// offset (or range end) past math.MaxInt64, and a total over maxReadV —
// summed in 64 bits, so u32 lengths cannot wrap it.
func checkReadV(p []byte) (n, total int, ok bool) {
	if len(p) == 0 || len(p)%readVRecLen != 0 {
		return 0, 0, false
	}
	n = len(p) / readVRecLen
	var sum uint64
	for i := 0; i < n; i++ {
		off, l := readVRec(p, i)
		if l == 0 || off > math.MaxInt64-uint64(l) {
			return 0, 0, false
		}
		if sum += uint64(l); sum > maxReadV {
			return 0, 0, false
		}
	}
	return n, int(sum), true
}

// readVRec decodes record i of an OpReadV payload.
func readVRec(p []byte, i int) (off uint64, n uint32) {
	r := p[i*readVRecLen:]
	return binary.BigEndian.Uint64(r), binary.BigEndian.Uint32(r[8:])
}

// MaxBatchChunks bounds the hashes one OpChunkBatch request may carry.
const MaxBatchChunks = 256

// HashLen is the content-hash size OpChunkBatch requests carry (SHA-256).
const HashLen = 32

// Status codes.
const (
	StatusOK uint32 = iota
	StatusNotFound
	StatusIO
	StatusBadRequest
	StatusReadOnly

	// StatusUnavail marks a request the server refuses *right now* but
	// that may succeed later or elsewhere — a swarm chunk read over a
	// span the serving cache has not warmed yet. Clients treat it as a
	// per-request failure (reassign to another peer), never as a broken
	// connection.
	StatusUnavail
)

// Errors surfaced by the client.
var (
	ErrBadFrame   = errors.New("rblock: malformed frame")
	ErrNotFound   = errors.New("rblock: no such file")
	ErrRemoteIO   = errors.New("rblock: remote I/O error")
	ErrBadRequest = errors.New("rblock: bad request")
	ErrReadOnly   = errors.New("rblock: file is read-only")
	ErrUnavail    = errors.New("rblock: requested range not available yet")
	ErrClosed     = errors.New("rblock: connection closed")

	// ErrClientBroken marks a client whose connection desynchronised (a
	// mid-response read error, a timeout, or a protocol violation). Every
	// call after the break fails fast with this error instead of reading
	// from a stream whose framing can no longer be trusted.
	ErrClientBroken = errors.New("rblock: client broken")
)

func statusErr(s uint32) error {
	switch s {
	case StatusOK:
		return nil
	case StatusNotFound:
		return ErrNotFound
	case StatusBadRequest:
		return ErrBadRequest
	case StatusReadOnly:
		return ErrReadOnly
	case StatusUnavail:
		return ErrUnavail
	default:
		return ErrRemoteIO
	}
}

// frame is the wire unit. Layout (big-endian):
//
//	magic  u32
//	op     u8
//	flags  u8  (bit0: read-only open)
//	status u16 (responses; low 16 bits of status code)
//	id     u32 (request id; responses echo it, enabling pipelining)
//	handle u32
//	offset u64
//	length u32 (payload length)
//	aux    u64 (open: the file's size; OpChunkBatch: the record count)
//	payload [length]bytes
const frameHeaderLen = 4 + 1 + 1 + 2 + 4 + 4 + 8 + 4 + 8

type frame struct {
	op      Op
	flags   uint8
	status  uint32
	id      uint32
	handle  uint32
	offset  uint64
	aux     uint64
	payload []byte

	// vec carries extra payload segments appended after payload on the
	// wire without copying them into one slice (reply-side scatter/gather:
	// OpChunkBatch sends its length-prefix slab in payload and the blob
	// bodies here). Only outgoing frames use it; readFrame always yields a
	// contiguous payload.
	vec [][]byte

	// scattered is the payload length the client's read loop landed in an
	// OpReadV waiter's scatter list instead of payload (receive side only).
	scattered int

	// pooled, when non-nil, is the pool-owned backing array of payload, and
	// ppool is the payloadPool that owns it; putFrame returns the buffer
	// there once the payload has been consumed (copied onto the wire or into
	// the caller's buffer). Never sent on the wire.
	pooled *[]byte
	ppool  *payloadPool

	// exts, when non-empty, is a zero-copy payload: file extents that travel
	// on the wire after payload and vec, pushed by sendfile(2) instead of a
	// user-space copy (reply-side only; the receiver sees one contiguous
	// payload either way). done, when non-nil, runs in putFrame once the
	// frame has left the wire (or been abandoned on error) — it releases the
	// handle reference that pins the extents' file open, so a concurrent
	// OpClose or eviction can never close the descriptor while the reply is
	// still queued.
	exts []zerocopy.FileExtent
	done func()
}

// payloadPool recycles payload buffers of a fixed nominal size. Buffers are
// handed out and returned by pointer so recycling does not allocate a box per
// Put. Requests larger than the nominal size (rare control frames) fall back
// to plain allocation and are dropped on put, so the pool never accumulates
// oversized buffers.
type payloadPool struct {
	pool sync.Pool
	size int
}

func newPayloadPool(size int) *payloadPool {
	p := &payloadPool{size: size}
	p.pool.New = func() any {
		b := make([]byte, size)
		return &b
	}
	return p
}

// get returns a buffer with capacity for at least n bytes, len == cap.
func (p *payloadPool) get(n int) *[]byte {
	if n > p.size {
		b := make([]byte, n)
		return &b
	}
	return p.pool.Get().(*[]byte)
}

func (p *payloadPool) put(bp *[]byte) {
	if cap(*bp) == p.size {
		*bp = (*bp)[:p.size]
		p.pool.Put(bp)
	}
}

// framePool recycles frame structs across requests on both sides of the
// protocol; a pipelined stream allocates no frames in steady state.
var framePool = sync.Pool{New: func() any { return new(frame) }}

// maxPooledExts caps the extent list a recycled frame keeps: a reply merges
// its ranges' extents, so most hold a few, and a pooled frame never pins a
// list sized by one request with thousands of scattered ranges.
const maxPooledExts = 64

func getFrame() *frame { return framePool.Get().(*frame) }

// putFrame recycles f and, when its payload is pool-owned, the payload
// buffer too. The caller must be done with f.payload. A zero-copy frame's
// done hook runs here — putFrame is the single point every frame passes
// through, success or error path, so the pinned handle always unpins.
func putFrame(f *frame) {
	if f.done != nil {
		f.done()
	}
	if f.pooled != nil && f.ppool != nil {
		f.ppool.put(f.pooled)
	}
	// Keep a small extent list's backing array for the next reply, cleared
	// so the pool pins no descriptor.
	exts := f.exts
	if cap(exts) > maxPooledExts {
		exts = nil
	}
	clear(exts)
	*f = frame{exts: exts[:0]}
	framePool.Put(f)
}

// encodeFrameHeader serialises f's fixed header into dst, which must be at
// least frameHeaderLen bytes.
func encodeFrameHeader(dst []byte, f *frame) {
	be := binary.BigEndian
	be.PutUint32(dst[0:], Magic)
	dst[4] = byte(f.op)
	dst[5] = f.flags
	be.PutUint16(dst[6:], uint16(f.status))
	be.PutUint32(dst[8:], f.id)
	be.PutUint32(dst[12:], f.handle)
	be.PutUint64(dst[16:], f.offset)
	be.PutUint32(dst[24:], uint32(f.payloadLen()))
	be.PutUint64(dst[28:], f.aux)
}

// payloadLen is the total wire payload: payload, every vec segment, and the
// zero-copy file extents.
func (f *frame) payloadLen() int {
	n := len(f.payload)
	for _, v := range f.vec {
		n += len(v)
	}
	for _, e := range f.exts {
		n += int(e.Len)
	}
	return n
}

// readFrame deserialises one frame from r. The frame comes from framePool;
// when pp is non-nil the payload buffer comes from pp. hdr is caller-owned
// scratch of at least frameHeaderLen bytes (a stack array would escape
// through the io.Reader interface and cost one allocation per frame). The
// caller owns the result and recycles it with putFrame.
func readFrame(r io.Reader, pp *payloadPool, hdr []byte) (*frame, error) {
	hdr = hdr[:frameHeaderLen]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, err
	}
	be := binary.BigEndian
	if be.Uint32(hdr[0:]) != Magic {
		return nil, ErrBadFrame
	}
	f := getFrame()
	f.op = Op(hdr[4])
	f.flags = hdr[5]
	f.status = uint32(be.Uint16(hdr[6:]))
	f.id = be.Uint32(hdr[8:])
	f.handle = be.Uint32(hdr[12:])
	f.offset = be.Uint64(hdr[16:])
	f.aux = be.Uint64(hdr[28:])
	n := be.Uint32(hdr[24:])
	if n > maxPayload {
		putFrame(f)
		return nil, ErrBadFrame
	}
	if n > 0 {
		if pp != nil {
			f.pooled = pp.get(int(n))
			f.ppool = pp
			f.payload = (*f.pooled)[:n]
		} else {
			f.payload = make([]byte, n)
		}
		if _, err := io.ReadFull(r, f.payload); err != nil {
			putFrame(f)
			return nil, err
		}
	}
	return f, nil
}
