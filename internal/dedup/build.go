package dedup

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"vmicache/internal/backend"
)

// The parallel dedup pipeline. Chunk cutting is inherently serial — each
// boundary depends on the rolling hash of the bytes before it — but
// everything downstream of a boundary is per-chunk work: SHA-256, DEFLATE,
// blob landing. BuildParallel therefore runs three stages:
//
//	cutter     one goroutine: reads the image through a sliding window,
//	           cuts content-defined boundaries, copies each chunk into a
//	           pooled buffer and queues it.
//	workers    opts.Workers goroutines: SHA-256 each chunk, and (with
//	           opts.Compress) produce its length-framed DEFLATE wire blob.
//	committer  the calling goroutine: consumes chunks in submission order,
//	           folds them into the whole-image checksum, and calls emit.
//
// The committer preserves the serial contract exactly: emit runs on the
// caller's goroutine, once per chunk, in manifest order, and the manifest
// (entries, length, whole-image SHA-256) is byte-identical to a serial
// Build at every worker count. Throughput is bounded by the slowest serial
// stage — the cutter's gear hash or the committer's whole-image SHA —
// with per-chunk hashing and compression spread across the pool.
//
// Materializer is the mirror image for reads: workers decode and verify
// blobs concurrently while the ordered writer puts them out and re-derives
// the whole-image checksum — and, in a delta warm, while the chunks the
// store lacks are still arriving.

// BuildOpts tunes BuildParallel.
type BuildOpts struct {
	// Workers is the hash/compress parallelism. Values <= 1 run the
	// single-threaded path (no goroutines, no handoff overhead).
	Workers int

	// Compress makes the workers also produce each chunk's wire blob
	// (8-byte raw length + DEFLATE) and passes it to emit, so a store
	// landing the chunk skips its own compression pass.
	Compress bool
}

// errPipelineCanceled marks jobs abandoned after the pipeline already
// failed; it is never returned to callers (the first real error wins).
var errPipelineCanceled = errors.New("dedup: pipeline canceled")

// batchTarget is how many chunk bytes the cutter packs into one pipeline
// job. Cutting produces a chunk every ~AvgChunk bytes; handing each to a
// worker individually would cost a channel round trip per ~16 KiB of work,
// so jobs batch chunks until they hold ~batchTarget bytes and the handoff
// amortises over dozens of hashes.
const batchTarget = 256 << 10

// buildJob is one batch of chunks moving through the build pipeline.
type buildJob struct {
	buf   *[]byte         // pooled batch buffer; chunks packed back-to-back
	lens  []int           // chunk lengths, in image order
	es    []Entry         // filled by the worker
	comps []*bytes.Buffer // pooled wire-blob buffers (Compress only)
	err   error
	done  chan struct{}
}

var (
	windowPool = sync.Pool{New: func() any {
		// 2×MaxChunk so a boundary decision never runs out of lookahead
		// except at true EOF.
		b := make([]byte, 2*MaxChunk)
		return &b
	}}
	batchBufPool = sync.Pool{New: func() any {
		// One more MaxChunk of slack: the cutter packs until the target is
		// crossed, so the final chunk of a batch may overhang.
		b := make([]byte, batchTarget+MaxChunk)
		return &b
	}}
	chunkBufPool = sync.Pool{New: func() any {
		b := make([]byte, MaxChunk)
		return &b
	}}
	compBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}
	// wireBufPool holds the compressed side of a chunk being decoded.
	wireBufPool = sync.Pool{New: func() any {
		b := make([]byte, MaxChunk)
		return &b
	}}
)

// chunker pulls content-defined chunks out of r through a pooled sliding
// window. Returned slices alias the window and are valid until the next
// call.
type chunker struct {
	r      io.ReaderAt
	length int64
	buf    []byte
	pos    int
	filled int
	off    int64
}

// next returns the next chunk, or nil at end of image.
func (c *chunker) next() ([]byte, error) {
	if c.filled-c.pos < MaxChunk && c.off < c.length {
		// Compact and top up so the cut sees full MaxChunk lookahead
		// whenever more bytes exist.
		copy(c.buf, c.buf[c.pos:c.filled])
		c.filled -= c.pos
		c.pos = 0
		for c.filled < len(c.buf) && c.off < c.length {
			n := len(c.buf) - c.filled
			if rem := c.length - c.off; rem < int64(n) {
				n = int(rem)
			}
			if _, err := c.r.ReadAt(c.buf[c.filled:c.filled+n], c.off); err != nil && err != io.EOF {
				return nil, err
			}
			c.filled += n
			c.off += int64(n)
		}
	}
	if c.pos >= c.filled {
		return nil, nil
	}
	lookahead := c.filled - c.pos
	if lookahead > MaxChunk {
		lookahead = MaxChunk
	}
	n := cutPoint(c.buf[c.pos : c.pos+lookahead])
	chunk := c.buf[c.pos : c.pos+n]
	c.pos += n
	return chunk, nil
}

// encodeWireBlob renders raw as the length-framed compressed blob format
// (the blob disk/wire layout) into buf, which is reset first.
func encodeWireBlob(buf *bytes.Buffer, raw []byte) error {
	buf.Reset()
	var hdr [blobHdrLen]byte
	binary.BigEndian.PutUint64(hdr[:], uint64(len(raw)))
	buf.Write(hdr[:]) //nolint:errcheck // bytes.Buffer writes cannot fail
	return deflateTo(buf, raw)
}

// BuildParallel chunks length bytes of r content-defined, spreading
// per-chunk hashing (and, with opts.Compress, compression) across
// opts.Workers goroutines. emit is called once per chunk on the calling
// goroutine, in manifest order; raw (and comp, when opts.Compress) are
// valid only during the call. The returned manifest — entries, length, and
// whole-image checksum — is byte-identical to a serial Build.
func BuildParallel(r io.ReaderAt, length int64, opts BuildOpts, emit func(e Entry, raw, comp []byte) error) (*Manifest, error) {
	if opts.Workers <= 1 {
		return buildSerial(r, length, opts.Compress, emit)
	}

	// Two bounded queues carry each job: work feeds whichever worker is
	// free, order restores submission order at the committer. Their
	// capacities bound pipeline memory to O(Workers) batch buffers.
	work := make(chan *buildJob, opts.Workers)
	order := make(chan *buildJob, opts.Workers*2)
	var stop atomic.Bool

	var wg sync.WaitGroup
	for i := 0; i < opts.Workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for job := range work {
				if stop.Load() {
					job.err = errPipelineCanceled
				} else {
					buf := *job.buf
					job.es = make([]Entry, len(job.lens))
					off := 0
					for i, n := range job.lens {
						raw := buf[off : off+n]
						job.es[i] = Entry{Hash: Key(sha256.Sum256(raw)), Len: uint32(n)}
						if opts.Compress {
							cb := compBufPool.Get().(*bytes.Buffer)
							if err := encodeWireBlob(cb, raw); err != nil {
								compBufPool.Put(cb)
								job.err = err
								break
							}
							job.comps = append(job.comps, cb)
						}
						off += n
					}
				}
				close(job.done)
			}
		}()
	}

	// Cutter: serial boundary detection packing chunks into batch jobs and
	// feeding both queues. Its error (a read failure) is published before
	// the channels close, so the committer observes it after draining.
	var cutErr error
	go func() {
		defer close(work)
		defer close(order)
		wb := windowPool.Get().(*[]byte)
		defer windowPool.Put(wb)
		c := &chunker{r: r, length: length, buf: *wb}
		var job *buildJob
		used := 0
		flush := func() {
			if job == nil {
				return
			}
			work <- job
			order <- job
			job, used = nil, 0
		}
		defer func() {
			if job != nil { // canceled or failed mid-batch
				batchBufPool.Put(job.buf)
			}
		}()
		for !stop.Load() {
			chunk, err := c.next()
			if err != nil {
				cutErr = err
				return
			}
			if chunk == nil {
				flush()
				return
			}
			if job == nil {
				job = &buildJob{buf: batchBufPool.Get().(*[]byte), done: make(chan struct{})}
			}
			used += copy((*job.buf)[used:], chunk)
			job.lens = append(job.lens, len(chunk))
			if used >= batchTarget {
				flush()
			}
		}
	}()

	// Committer: the calling goroutine restores manifest order, folds the
	// whole-image checksum, and runs emit. After the first failure it
	// keeps draining so every pooled buffer comes home and the cutter and
	// workers shut down.
	m := &Manifest{Length: length}
	whole := sha256.New()
	var firstErr error
	for job := range order {
		<-job.done
		if firstErr == nil && job.err != nil {
			firstErr = job.err
			stop.Store(true)
		}
		if firstErr == nil {
			buf := *job.buf
			off := 0
			for i, n := range job.lens {
				raw := buf[off : off+n]
				whole.Write(raw) //nolint:errcheck // hash writes cannot fail
				if emit != nil {
					var comp []byte
					if i < len(job.comps) {
						comp = job.comps[i].Bytes()
					}
					if err := emit(job.es[i], raw, comp); err != nil {
						firstErr = err
						stop.Store(true)
						break
					}
				}
				m.Entries = append(m.Entries, job.es[i])
				off += n
			}
		}
		for _, cb := range job.comps {
			compBufPool.Put(cb)
		}
		batchBufPool.Put(job.buf)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if cutErr != nil {
		return nil, cutErr
	}
	m.Checksum = Key(whole.Sum(nil))
	return m, nil
}

// buildSerial is the single-threaded reference pipeline: one pass, pooled
// window, no goroutines.
func buildSerial(r io.ReaderAt, length int64, compress bool, emit func(e Entry, raw, comp []byte) error) (*Manifest, error) {
	m := &Manifest{Length: length}
	whole := sha256.New()
	wb := windowPool.Get().(*[]byte)
	defer windowPool.Put(wb)
	var compBuf *bytes.Buffer
	if compress {
		compBuf = compBufPool.Get().(*bytes.Buffer)
		defer compBufPool.Put(compBuf)
	}
	c := &chunker{r: r, length: length, buf: *wb}
	for {
		chunk, err := c.next()
		if err != nil {
			return nil, err
		}
		if chunk == nil {
			break
		}
		e := Entry{Hash: Key(sha256.Sum256(chunk)), Len: uint32(len(chunk))}
		whole.Write(chunk) //nolint:errcheck // hash writes cannot fail
		if emit != nil {
			var comp []byte
			if compress {
				if err := encodeWireBlob(compBuf, chunk); err != nil {
					return nil, err
				}
				comp = compBuf.Bytes()
			}
			if err := emit(e, chunk, comp); err != nil {
				return nil, err
			}
		}
		m.Entries = append(m.Entries, e)
	}
	m.Checksum = Key(whole.Sum(nil))
	return m, nil
}

// matJob is one manifest entry in the materialize pipeline: a chunk the store
// holds is decoded by a worker, which closes done; a chunk still on the wire
// waits on pc for the fetcher instead.
type matJob struct {
	e    Entry
	raw  *[]byte // pooled; the chunk is (*raw)[:e.Len]
	err  error
	done chan struct{}
	pc   *pendChunk
}

// pendChunk is a chunk the store lacked at the start. ready closes once its
// blob has landed; the rest is guarded by Materializer.mu.
type pendChunk struct {
	ready   chan struct{}
	arrived bool
	raw     *[]byte // what Deliver verified, (*raw)[:n], until the writer takes it
	n       int
}

// writeBufPool holds the 1 MiB windows the writer fills: a 9 MB image is nine
// container writes and nine hash updates.
var writeBufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 1<<20)
	return &b
}}

// A Materializer writes a manifest's image into w, if need be while some of
// its chunks are still being fetched. Workers inflate and hash-verify the
// chunks the store holds; the fetcher passes each missing one to Deliver,
// which verifies and lands it and keeps the verified bytes; one in-order
// writer coalesces both kinds into 1 MiB writes and derives the whole-image
// checksum. Every chunk is checked against its entry's hash and length, and
// the image against man.Checksum, once.
type Materializer struct {
	w    io.WriterAt
	man  *Manifest
	src  *BlobStore
	pend map[Key]*pendChunk // fixed at start

	stop     atomic.Bool
	quit     chan struct{} // closed with stop: wakes a writer stalled on a pendChunk
	finished chan struct{}
	stall    time.Duration // the writer's wait for arrivals; read after finished

	mu     sync.Mutex
	err    error // the first failure
	budget int64 // hand-off bytes Deliver may still keep
}

// StartMaterialize starts the pipeline with workers decoders. pending names
// the chunks src lacks: the caller Delivers each, or Aborts. budget bounds
// the verified bytes kept for the writer when the fetch runs ahead of it.
func StartMaterialize(w io.WriterAt, man *Manifest, src *BlobStore, workers int, pending []Key, budget int64) *Materializer {
	p := &Materializer{w: w, man: man, src: src, budget: budget, pend: make(map[Key]*pendChunk, len(pending)),
		quit: make(chan struct{}), finished: make(chan struct{})}
	for _, k := range pending {
		p.pend[k] = &pendChunk{ready: make(chan struct{})}
	}
	go p.run(max(workers, 1))
	return p
}

// Materialize writes man's content into w from src's blobs: the pipeline
// with nothing pending.
func Materialize(w io.WriterAt, man *Manifest, src *BlobStore, workers int) error {
	_, err := StartMaterialize(w, man, src, workers, nil, 0).Wait()
	return err
}

// Wait returns when the image is written and verified, or the pipeline has
// failed and its pooled buffers are home, with the time the writer stalled.
func (p *Materializer) Wait() (stall time.Duration, err error) {
	<-p.finished
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stall, p.err
}

// Abort fails the pipeline: from outside when the fetch died, from within on
// a bad chunk or write. Wait reports the first error.
func (p *Materializer) Abort(err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.err == nil {
		p.err = err
		p.stop.Store(true)
		close(p.quit)
	}
}

// Stopped reports whether the pipeline has failed; fetch workers poll it.
func (p *Materializer) Stopped() bool { return p.stop.Load() }

// Deliver lands a fetched chunk exactly like PutCompressed — inflated and
// hash-verified before the blob reaches the store, stage hold taken — and
// keeps the verified bytes for the writer, so the chunk is inflated and
// hashed once. Over budget the buffer is recycled and the chunk is decoded
// from the store when its turn comes: same bytes, same checks.
func (p *Materializer) Deliver(k Key, comp []byte) error {
	raw, n, err := p.src.putVerified(k, comp)
	if err != nil {
		return err
	}
	p.mu.Lock()
	pc := p.pend[k]
	if pc != nil && pc.arrived {
		pc = nil // a second copy: landed, nobody waits for it
	}
	if pc != nil {
		pc.arrived = true
		if raw != nil && p.budget >= MaxChunk {
			p.budget -= MaxChunk
			pc.raw, pc.n, raw = raw, n, nil
		}
		close(pc.ready)
	}
	p.mu.Unlock()
	if raw != nil {
		chunkBufPool.Put(raw)
	}
	return nil
}

// parked returns k's pendChunk while the writer may have to wait for it or
// take its bytes. Once the chunk has landed and its bytes are gone — over
// budget, or an earlier offset took them — it is a stored chunk like any other.
func (p *Materializer) parked(k Key) *pendChunk {
	pc := p.pend[k]
	p.mu.Lock()
	defer p.mu.Unlock()
	if pc != nil && pc.arrived && pc.raw == nil {
		return nil
	}
	return pc
}

func (p *Materializer) run(workers int) {
	defer close(p.finished)
	// Two bounded queues, as in BuildParallel: work feeds whichever decoder
	// is free, order restores manifest order at the writer. A parked entry
	// goes to order only: it waits on the fetcher, not on a decoder. order
	// is deep — over a window of average chunks, at most 8 MiB of pooled
	// buffers — so decoders keep going while the writer hashes and writes.
	work := make(chan *matJob, workers*2)
	order := make(chan *matJob, 64)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for job := range work {
				if p.Stopped() {
					job.err = errPipelineCanceled
				} else {
					job.raw, job.err = decodeChunk(p.src, job.e)
				}
				close(job.done)
			}
		}()
	}
	go func() {
		defer close(work)
		defer close(order)
		for _, e := range p.man.Entries {
			if p.Stopped() {
				return
			}
			job := &matJob{e: e, pc: p.parked(e.Hash)}
			if job.pc == nil {
				job.done = make(chan struct{})
				work <- job
			}
			order <- job
		}
	}()

	// The writer. After a failure it keeps draining, so every pooled buffer
	// comes home and the dispatcher and decoders shut down.
	whole := sha256.New()
	wb := writeBufPool.Get().(*[]byte)
	defer writeBufPool.Put(wb)
	buf, off := (*wb)[:0], int64(0)
	hint, _ := p.w.(interface{ StartWriteback(off, n int64) })
	flush := func() {
		if err := backend.WriteFull(p.w, buf, off); err != nil {
			p.Abort(err)
		}
		if hint != nil {
			hint.StartWriteback(off, int64(len(buf))) // the closing fsync finds the window on its way
		}
		whole.Write(buf) //nolint:errcheck // hash writes cannot fail
		off += int64(len(buf))
		buf = buf[:0]
	}
	for job := range order {
		raw, err := p.chunk(job)
		if err != nil {
			p.Abort(err)
		} else if !p.Stopped() {
			if len(buf)+len(raw) > cap(buf) {
				flush()
			}
			buf = append(buf, raw...)
		}
		if job.raw != nil {
			chunkBufPool.Put(job.raw)
		}
	}
	wg.Wait()
	if !p.Stopped() {
		flush()
	}
	if !p.Stopped() && Key(whole.Sum(nil)) != p.man.Checksum {
		p.Abort(fmt.Errorf("dedup: materialized image fails manifest checksum"))
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.budget = 0 // a chunk delivered from here on is landed, not kept
	for _, pc := range p.pend {
		if pc.raw != nil {
			chunkBufPool.Put(pc.raw)
			pc.raw = nil
		}
	}
}

// chunk returns job's verified bytes, waiting for its decoder or — timed as
// stall — for the fetcher.
func (p *Materializer) chunk(job *matJob) ([]byte, error) {
	if pc := job.pc; pc == nil {
		<-job.done
	} else {
		select {
		case <-pc.ready:
		default:
			t0 := time.Now()
			select {
			case <-pc.ready:
			case <-p.quit:
				return nil, errPipelineCanceled
			}
			p.stall += time.Since(t0)
		}
		p.mu.Lock()
		job.raw, pc.raw = pc.raw, nil
		if job.raw != nil {
			p.budget += MaxChunk
		}
		p.mu.Unlock()
		if job.raw == nil { // over budget, or an earlier offset took the bytes
			job.raw, job.err = decodeChunk(p.src, job.e)
		} else if pc.n != int(job.e.Len) {
			job.err = fmt.Errorf("dedup: blob %v: %d bytes, manifest says %d", job.e.Hash, pc.n, job.e.Len)
		}
	}
	if job.err != nil {
		return nil, job.err
	}
	return (*job.raw)[:job.e.Len], nil
}

// decodeChunk reads entry e's blob and inflates it into a pooled buffer,
// verifying the blob's framed length against the manifest and its content
// hash against the entry. The caller owns the returned buffer and recycles
// it into chunkBufPool.
func decodeChunk(src *BlobStore, e Entry) (*[]byte, error) {
	wb := wireBufPool.Get().(*[]byte)
	defer wireBufPool.Put(wb)
	src.decodes.Add(1)
	comp, err := src.readWire(e.Hash, *wb)
	if err != nil {
		return nil, err
	}
	*wb = comp[:cap(comp)] // keep a buffer readWire had to grow
	rawLen, err := blobRawLen(e.Hash, comp)
	if err != nil {
		return nil, err
	}
	if rawLen != int64(e.Len) || int64(e.Len) > MaxChunk {
		return nil, fmt.Errorf("dedup: blob %v: %d bytes, manifest says %d", e.Hash, rawLen, e.Len)
	}
	buf := chunkBufPool.Get().(*[]byte)
	if err := decodeInto((*buf)[:e.Len], e.Hash, comp); err != nil {
		chunkBufPool.Put(buf)
		return nil, err
	}
	return buf, nil
}
