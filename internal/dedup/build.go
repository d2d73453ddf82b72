package dedup

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"os"
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
// Materializer is the mirror image for reads: decoders fill 1 MiB windows
// while the ordered writer puts the windows out and a hasher re-derives the
// whole-image checksum behind it — and, in a delta warm, while the chunks the
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
	compBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}
)

// chunkBufPools hold the buffers a fetched chunk is verified in — and, in a
// delta warm, kept in for the writer — by size class: class i is MinChunk<<i
// bytes, up to MaxChunk. A chunk takes the smallest class that fits it, so
// kept chunks cost about their own size, not MaxChunk each.
var chunkBufPools [6]sync.Pool // MinChunk<<5 == MaxChunk

func chunkClass(n int) int { return bits.Len(uint(max(n, 1)-1) / MinChunk) }

// getChunkBuf returns a pooled buffer of at least n (<= MaxChunk) bytes.
func getChunkBuf(n int) *[]byte {
	c := chunkClass(n)
	if b, ok := chunkBufPools[c].Get().(*[]byte); ok {
		return b
	}
	b := make([]byte, MinChunk<<c)
	return &b
}

// putChunkBuf recycles a buffer getChunkBuf returned.
func putChunkBuf(b *[]byte) { chunkBufPools[chunkClass(cap(*b))].Put(b) }

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

// windowTarget is the materializer's unit of work. The dispatcher closes a
// window at the first entry boundary at or past it, so a window holds
// windowTarget up to windowTarget+MaxChunk bytes (the last one less), and an
// image of n bytes is at most ceil(n / windowTarget) windows: one pwrite, one
// writeback hint and one hash update each.
const windowTarget = 1 << 20

// runMax caps the bytes one pread of pack-adjacent records may cover. A
// window's records span about its own size, so the cap only bounds a decoder's
// read buffer against a pathological manifest.
const runMax = 2 * windowTarget

var (
	winBufPool = sync.Pool{New: func() any {
		b := make([]byte, windowTarget+MaxChunk)
		return &b
	}}
	// readBufPool holds the compressed side of what a decoder reads from
	// the packs: a run of records, or one blob. Sized for a window's
	// records; grown when a run is longer.
	readBufPool = sync.Pool{New: func() any {
		b := make([]byte, 0, windowTarget+2*MaxChunk)
		return &b
	}}
)

// pendChunk is a chunk the store lacked at the start. ready closes once its
// blob has landed; the rest is guarded by Materializer.mu.
type pendChunk struct {
	ready   chan struct{}
	arrived bool
	raw     *[]byte // what Deliver verified, (*raw)[:n], until the writer takes it
	n       int
}

// A Place is where a resident file named Name holds a chunk raw.
type Place struct {
	Name string
	F    io.ReaderAt
	Off  int64
}

// CorruptResidentError reports a resident file not holding chunk Key.
type CorruptResidentError struct {
	Name string
	Key  Key
}

func (e *CorruptResidentError) Error() string {
	return fmt.Sprintf("dedup: resident %s: chunk %s: hash mismatch", e.Name, e.Key)
}

// slot is one manifest entry's place in a window. A decoder copies a resident
// chunk (at.F set) in or inflates a stored one from the record at loc; the
// writer fills a parked one (pc set) once the fetcher has delivered it.
type slot struct {
	e   Entry
	off int // in the window
	pc  *pendChunk
	at  Place
	loc blobLoc
}

// packed reports whether the slot's bytes come from a pack record.
func (sl *slot) packed() bool { return sl.pc == nil && sl.at.F == nil }

// window is a run of whole manifest entries, written as one: the decoder fills
// its stored slots and closes done, the writer its parked ones, and after the
// pwrite the hasher folds it into the whole-image checksum.
type window struct {
	buf   *[]byte // from winBufPool; the window is (*buf)[:n]
	off   int64   // in the image
	n     int
	slots []slot
	err   error
	done  chan struct{}
}

// A Materializer writes a manifest's image into w, if need be while some of
// its chunks are still being fetched. The manifest is cut into windows of
// about 1 MiB. Decoders copy each window's resident chunks into their slots
// and inflate its other stored ones there, one pread per run of slots back to
// back in one resident file or one pack; the fetcher passes each missing
// chunk to Deliver, which verifies and lands it and keeps the verified bytes;
// the in-order writer copies those into their slots and puts each window out
// with one write; a hasher goroutine derives the whole-image checksum behind
// it. A fetched chunk is checked against its hash on arrival; a local one
// not, because the image is checked against man.Checksum and a local chunk
// reaches a cache file no other way (a peer fetching it checks it on
// arrival). When that check fails, the local chunks are re-checked one by
// one: a bad resident one fails the pipeline with a CorruptResidentError,
// and every blob that fails is taken out of the index.
type Materializer struct {
	w        io.WriterAt
	man      *Manifest
	src      *BlobStore
	pend     map[Key]*pendChunk // fixed at start
	resident map[Key]Place

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
// resident places chunks raw in files kept open until Wait returns.
func StartMaterialize(w io.WriterAt, man *Manifest, src *BlobStore, workers int, pending []Key, budget int64, resident map[Key]Place) *Materializer {
	p := &Materializer{w: w, man: man, src: src, budget: budget, pend: make(map[Key]*pendChunk, len(pending)),
		resident: resident, quit: make(chan struct{}), finished: make(chan struct{})}
	for _, k := range pending {
		p.pend[k] = &pendChunk{ready: make(chan struct{})}
	}
	go p.run(max(workers, 1))
	return p
}

// Materialize writes man's content into w from src's blobs: the pipeline
// with nothing pending.
func Materialize(w io.WriterAt, man *Manifest, src *BlobStore, workers int) error {
	_, err := StartMaterialize(w, man, src, workers, nil, 0, nil).Wait()
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

// Deliver lands a fetched chunk through putVerified — inflated and
// hash-verified before the blob reaches the store, stage hold taken — and
// keeps the verified bytes for the writer, so the chunk is inflated and
// hashed once. Over budget the buffer is recycled and the chunk is inflated
// from the store when its turn comes, like a stored one.
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
		if raw != nil && p.budget >= int64(cap(*raw)) {
			p.budget -= int64(cap(*raw))
			pc.raw, pc.n, raw = raw, n, nil
		}
		close(pc.ready)
	}
	p.mu.Unlock()
	if raw != nil {
		putChunkBuf(raw)
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
	// is free, order restores manifest order at the writer. The dispatcher
	// cannot pass order, so at most five windows are out: the one it holds,
	// one queued, the writer's and two at the hasher — two ahead of the
	// writer, which keeps two decoders busy while it waits.
	work := make(chan *window, workers)
	order := make(chan *window, 1)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rb := readBufPool.Get().(*[]byte)
			defer readBufPool.Put(rb)
			for w := range work {
				if p.Stopped() {
					w.err = errPipelineCanceled
				} else {
					w.err = p.decodeWindow(w, rb)
				}
				close(w.done)
			}
		}()
	}
	go p.dispatch(work, order)

	// The hasher folds written windows into the whole-image checksum, in
	// order, and gives their buffers back.
	hashq := make(chan *window, 1)
	summed := make(chan Key, 1)
	go func() {
		whole := sha256.New()
		for w := range hashq {
			if !p.Stopped() {
				whole.Write((*w.buf)[:w.n]) //nolint:errcheck // hash writes cannot fail
			}
			winBufPool.Put(w.buf)
		}
		summed <- Key(whole.Sum(nil))
	}()

	// The writer. After a failure it keeps draining, so every pooled buffer
	// comes home and the dispatcher and decoders shut down.
	hint, _ := p.w.(interface{ StartWriteback(off, n int64) })
	suspect := false // a stored chunk may be bad: re-check them at the end
	for w := range order {
		<-w.done
		err := w.err
		if err == nil && !p.Stopped() {
			err = p.fillParked(w)
		}
		if err == nil && !p.Stopped() {
			err = backend.WriteFull(p.w, (*w.buf)[:w.n], w.off)
			if err == nil && hint != nil {
				hint.StartWriteback(w.off, int64(w.n)) // the closing fsync finds the window on its way
			}
		}
		if err != nil && err != errPipelineCanceled {
			suspect = suspect || errors.Is(err, ErrCorruptBlob)
			p.Abort(err)
		}
		hashq <- w
	}
	close(hashq)
	wg.Wait()
	if sum := <-summed; !p.Stopped() && sum != p.man.Checksum {
		suspect = true
		p.Abort(fmt.Errorf("dedup: materialized image fails manifest checksum"))
	}
	p.mu.Lock()
	p.budget = 0 // a chunk delivered from here on is landed, not kept
	for _, pc := range p.pend {
		if pc.raw != nil {
			putChunkBuf(pc.raw)
			pc.raw = nil
		}
	}
	p.mu.Unlock()
	if suspect {
		p.quarantine()
	}
}

// dispatch cuts the manifest into windows at entry boundaries and queues each
// for a decoder and for the writer.
func (p *Materializer) dispatch(work, order chan<- *window) {
	defer close(work)
	defer close(order)
	var w *window
	var off int64
	send := func() {
		work <- w
		order <- w
		off += int64(w.n)
		w = nil
	}
	for _, e := range p.man.Entries {
		if p.Stopped() {
			break
		}
		if e.Len > MaxChunk {
			p.Abort(fmt.Errorf("dedup: blob %v: manifest entry of %d bytes", e.Hash, e.Len))
			break
		}
		if w == nil {
			w = &window{buf: winBufPool.Get().(*[]byte), off: off, done: make(chan struct{}),
				slots: make([]slot, 0, 2*windowTarget/AvgChunk)}
		}
		sl := slot{e: e, off: w.n, pc: p.parked(e.Hash)}
		if sl.pc == nil {
			sl.at = p.resident[e.Hash] // the zero Place when none holds it
		}
		w.slots = append(w.slots, sl)
		w.n += int(e.Len)
		if w.n >= windowTarget {
			send()
		}
	}
	if w != nil && p.Stopped() {
		winBufPool.Put(w.buf)
	} else if w != nil {
		send()
	}
}

// decodeWindow copies w's resident chunks into their slots and inflates its
// packed ones. Their records are looked up under one store lock, and each run
// of them that sits back to back in one pack is read with one pread. A pack
// retired between the lookup and the read — its records copied forward, or
// dead — reads as os.ErrClosed: the rest of the window is looked up again.
func (p *Materializer) decodeWindow(w *window, rb *[]byte) error {
	if err := p.copyResident(w); err != nil {
		return err
	}
	from := 0
relocate:
	for {
		if err := p.locate(w, from); err != nil {
			return err
		}
		for i := from; i < len(w.slots); {
			if !w.slots[i].packed() {
				i++
				continue
			}
			first := w.slots[i].loc
			// Extend the run over the packed slots whose records follow on.
			end, next := first.off+first.recLen(), i+1
			for j := i + 1; j < len(w.slots); j++ {
				if !w.slots[j].packed() {
					continue
				}
				l := w.slots[j].loc
				if l.p != first.p || l.off != end || end+l.recLen()-first.off > runMax {
					break
				}
				end, next = end+l.recLen(), j+1
			}
			n := int(end - first.off)
			if cap(*rb) < n {
				*rb = make([]byte, n)
			}
			run := (*rb)[:n]
			p.src.reads.Add(1)
			if _, err := first.p.f.ReadAt(run, first.off); errors.Is(err, os.ErrClosed) {
				from = i
				continue relocate
			} else if err != nil {
				return fmt.Errorf("%w: %s: reading %s: %v", ErrCorruptBlob, w.slots[i].e.Hash, packName(first.p.seq), err)
			}
			for j := i; j < next; j++ {
				sl := &w.slots[j]
				if !sl.packed() {
					continue
				}
				at := sl.loc.off + recHdrLen - first.off
				if err := p.inflateSlot(w, sl, run[at:at+int64(sl.loc.wireLen)]); err != nil {
					return err
				}
			}
			i = next
		}
		return nil
	}
}

// copyResident reads w's resident slots in, one pread per run of them that
// lie back to back in one file.
func (p *Materializer) copyResident(w *window) error {
	for i, next := 0, 0; i < len(w.slots); i = next {
		at, n := w.slots[i].at, int(w.slots[i].e.Len)
		for next = i + 1; at.F != nil && next < len(w.slots); next++ {
			if nx := w.slots[next].at; nx.F == nil || nx.Name != at.Name || nx.Off != at.Off+int64(n) {
				break
			}
			n += int(w.slots[next].e.Len)
		}
		if at.F == nil {
			continue
		}
		if got, err := at.F.ReadAt((*w.buf)[w.slots[i].off:w.slots[i].off+n], at.Off); got < n {
			return fmt.Errorf("dedup: resident %s: chunk %s: %v", at.Name, w.slots[i].e.Hash, err)
		}
		p.src.residentBytes.Add(int64(n))
	}
	return nil
}

// locate looks up the records of w's packed slots from index from on, under
// one store lock, or none if there are none.
func (p *Materializer) locate(w *window, from int) error {
	for from < len(w.slots) && !w.slots[from].packed() {
		from++
	}
	if from == len(w.slots) {
		return nil
	}
	s := p.src
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	for i := from; i < len(w.slots); i++ {
		sl := &w.slots[i]
		if !sl.packed() {
			continue
		}
		loc, ok := s.blobs[sl.e.Hash]
		if !ok {
			return fmt.Errorf("%w: %s", ErrNoBlob, sl.e.Hash)
		}
		sl.loc = loc
	}
	return nil
}

// inflateSlot inflates wire blob comp into sl's bytes of w after checking that
// its frame names exactly the entry's length. It does not hash: the
// whole-image checksum covers the slot.
func (p *Materializer) inflateSlot(w *window, sl *slot, comp []byte) error {
	rawLen, err := blobRawLen(sl.e.Hash, comp)
	if err != nil {
		return err
	}
	if rawLen != int64(sl.e.Len) {
		return fmt.Errorf("dedup: blob %v: %d bytes, manifest says %d", sl.e.Hash, rawLen, sl.e.Len)
	}
	p.src.decodes.Add(1)
	if err := inflateInto((*w.buf)[sl.off:sl.off+int(sl.e.Len)], comp[blobHdrLen:]); err != nil {
		return fmt.Errorf("%w: %s: %v", ErrCorruptBlob, sl.e.Hash, err)
	}
	return nil
}

// fillParked puts each parked chunk of w into its slot, waiting — timed as
// stall — for the fetcher: the verified bytes Deliver kept, or, over budget or
// when an earlier offset took them, the landed blob inflated from the store.
func (p *Materializer) fillParked(w *window) error {
	for i := range w.slots {
		sl := &w.slots[i]
		pc := sl.pc
		if pc == nil {
			continue
		}
		select {
		case <-pc.ready:
		default:
			t0 := time.Now()
			select {
			case <-pc.ready:
			case <-p.quit:
				return errPipelineCanceled
			}
			p.stall += time.Since(t0)
		}
		p.mu.Lock()
		raw := pc.raw
		pc.raw = nil
		if raw != nil {
			p.budget += int64(cap(*raw))
		}
		p.mu.Unlock()
		if raw == nil {
			if err := p.inflateStored(w, sl); err != nil {
				return err
			}
			continue
		}
		if pc.n != int(sl.e.Len) {
			putChunkBuf(raw)
			return fmt.Errorf("dedup: blob %v: %d bytes, manifest says %d", sl.e.Hash, pc.n, sl.e.Len)
		}
		copy((*w.buf)[sl.off:sl.off+pc.n], *raw)
		putChunkBuf(raw)
	}
	return nil
}

// inflateStored reads sl's landed blob and inflates it into its slot.
func (p *Materializer) inflateStored(w *window, sl *slot) error {
	rb := readBufPool.Get().(*[]byte)
	defer readBufPool.Put(rb)
	comp, err := p.src.readWire(sl.e.Hash, *rb)
	if err != nil {
		return err
	}
	*rb = comp[:0] // keep a buffer readWire had to grow
	return p.inflateSlot(w, sl, comp)
}

// quarantine runs after the image failed its checksum or a stored chunk
// failed to inflate: it re-checks every resident chunk and every chunk of the
// manifest the store holds and names what is bad in the pipeline's error.
func (p *Materializer) quarantine() {
	var err error
	for _, e := range p.man.Entries {
		if at := p.resident[e.Hash]; at.F != nil && err == nil {
			raw := make([]byte, e.Len)
			if n, _ := at.F.ReadAt(raw, at.Off); n < len(raw) || sha256.Sum256(raw) != [sha256.Size]byte(e.Hash) {
				err = &CorruptResidentError{Name: at.Name, Key: e.Hash}
			}
		}
	}
	if bad, checked := p.src.quarantine(p.man); len(bad) > 0 {
		err = errors.Join(err, fmt.Errorf("%w: %s (%d of the manifest's %d blobs): hash mismatch; taken out of the index", ErrCorruptBlob, bad[0], len(bad), checked))
	}
	if err != nil {
		p.mu.Lock()
		defer p.mu.Unlock()
		p.err = err
	}
}
