package rblock

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vmicache/internal/backend"
	"vmicache/internal/metrics"
	"vmicache/internal/zerocopy"
)

// ServerStats is a point-in-time snapshot of a server's traffic counters —
// the "observed traffic at the storage node" of Fig. 9 for real deployments.
type ServerStats struct {
	BytesRead   int64 // payload bytes served to clients
	ReadOps     int64
	Opens       int64
	Conns       int64 // connections accepted over the server's lifetime
	ActiveConns int64 // connections currently open

	// Zero-copy serve effectiveness. Reads of at least 64 KiB are served by
	// sendfile when the handle's export has a file descriptor; every read of
	// a handle without one (a memory-backed or assembled export) is served by
	// copy and counted as a fallback. Smaller reads of a descriptor-backed
	// handle copy, uncounted.
	ZeroCopyBytes     int64 // payload bytes shipped by sendfile
	ZeroCopySegments  int64 // read replies shipped by sendfile
	ZeroCopyFallbacks int64 // reads of handles without a descriptor

	// PerImage breaks traffic down by export name — which images are hot,
	// and how many bytes each one shipped (cache transfers show up here as
	// one large read burst against the published cache name).
	PerImage map[string]ImageStats
}

// ImageStats counts traffic attributed to one export name.
type ImageStats struct {
	Opens     int64
	ReadOps   int64
	BytesRead int64
}

// String renders the snapshot for status output.
func (st ServerStats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "served %.1f MB over %d reads, %d opens, %d conns (%d active)",
		float64(st.BytesRead)/1e6, st.ReadOps, st.Opens, st.Conns, st.ActiveConns)
	if st.ZeroCopySegments > 0 || st.ZeroCopyFallbacks > 0 {
		fmt.Fprintf(&b, "\n  zero-copy: %.1f MB over %d replies, %d fallbacks",
			float64(st.ZeroCopyBytes)/1e6, st.ZeroCopySegments, st.ZeroCopyFallbacks)
	}
	names := make([]string, 0, len(st.PerImage))
	for n := range st.PerImage {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		is := st.PerImage[n]
		fmt.Fprintf(&b, "\n  %s: %d opens, %d reads, %.1f MB out", n, is.Opens, is.ReadOps, float64(is.BytesRead)/1e6)
	}
	return b.String()
}

// serverCounters is the live (atomic) form behind ServerStats snapshots.
type serverCounters struct {
	bytesRead   atomic.Int64
	readOps     atomic.Int64
	opens       atomic.Int64
	conns       atomic.Int64
	activeConns atomic.Int64
	activeReqs  atomic.Int64 // requests currently dispatched (drained by Shutdown)
	latency     metrics.AtomicHistogram

	// Zero-copy serve effectiveness: bytes/segments shipped by sendfile,
	// and reads of handles whose export has no descriptor, which the copy
	// path served.
	zcBytes     atomic.Int64
	zcSegments  atomic.Int64
	zcFallbacks atomic.Int64

	mu       sync.Mutex
	perImage map[string]*imageCounters
	// reg/regLabels, when set by RegisterMetrics, make image() register the
	// per-image counters of exports opened later — dynamic label sets appear
	// on the next scrape.
	reg       *metrics.Registry
	regLabels metrics.Labels
}

type imageCounters struct {
	opens     atomic.Int64
	readOps   atomic.Int64
	bytesRead atomic.Int64
}

func (c *serverCounters) image(name string) *imageCounters {
	c.mu.Lock()
	defer c.mu.Unlock()
	ic, ok := c.perImage[name]
	if !ok {
		ic = &imageCounters{}
		c.perImage[name] = ic
		if c.reg != nil {
			c.registerImage(name, ic)
		}
	}
	return ic
}

// registerImage exposes one export's counters; caller holds c.mu.
func (c *serverCounters) registerImage(name string, ic *imageCounters) {
	l := c.regLabels.With("image", name)
	c.reg.CounterFunc("vmicache_rblock_server_image_opens_total",
		"Opens of the export.", l, ic.opens.Load)
	c.reg.CounterFunc("vmicache_rblock_server_image_read_ops_total",
		"Read requests against the export.", l, ic.readOps.Load)
	c.reg.CounterFunc("vmicache_rblock_server_image_bytes_read_total",
		"Payload bytes served from the export.", l, ic.bytesRead.Load)
}

// MapSource supplies chunk-validity maps for OpMap requests. The encoding is
// opaque to rblock (internal/swarm defines the wire format); an error means
// the named export is not currently advertised and yields StatusNotFound.
type MapSource interface {
	EncodedMap(name string) ([]byte, error)
}

// ChunkSource supplies chunk manifests and content-addressed chunk blobs
// for OpManifest/OpChunkBatch requests (the dedup delta-transfer path). Both
// encodings are opaque to rblock (internal/dedup defines them); an error
// means the name or hash is not currently served and yields
// StatusNotFound.
type ChunkSource interface {
	// EncodedManifest returns the encoded chunk manifest of a published
	// export.
	EncodedManifest(name string) ([]byte, error)
	// ChunkBlob returns the compressed wire form of one chunk.
	ChunkBlob(hash [HashLen]byte) ([]byte, error)
}

// Exports is what a Server serves: named files, each opened read-only. Any
// backend.Store is one.
type Exports interface {
	Open(name string, readOnly bool) (backend.File, error)
}

// Server exports files over TCP, read-only.
type Server struct {
	store  Exports
	maps   MapSource
	chunks ChunkSource
	stats  serverCounters

	// payloads recycles sendfileMin payload buffers across requests — the
	// inbound request payloads and the copy path's OpReadV replies of up to
	// sendfileMin — so a busy stream allocates no payload buffers in steady
	// state. Buffers return to the pool via putFrame once the frame's
	// payload has been consumed.
	payloads *payloadPool

	// readvBufs recycles the maxReadV buffers of larger copied OpReadV
	// replies; at most maxConcurrentPerConn of them are being filled per
	// connection.
	readvBufs *payloadPool

	mu       sync.Mutex
	ln       net.Listener
	closed   bool
	draining bool
	conns    map[net.Conn]struct{}
	logf     func(format string, args ...any)

	// testSndbuf, when non-zero, overrides the zero-copy send-buffer size
	// on accepted connections. Tests shrink it so sendfile returns short
	// mid-reply and the resume path gets exercised; production always uses
	// room for four maxReadV replies.
	testSndbuf int
}

// ServerOpts configures a Server. The server opens every export read-only.
// Reads of at least 64 KiB on handles whose export offers a file descriptor
// (zerocopy.Filer) are served by sendfile(2) from that file; other reads
// copy through a pooled buffer. On platforms without sendfile the helper
// copies internally. Such a reply reads the file when it reaches the wire and
// is clamped to the size the file had at open, so an export must not change a
// file a client holds open — base images and published caches never change —
// or that client's connection fails at the missing bytes.
type ServerOpts struct {
	// Logf, when non-nil, receives connection-level errors.
	Logf func(format string, args ...any)
	// Maps, when non-nil, answers OpMap chunk-map queries (the swarm
	// piece-map advertisement). Servers without one reject OpMap with
	// StatusBadRequest.
	Maps MapSource
	// Chunks, when non-nil, answers OpManifest/OpChunkBatch dedup queries
	// (the manifest-first delta transfer). Servers without one reject both
	// ops with StatusBadRequest.
	Chunks ChunkSource
}

// NewServer returns a server exporting store.
func NewServer(store Exports, opts ServerOpts) *Server {
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	srv := &Server{
		store:     store,
		maps:      opts.Maps,
		chunks:    opts.Chunks,
		conns:     make(map[net.Conn]struct{}),
		logf:      logf,
		payloads:  newPayloadPool(sendfileMin),
		readvBufs: newPayloadPool(maxReadV),
	}
	srv.stats.perImage = make(map[string]*imageCounters)
	return srv
}

// Stats returns a snapshot of the server's traffic counters, including the
// per-image breakdown.
func (s *Server) Stats() ServerStats {
	c := &s.stats
	snap := ServerStats{
		BytesRead:   c.bytesRead.Load(),
		ReadOps:     c.readOps.Load(),
		Opens:       c.opens.Load(),
		Conns:       c.conns.Load(),
		ActiveConns: c.activeConns.Load(),

		ZeroCopyBytes:     c.zcBytes.Load(),
		ZeroCopySegments:  c.zcSegments.Load(),
		ZeroCopyFallbacks: c.zcFallbacks.Load(),

		PerImage: make(map[string]ImageStats),
	}
	c.mu.Lock()
	for name, ic := range c.perImage {
		snap.PerImage[name] = ImageStats{
			Opens:     ic.opens.Load(),
			ReadOps:   ic.readOps.Load(),
			BytesRead: ic.bytesRead.Load(),
		}
	}
	c.mu.Unlock()
	return snap
}

// RegisterMetrics exposes the server's counters on a registry. Per-image
// counters for exports already opened register immediately; exports opened
// later register as their first request arrives.
func (s *Server) RegisterMetrics(r *metrics.Registry, labels metrics.Labels) {
	c := &s.stats
	r.CounterFunc("vmicache_rblock_server_bytes_read_total",
		"Payload bytes served to clients.", labels, c.bytesRead.Load)
	r.CounterFunc("vmicache_rblock_server_read_ops_total",
		"Read requests handled.", labels, c.readOps.Load)
	r.CounterFunc("vmicache_rblock_server_opens_total",
		"Export opens handled.", labels, c.opens.Load)
	r.CounterFunc("vmicache_rblock_server_conns_total",
		"Connections accepted over the server's lifetime.", labels, c.conns.Load)
	r.GaugeFunc("vmicache_rblock_server_active_conns",
		"Connections currently open.", labels, c.activeConns.Load)
	r.GaugeFunc("vmicache_rblock_server_active_requests",
		"Requests currently dispatched.", labels, c.activeReqs.Load)
	r.RegisterHistogram("vmicache_rblock_server_request_ns",
		"Server-side request handling duration.", labels, &c.latency)
	r.CounterFunc("vmicache_rblock_server_zerocopy_bytes_total",
		"Payload bytes served via the sendfile zero-copy path.", labels, c.zcBytes.Load)
	r.CounterFunc("vmicache_rblock_server_zerocopy_segments_total",
		"Read replies served via the sendfile zero-copy path.", labels, c.zcSegments.Load)
	r.CounterFunc("vmicache_rblock_server_zerocopy_fallbacks_total",
		"Reads that wanted zero-copy but used the copy path.", labels, c.zcFallbacks.Load)
	c.mu.Lock()
	c.reg, c.regLabels = r, labels
	for name, ic := range c.perImage {
		c.registerImage(name, ic)
	}
	c.mu.Unlock()
}

// Listen starts accepting on addr ("127.0.0.1:0" for an ephemeral port) and
// returns the bound address. Serving happens on background goroutines until
// Close.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	go s.acceptLoop(ln)
	return ln.Addr().String(), nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed || s.draining {
			s.mu.Unlock()
			conn.Close() //nolint:errcheck
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		// Zero-copy replies move up to maxReadV each; give the kernel
		// room for several so sendfile returns without blocking on the
		// receiver's drain.
		sndbuf := 4 * maxReadV
		if s.testSndbuf > 0 {
			sndbuf = s.testSndbuf
		}
		if tc, ok := conn.(*net.TCPConn); ok {
			tc.SetWriteBuffer(sndbuf) //nolint:errcheck // best-effort tuning
		}
		s.stats.conns.Add(1)
		s.stats.activeConns.Add(1)
		go s.serveConn(conn)
	}
}

// Close stops the listener and all connections immediately, without waiting
// for in-flight requests. Prefer Shutdown for command-line servers.
func (s *Server) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closeLocked()
}

func (s *Server) closeLocked() error {
	if s.closed {
		return nil
	}
	s.closed = true
	var err error
	if s.ln != nil {
		err = s.ln.Close()
	}
	for c := range s.conns {
		c.Close() //nolint:errcheck
	}
	return err
}

// Shutdown stops the server gracefully: the listener closes immediately (no
// new connections), then in-flight requests are given up to drain to finish
// and flush their responses before the connections are torn down. Requests
// still running at the deadline are cut off by the connection close. A zero
// or negative drain degrades to Close.
func (s *Server) Shutdown(drain time.Duration) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	var lnErr error
	if s.ln != nil {
		lnErr = s.ln.Close()
		s.ln = nil
	}
	s.mu.Unlock()

	deadline := time.Now().Add(drain)
	for s.stats.activeReqs.Load() > 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}

	s.mu.Lock()
	err := s.closeLocked()
	s.mu.Unlock()
	if err == nil {
		err = lnErr
	}
	return err
}

// maxConcurrentPerConn bounds how many requests of one connection are
// dispatched simultaneously.
const maxConcurrentPerConn = 16

// connState is the per-connection handle table, shared by the concurrent
// request handlers.
type connState struct {
	mu         sync.Mutex
	handles    map[uint32]*openHandle
	nextHandle uint32
}

// openHandle ties an open file to the export name it was opened under, so
// traffic can be attributed per image. Handles are reference counted: the
// handle table holds one reference, every in-flight request another, and a
// zero-copy reply a third that lives until the frame leaves the wire — so
// OpClose (or connection teardown) can never close the descriptor while a
// queued sendfile still points at it. The file closes when the last
// reference drops.
type openHandle struct {
	f    backend.File
	ic   *imageCounters
	refs atomic.Int32

	// Zero-copy eligibility, frozen at open: sys is the raw descriptor when
	// the export exposes one, size the file length.
	sys  *os.File
	size int64
}

func (oh *openHandle) retain() { oh.refs.Add(1) }

func (oh *openHandle) release() {
	if oh.refs.Add(-1) == 0 {
		oh.f.Close() //nolint:errcheck // deferred close has no caller to tell
	}
}

// get looks up a handle and retains it; the caller must release.
func (cs *connState) get(h uint32) (*openHandle, bool) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	oh, ok := cs.handles[h]
	if ok {
		oh.retain()
	}
	return oh, ok
}

// maxReplyQueue bounds how many replies may sit in a connection's reply
// queue awaiting the vectored write. The request semaphore already caps
// outstanding replies at maxConcurrentPerConn; the extra headroom only
// matters if that invariant ever loosens, keeping pooled payload buffers
// from piling up behind a slow client either way.
const maxReplyQueue = 2 * maxConcurrentPerConn

// replyWriter coalesces reply frames into vectored writes. Replies are
// enqueued under the mutex; the first enqueuer to find no writer active
// becomes the writer and drains the queue with one net.Buffers writev
// (header+payload per frame, no intermediate copy) per batch, picking up
// replies that accumulated while the previous batch was on the wire. Queued
// frames are owned by the writer and recycled with putFrame after the write.
type replyWriter struct {
	conn net.Conn

	mu     sync.Mutex
	cond   sync.Cond
	queue  []*frame
	spare  []*frame // double buffer: reused as the next queue backing
	active bool
	err    error

	// hdrs is the reusable header slab (frameHeaderLen per queued frame);
	// iov is the reusable iovec assembled for each writev; wip is the
	// consumable copy handed to WriteTo (which advances it in place), so
	// iov keeps its backing capacity across batches.
	hdrs []byte
	iov  net.Buffers
	wip  net.Buffers
}

func newReplyWriter(conn net.Conn) *replyWriter {
	w := &replyWriter{conn: conn}
	w.cond.L = &w.mu
	return w
}

// send enqueues one reply frame, transferring ownership; f is recycled after
// it hits the wire (or the writer has already failed). The caller that finds
// the writer idle drains the queue itself, so under low concurrency send
// degenerates to one writev per reply with no extra goroutine or handoff.
func (w *replyWriter) send(f *frame) error {
	w.mu.Lock()
	for w.err == nil && len(w.queue) >= maxReplyQueue {
		w.cond.Wait()
	}
	if w.err != nil {
		err := w.err
		w.mu.Unlock()
		putFrame(f)
		return err
	}
	w.queue = append(w.queue, f)
	if w.active {
		w.mu.Unlock()
		return nil
	}
	w.active = true
	for w.err == nil && len(w.queue) > 0 {
		batch := w.queue
		w.queue = w.spare[:0]
		w.spare = nil
		w.cond.Broadcast() // queue drained: admit blocked senders
		w.mu.Unlock()
		err := w.writeBatch(batch)
		for _, qf := range batch {
			putFrame(qf)
		}
		w.mu.Lock()
		w.spare = batch[:0]
		if err != nil {
			w.err = err
			w.cond.Broadcast()
		}
	}
	w.active = false
	err := w.err
	w.mu.Unlock()
	return err
}

// writeBatch pushes a batch of replies to the socket as one vectored write.
// Zero-copy frames interleave: the headers and copied payloads accumulated
// so far flush as one writev, then the frame's file extents go out via
// sendfile, then accumulation resumes — so a batch mixing copy and zero-copy
// replies still issues the minimum number of syscalls. A short sendfile
// return is handled inside zerocopy.Send by resuming at the file offset
// actually reached, not by advancing an iovec, so mid-extent stalls cannot
// skew the stream.
func (w *replyWriter) writeBatch(batch []*frame) error {
	need := len(batch) * frameHeaderLen
	if cap(w.hdrs) < need {
		w.hdrs = make([]byte, need)
	}
	hdrs := w.hdrs[:need]
	iov := w.iov[:0]
	flush := func() error {
		if len(iov) == 0 {
			return nil
		}
		// WriteTo consumes its receiver (and advances the elements on
		// partial writes): hand it the wip copy so iov's backing stays
		// reusable, and use a field as the receiver so no slice header
		// escapes per batch.
		w.wip = iov
		_, err := w.wip.WriteTo(w.conn)
		iov = iov[:0]
		return err
	}
	for i, f := range batch {
		if f.payloadLen() > maxPayload {
			w.iov = iov
			return fmt.Errorf("%w: payload %d", ErrBadFrame, f.payloadLen())
		}
		h := hdrs[i*frameHeaderLen : (i+1)*frameHeaderLen]
		encodeFrameHeader(h, f)
		iov = append(iov, h)
		if len(f.payload) > 0 {
			iov = append(iov, f.payload)
		}
		for _, v := range f.vec {
			if len(v) > 0 {
				iov = append(iov, v)
			}
		}
		if len(f.exts) > 0 {
			if err := flush(); err != nil {
				w.iov = iov
				return err
			}
			if _, err := zerocopy.SendExtents(w.conn, f.exts); err != nil {
				w.iov = iov
				return err
			}
		}
	}
	err := flush()
	w.iov = iov // keep the grown capacity for the next batch
	return err
}

// serveConn handles one client connection. Requests are dispatched
// concurrently (bounded) so pipelined clients overlap server-side I/O;
// responses carry the request id, so completion order need not match arrival
// order. Replies leave through the connection's replyWriter, which batches
// concurrent completions into single vectored writes.
func (s *Server) serveConn(conn net.Conn) {
	defer func() {
		conn.Close() //nolint:errcheck
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		s.stats.activeConns.Add(-1)
	}()
	br := bufio.NewReaderSize(conn, 128<<10)
	rw := newReplyWriter(conn)
	cs := &connState{handles: map[uint32]*openHandle{}}
	var wg sync.WaitGroup
	defer func() {
		wg.Wait()
		for _, oh := range cs.handles {
			oh.release() // the table's reference; queued frames hold their own
		}
	}()
	sem := make(chan struct{}, maxConcurrentPerConn)
	hdr := make([]byte, frameHeaderLen) // per-conn header scratch

	for {
		req, err := readFrame(br, s.payloads, hdr)
		if err != nil {
			if !errors.Is(err, net.ErrClosed) && !errors.Is(err, io.EOF) &&
				!errors.Is(err, io.ErrUnexpectedEOF) {
				s.logf("rblock: conn read: %v", err)
			}
			return
		}
		sem <- struct{}{}
		wg.Add(1)
		s.stats.activeReqs.Add(1)
		go func(req *frame) {
			defer func() { s.stats.activeReqs.Add(-1); <-sem; wg.Done() }()
			start := time.Now()
			resp := s.handle(req, cs)
			s.stats.latency.Observe(time.Since(start).Nanoseconds())
			resp.id = req.id
			putFrame(req)
			if err := rw.send(resp); err != nil {
				s.logf("rblock: conn write: %v", err)
				conn.Close() //nolint:errcheck // unblocks the read loop
			}
		}(req)
	}
}

func (s *Server) handle(req *frame, cs *connState) *frame {
	resp := getFrame()
	resp.op = req.op | replyFlag
	fail := func(status uint32) *frame {
		resp.status = status
		return resp
	}
	switch req.op {
	case OpOpen:
		if len(req.payload) == 0 || len(req.payload) > MaxNameLen {
			return fail(StatusBadRequest)
		}
		// Refuse a name that is absolute or climbs out of the export
		// before it reaches the store; symlinks inside the export are the
		// owner's and are followed.
		name := string(req.payload)
		if !filepath.IsLocal(name) {
			return fail(StatusBadRequest)
		}
		if req.flags&flagReadOnly == 0 {
			return fail(StatusReadOnly)
		}
		f, err := s.store.Open(name, true)
		if err != nil {
			if errors.Is(err, ErrUnavail) {
				return fail(StatusUnavail)
			}
			return fail(StatusNotFound)
		}
		size, err := f.Size()
		if err != nil {
			f.Close() //nolint:errcheck
			return fail(StatusIO)
		}
		ic := s.stats.image(name)
		oh := &openHandle{f: f, ic: ic, sys: zerocopy.SysFile(f), size: size}
		oh.refs.Store(1) // the handle table's reference
		cs.mu.Lock()
		cs.nextHandle++
		h := cs.nextHandle
		cs.handles[h] = oh
		cs.mu.Unlock()
		resp.handle = h
		resp.aux = uint64(size)
		s.stats.opens.Add(1)
		ic.opens.Add(1)
		return resp

	case OpReadV:
		return s.readV(req, resp, cs)

	case OpMap:
		if s.maps == nil {
			return fail(StatusBadRequest)
		}
		if len(req.payload) == 0 || len(req.payload) > MaxNameLen {
			return fail(StatusBadRequest)
		}
		enc, err := s.maps.EncodedMap(string(req.payload))
		if err != nil {
			return fail(StatusNotFound)
		}
		if len(enc) > maxPayload {
			return fail(StatusIO)
		}
		resp.payload = enc
		return resp

	case OpManifest:
		if s.chunks == nil {
			return fail(StatusBadRequest)
		}
		if len(req.payload) == 0 || len(req.payload) > MaxNameLen {
			return fail(StatusBadRequest)
		}
		enc, err := s.chunks.EncodedManifest(string(req.payload))
		if err != nil {
			return fail(StatusNotFound)
		}
		if len(enc) > maxPayload {
			return fail(StatusIO)
		}
		resp.payload = enc
		return resp

	case OpChunkBatch:
		if s.chunks == nil {
			return fail(StatusBadRequest)
		}
		n := len(req.payload) / HashLen
		if n == 0 || n > MaxBatchChunks || len(req.payload) != n*HashLen {
			return fail(StatusBadRequest)
		}
		// Serve the longest prefix of the requested run that the store
		// holds and that fits one frame: the length-prefix slab goes in
		// payload, the blob bodies ride the vec so nothing is copied.
		slab := make([]byte, 0, n*4)
		served := 0
		total := 0
		for i := 0; i < n; i++ {
			comp, err := s.chunks.ChunkBlob([HashLen]byte(req.payload[i*HashLen : (i+1)*HashLen]))
			if err != nil {
				break // the client re-requests the tail
			}
			if total+len(comp)+4*(served+1) > maxPayload {
				break
			}
			var lp [4]byte
			binary.BigEndian.PutUint32(lp[:], uint32(len(comp)))
			slab = append(slab, lp[:]...)
			resp.vec = append(resp.vec, comp)
			total += len(comp)
			served++
		}
		if served == 0 {
			resp.vec = nil
			return fail(StatusNotFound)
		}
		resp.payload = slab
		resp.aux = uint64(served)
		return resp

	case OpClose:
		cs.mu.Lock()
		oh, ok := cs.handles[req.handle]
		if ok {
			delete(cs.handles, req.handle)
		}
		cs.mu.Unlock()
		if !ok {
			return fail(StatusBadRequest)
		}
		// Drop the table's reference; the actual close may be deferred past
		// this reply if a zero-copy frame still holds the descriptor, so a
		// close error has no caller to reach and is ignored.
		oh.release()
		return resp

	default:
		return fail(StatusBadRequest)
	}
}

// readV serves OpReadV. A handle with a file descriptor answers a request
// for at least sendfileMin with the ranges' file extents (readVExtents): for
// a small boot-time read the batched writev of a pooled buffer beats an extra
// sendfile syscall per reply, while bulk pulls skip the server-side copy
// entirely. Any other request reads every range with its
// ReadAt into one pooled buffer, in order, and that buffer is the reply. Each
// range counts as one read op, with its bytes. A range that ends past the
// file's end ends the reply short; a read error fails the whole request.
func (s *Server) readV(req, resp *frame, cs *connState) *frame {
	n, total, ok := checkReadV(req.payload)
	if !ok {
		resp.status = StatusBadRequest
		return resp
	}
	oh, ok := cs.get(req.handle)
	if !ok {
		resp.status = StatusBadRequest
		return resp
	}
	defer oh.release()
	if oh.sys != nil && total >= sendfileMin {
		return s.readVExtents(req.payload, n, resp, oh)
	}
	if oh.sys == nil {
		s.stats.zcFallbacks.Add(1)
	}
	pool := s.readvBufs
	if total <= sendfileMin {
		pool = s.payloads
	}
	bp := pool.get(total)
	buf := (*bp)[:total]
	done, ops := 0, int64(0)
	for i := 0; i < n; i++ {
		off, l := readVRec(req.payload, i)
		got, err := oh.f.ReadAt(buf[done:done+int(l)], int64(off))
		ops++
		done += got
		if err != nil && !errors.Is(err, io.EOF) {
			pool.put(bp)
			if errors.Is(err, ErrUnavail) {
				// The export refuses this range right now (a swarm read
				// over a span the serving cache has not warmed): a
				// per-request refusal, not a broken export.
				resp.status = StatusUnavail
			} else {
				resp.status = StatusIO
			}
			return resp
		}
		if got < int(l) {
			break
		}
	}
	resp.pooled, resp.ppool, resp.payload = bp, pool, buf[:done]
	s.stats.readOps.Add(ops)
	s.stats.bytesRead.Add(int64(done))
	oh.ic.readOps.Add(ops)
	oh.ic.bytesRead.Add(int64(done))
	return resp
}

// readVExtents answers an OpReadV of n records on a descriptor-backed handle
// with file extents instead of bytes: each range clamped to the size frozen
// at open, adjacent ranges merged into one extent, and the reply ending at the first range cut short by the end of the file — the
// bytes the copy path would read, sent by sendfile. The frame holds its own
// handle reference until it leaves the wire, so a concurrent OpClose — or
// eviction unlinking the published file — cannot invalidate the descriptor
// mid-sendfile.
func (s *Server) readVExtents(p []byte, n int, resp *frame, oh *openHandle) *frame {
	exts := resp.exts[:0]
	var done, ops int64
	for i := 0; i < n; i++ {
		off, l := readVRec(p, i)
		ops++
		o := int64(off)
		got := min(int64(l), max(oh.size-o, 0))
		if got > 0 {
			if k := len(exts) - 1; k >= 0 && exts[k].Off+exts[k].Len == o {
				exts[k].Len += got
			} else {
				exts = append(exts, zerocopy.FileExtent{F: oh.sys, Off: o, Len: got})
			}
			done += got
		}
		if got < int64(l) {
			break
		}
	}
	oh.retain()
	resp.exts, resp.done = exts, oh.release
	s.stats.readOps.Add(ops)
	s.stats.bytesRead.Add(done)
	s.stats.zcSegments.Add(1)
	s.stats.zcBytes.Add(done)
	oh.ic.readOps.Add(ops)
	oh.ic.bytesRead.Add(done)
	return resp
}
