package rblock

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"vmicache/internal/backend"
	"vmicache/internal/metrics"
)

// DefaultTimeout bounds how long a request may go unanswered before the
// client declares the connection broken.
const DefaultTimeout = 30 * time.Second

// clientMaxInflightSegments caps how many segments of one large ReadAt /
// WriteAt, or requests of one ReadBatch, are pipelined concurrently.
const clientMaxInflightSegments = 8

// Client multiplexes remote files over one pipelined TCP connection:
// multiple requests may be in flight at once, each tagged with a request id;
// a background reader goroutine demultiplexes responses to their waiters.
// Any read error, timeout, or protocol violation marks the client broken —
// the stream's framing can no longer be trusted — and every pending and
// subsequent call fails fast with ErrClientBroken.
type Client struct {
	conn   net.Conn
	bw     *bufio.Writer
	rwsize int

	// wmu serialises frame writes and flushes on the shared connection;
	// whdr is the header scratch used under it (a stack array would escape
	// through the io.Writer interface and cost one allocation per request).
	wmu  sync.Mutex
	whdr [frameHeaderLen]byte

	// mu guards the demux state below.
	mu      sync.Mutex
	pending map[uint32]pendingReq
	nextID  uint32
	closed  bool
	broken  error // first fatal error; non-nil once the stream is unusable

	timeout time.Duration

	// bumpedRcvbuf records that the receive buffer was enlarged for jumbo
	// zero-copy replies (done once, on the first jumbo-advertised open).
	bumpedRcvbuf atomic.Bool

	// payloads recycles response payload buffers (rwsize each); chanPool
	// recycles roundTrip reply channels and segPool the per-call segment
	// slices of large ReadAt/WriteAt, so a pipelined stream allocates
	// neither in steady state.
	payloads *payloadPool
	chanPool sync.Pool
	segPool  sync.Pool

	ctr clientCounters
}

// pendingReq is one awaited response: the waiter's channel plus, for reads,
// the caller's destination buffer — the read loop lands the payload there
// directly, so large reads cost no intermediate buffer or copy. An OpReadV
// waiter gives a scatter list instead (vecLen bytes in all): the payload
// lands across its pieces in order.
type pendingReq struct {
	ch     chan *frame
	dst    []byte
	vec    [][]byte
	vecLen int
}

// getChan returns a reply channel for one round trip. Channels are recycled
// ONLY after a successful receive: fail() closes every pending channel, so a
// channel that went through a broken client must never be reused.
func (c *Client) getChan() chan *frame {
	if v := c.chanPool.Get(); v != nil {
		return v.(chan *frame)
	}
	return make(chan *frame, 1)
}

func (c *Client) putChan(ch chan *frame) { c.chanPool.Put(ch) }

// getSegs returns a pooled segment slice (by pointer so recycling does not
// allocate).
func (c *Client) getSegs() *[]segment {
	if v := c.segPool.Get(); v != nil {
		p := v.(*[]segment)
		*p = (*p)[:0]
		return p
	}
	return new([]segment)
}

func (c *Client) putSegs(p *[]segment) { c.segPool.Put(p) }

// clientCounters are the client's live instruments: plain atomics updated on
// the request path, sampled by Stats and RegisterMetrics.
type clientCounters struct {
	requests atomic.Int64 // round trips issued
	bytesOut atomic.Int64 // request payload bytes (writes)
	bytesIn  atomic.Int64 // response payload bytes (reads)
	broken   atomic.Int64 // fatal transport failures (excludes local Close)
	inflight atomic.Int64 // requests currently awaiting a response
	rtt      metrics.AtomicHistogram
}

// ClientStats is a point-in-time snapshot of a client's counters.
type ClientStats struct {
	Requests int64
	BytesOut int64
	BytesIn  int64
	Broken   int64
	Inflight int64
	RTT      metrics.HistogramSnapshot
}

// Stats snapshots the client's counters.
func (c *Client) Stats() ClientStats {
	return ClientStats{
		Requests: c.ctr.requests.Load(),
		BytesOut: c.ctr.bytesOut.Load(),
		BytesIn:  c.ctr.bytesIn.Load(),
		Broken:   c.ctr.broken.Load(),
		Inflight: c.ctr.inflight.Load(),
		RTT:      c.ctr.rtt.Snapshot(),
	}
}

// RegisterMetrics exposes the client's counters on a registry. Sampling
// happens at scrape time; the request path keeps its atomics-only profile.
func (c *Client) RegisterMetrics(r *metrics.Registry, labels metrics.Labels) {
	r.CounterFunc("vmicache_rblock_client_requests_total",
		"Round trips issued on the connection.", labels, c.ctr.requests.Load)
	r.CounterFunc("vmicache_rblock_client_bytes_sent_total",
		"Request payload bytes written to the connection.", labels, c.ctr.bytesOut.Load)
	r.CounterFunc("vmicache_rblock_client_bytes_received_total",
		"Response payload bytes read from the connection.", labels, c.ctr.bytesIn.Load)
	r.CounterFunc("vmicache_rblock_client_broken_total",
		"Fatal transport failures that marked the client broken.", labels, c.ctr.broken.Load)
	r.GaugeFunc("vmicache_rblock_client_inflight",
		"Requests currently pipelined and awaiting a response.", labels, c.ctr.inflight.Load)
	r.RegisterHistogram("vmicache_rblock_client_rtt_ns",
		"Request round-trip time, send through matched response.", labels, &c.ctr.rtt)
}

// Dial connects to a server. rwsize caps per-request transfers (0 uses the
// default); it must not exceed the server's limit.
func Dial(addr string, rwsize int) (*Client, error) {
	if rwsize <= 0 {
		rwsize = DefaultRWSize
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &Client{
		conn:     conn,
		bw:       bufio.NewWriterSize(conn, 128<<10),
		rwsize:   rwsize,
		pending:  make(map[uint32]pendingReq),
		timeout:  DefaultTimeout,
		payloads: newPayloadPool(rwsize),
	}
	go c.readLoop(bufio.NewReaderSize(conn, 128<<10))
	return c, nil
}

// SetTimeout adjusts the per-request deadline (0 disables deadlines).
func (c *Client) SetTimeout(d time.Duration) {
	c.mu.Lock()
	c.timeout = d
	c.mu.Unlock()
}

// Close terminates the connection; open RemoteFiles become unusable and
// pending requests fail.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	err := c.conn.Close()
	c.fail(ErrClosed)
	return err
}

// fail marks the client broken with cause err, tears down the connection,
// and releases every waiter.
func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.broken == nil {
		c.broken = err
		if err != ErrClosed {
			c.ctr.broken.Add(1)
		}
	}
	waiters := c.pending
	c.pending = make(map[uint32]pendingReq)
	c.mu.Unlock()
	c.conn.Close() //nolint:errcheck // already failing; nothing to report
	for _, pr := range waiters {
		close(pr.ch)
	}
}

// readLoop demultiplexes responses to their waiting requests until the
// connection dies. The read deadline is armed whenever requests are pending
// (see roundTrip) and cleared when the pipeline drains, so an idle
// connection never times out. The header is parsed before the payload is
// read so payloads of successful reads land directly in the waiting caller's
// destination buffer (pendingReq.dst) — jumbo zero-copy segments then cross
// the client without an intermediate buffer or copy.
func (c *Client) readLoop(br *bufio.Reader) {
	hdr := make([]byte, frameHeaderLen)
	be := binary.BigEndian
	for {
		if _, err := io.ReadFull(br, hdr); err != nil {
			c.fail(err)
			return
		}
		if be.Uint32(hdr[0:]) != Magic {
			c.fail(ErrBadFrame)
			return
		}
		n := be.Uint32(hdr[24:])
		if n > maxPayload {
			c.fail(ErrBadFrame)
			return
		}
		id := be.Uint32(hdr[8:])
		c.mu.Lock()
		pr, ok := c.pending[id]
		if ok {
			delete(c.pending, id)
		}
		if len(c.pending) == 0 {
			c.conn.SetReadDeadline(time.Time{}) //nolint:errcheck
		} else if c.timeout > 0 {
			c.conn.SetReadDeadline(time.Now().Add(c.timeout)) //nolint:errcheck
		}
		c.mu.Unlock()
		if !ok {
			// A response nobody asked for: the stream is desynchronised.
			c.fail(fmt.Errorf("%w: unsolicited response id %d", ErrBadFrame, id))
			return
		}
		resp := getFrame()
		resp.op = Op(hdr[4])
		resp.flags = hdr[5]
		resp.status = uint32(be.Uint16(hdr[6:]))
		resp.id = id
		resp.handle = be.Uint32(hdr[12:])
		resp.offset = be.Uint64(hdr[16:])
		resp.aux = be.Uint64(hdr[28:])
		if n > 0 {
			// In-place and scattered deliveries write buffers the waiter
			// owns until it receives resp, so they cannot race it.
			var err error
			switch {
			case pr.vec != nil && resp.status == 0 && int(n) <= pr.vecLen:
				resp.scattered = int(n)
				err = readScatter(br, pr.vec, int(n))
			case pr.dst != nil && resp.status == 0 && int(n) <= len(pr.dst):
				resp.payload = pr.dst[:n]
				_, err = io.ReadFull(br, resp.payload)
			default:
				resp.pooled = c.payloads.get(int(n))
				resp.ppool = c.payloads
				resp.payload = (*resp.pooled)[:n]
				_, err = io.ReadFull(br, resp.payload)
			}
			if err != nil {
				putFrame(resp)
				c.fail(err)
				close(pr.ch) // no longer pending, so fail did not release it
				return
			}
		}
		pr.ch <- resp
	}
}

// readScatter reads n bytes from r across vec's pieces, in order.
func readScatter(r io.Reader, vec [][]byte, n int) error {
	for _, v := range vec {
		if n == 0 {
			break
		}
		v = v[:min(len(v), n)]
		if _, err := io.ReadFull(r, v); err != nil {
			return err
		}
		n -= len(v)
	}
	return nil
}

// brokenErr reports the fail-fast error for a broken client.
func (c *Client) brokenErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	return fmt.Errorf("%w: %v", ErrClientBroken, c.broken)
}

// roundTrip sends a request and waits for its response. Concurrent callers
// pipeline: their requests share the connection and complete independently.
// roundTrip takes ownership of req (recycled once serialised); on success
// the caller owns the returned response and must recycle it with putFrame
// after consuming its payload. dst, when non-nil, receives a successful
// response's payload in place (the response then aliases it); the caller
// must own dst until the response arrives.
func (c *Client) roundTrip(req *frame, dst []byte) (*frame, error) {
	return c.roundTripTo(req, pendingReq{dst: dst})
}

// roundTripTo is roundTrip with the response's destination in pr (its
// channel is filled here): dst, or an OpReadV scatter list.
func (c *Client) roundTripTo(req *frame, pr pendingReq) (*frame, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		putFrame(req)
		return nil, ErrClosed
	}
	if c.broken != nil {
		c.mu.Unlock()
		putFrame(req)
		return nil, c.brokenErr()
	}
	ch := c.getChan()
	start := time.Now()
	c.ctr.requests.Add(1)
	c.ctr.bytesOut.Add(int64(len(req.payload)))
	c.ctr.inflight.Add(1)
	defer c.ctr.inflight.Add(-1)
	c.nextID++
	req.id = c.nextID
	pr.ch = ch
	c.pending[req.id] = pr
	if c.timeout > 0 {
		// Arm (or extend) the read deadline: progress is expected while
		// anything is in flight.
		c.conn.SetReadDeadline(time.Now().Add(c.timeout)) //nolint:errcheck
	}
	timeout := c.timeout
	c.mu.Unlock()

	c.wmu.Lock()
	if timeout > 0 {
		c.conn.SetWriteDeadline(time.Now().Add(timeout)) //nolint:errcheck
	}
	var err error
	if len(req.payload) > maxPayload {
		err = fmt.Errorf("%w: payload %d", ErrBadFrame, len(req.payload))
	} else {
		encodeFrameHeader(c.whdr[:], req)
		_, err = c.bw.Write(c.whdr[:])
		if err == nil && len(req.payload) > 0 {
			_, err = c.bw.Write(req.payload)
		}
		if err == nil {
			err = c.bw.Flush()
		}
	}
	c.wmu.Unlock()
	op := req.op
	putFrame(req)
	if err != nil {
		c.fail(err)
		return nil, c.brokenErr()
	}

	resp, ok := <-ch
	if !ok {
		// fail() closed the channel; it must not be reused (see getChan).
		return nil, c.brokenErr()
	}
	c.putChan(ch)
	if resp.op != op|replyFlag {
		c.fail(fmt.Errorf("%w: mismatched reply op %#x", ErrBadFrame, resp.op))
		putFrame(resp)
		return nil, c.brokenErr()
	}
	if err := statusErr(resp.status); err != nil {
		putFrame(resp)
		return nil, err
	}
	c.ctr.bytesIn.Add(int64(len(resp.payload) + resp.scattered))
	c.ctr.rtt.Observe(time.Since(start).Nanoseconds())
	return resp, nil
}

// FetchMap queries the chunk-validity map advertised for an export name (no
// open handle needed). The returned bytes are an encoded swarm chunk map,
// owned by the caller. Exports not currently advertised yield ErrNotFound;
// servers without a map source yield ErrBadRequest.
func (c *Client) FetchMap(name string) ([]byte, error) {
	if name == "" || len(name) > MaxNameLen {
		return nil, ErrBadRequest
	}
	req := getFrame()
	req.op, req.payload = OpMap, []byte(name)
	resp, err := c.roundTrip(req, nil)
	if err != nil {
		return nil, err
	}
	enc := make([]byte, len(resp.payload))
	copy(enc, resp.payload)
	putFrame(resp)
	return enc, nil
}

// FetchManifest queries the chunk manifest advertised for a published
// export name (no open handle needed). The returned bytes are an encoded
// dedup manifest, owned by the caller. Exports without a committed
// manifest yield ErrNotFound; servers without a chunk source yield
// ErrBadRequest.
func (c *Client) FetchManifest(name string) ([]byte, error) {
	if name == "" || len(name) > MaxNameLen {
		return nil, ErrBadRequest
	}
	req := getFrame()
	req.op, req.payload = OpManifest, []byte(name)
	resp, err := c.roundTrip(req, nil)
	if err != nil {
		return nil, err
	}
	enc := make([]byte, len(resp.payload))
	copy(enc, resp.payload)
	putFrame(resp)
	return enc, nil
}

// FetchChunk fetches one content-addressed chunk by SHA-256. It returns
// the compressed length-framed blob exactly as the peer stores it (the
// caller decodes and hash-verifies it, so a corrupt transfer surfaces as a
// corrupt-blob error) plus the raw length the server advertised. Unknown
// hashes yield ErrNotFound.
func (c *Client) FetchChunk(hash [HashLen]byte) (comp []byte, rawLen int64, err error) {
	req := getFrame()
	req.op, req.payload = OpChunk, hash[:]
	resp, err := c.roundTrip(req, nil)
	if err != nil {
		return nil, 0, err
	}
	comp = make([]byte, len(resp.payload))
	copy(comp, resp.payload)
	rawLen = int64(resp.aux)
	putFrame(resp)
	return comp, rawLen, nil
}

// FetchChunkBatch fetches a run of content-addressed chunks in one round
// trip. The server answers with the longest prefix of hashes it holds that
// fits one frame, so the returned slice has between 1 and len(hashes)
// compressed length-framed blobs, in request order; the caller re-requests
// the unserved tail (typically after a prefix chunk landed elsewhere). A
// first hash the server is missing yields ErrNotFound; servers that predate
// the op yield ErrBadRequest — callers fall back to per-chunk FetchChunk.
func (c *Client) FetchChunkBatch(hashes [][HashLen]byte) ([][]byte, error) {
	if len(hashes) == 0 || len(hashes) > MaxBatchChunks {
		return nil, ErrBadRequest
	}
	req := getFrame()
	req.op = OpChunkBatch
	pay := make([]byte, 0, len(hashes)*HashLen)
	for i := range hashes {
		pay = append(pay, hashes[i][:]...)
	}
	req.payload = pay
	resp, err := c.roundTrip(req, nil)
	if err != nil {
		return nil, err
	}
	defer putFrame(resp)
	served := int(resp.aux)
	if served == 0 || served > len(hashes) || len(resp.payload) < served*4 {
		c.fail(fmt.Errorf("%w: chunk batch count %d", ErrBadFrame, served))
		return nil, c.brokenErr()
	}
	// One copy of the whole payload, then subslice each record out of it.
	body := make([]byte, len(resp.payload))
	copy(body, resp.payload)
	blobs := make([][]byte, 0, served)
	off := served * 4
	for i := 0; i < served; i++ {
		n := int(binary.BigEndian.Uint32(body[i*4:]))
		if n < 0 || off+n > len(body) {
			c.fail(fmt.Errorf("%w: chunk batch record %d", ErrBadFrame, i))
			return nil, c.brokenErr()
		}
		blobs = append(blobs, body[off:off+n])
		off += n
	}
	if off != len(body) {
		c.fail(fmt.Errorf("%w: chunk batch trailing %d bytes", ErrBadFrame, len(body)-off))
		return nil, c.brokenErr()
	}
	return blobs, nil
}

// RemoteFile is an open remote file implementing backend.File.
type RemoteFile struct {
	c      *Client
	handle uint32
	size   int64
	ro     bool
	closed bool
	mu     sync.Mutex

	// readSeg, when positive, overrides the connection rwsize for read
	// segmentation: the server advertised jumbo segments at open because it
	// serves this handle zero-copy (no per-request buffer on its side).
	// Writes always stay rwsize-bounded.
	readSeg int
}

// Open opens a remote file by its export name.
func (c *Client) Open(name string, readOnly bool) (*RemoteFile, error) {
	var flags uint8
	if readOnly {
		flags = 1
	}
	req := getFrame()
	req.op, req.flags, req.payload = OpOpen, flags, []byte(name)
	resp, err := c.roundTrip(req, nil)
	if err != nil {
		return nil, err
	}
	rf := &RemoteFile{c: c, handle: resp.handle, size: int64(resp.aux), ro: readOnly}
	if seg := int(resp.offset); seg > c.rwsize {
		if seg > MaxZeroCopySegment {
			seg = MaxZeroCopySegment // distrust the advertisement
		}
		rf.readSeg = seg
		// A jumbo advertisement means bulk zero-copy pulls are coming:
		// give the kernel room for several segments so the server's
		// sendfile completes without blocking and the next segments
		// stream while the caller drains this one (one segment of
		// buffer measured ~2x slower — sendfile stalls against the
		// copy-out instead of overlapping it). Deliberately not done at
		// Dial: small-read connections (swarm chunk pulls, boot-time
		// demand fills) should not pin megabytes of receive buffer.
		if c.bumpedRcvbuf.CompareAndSwap(false, true) {
			if tc, ok := c.conn.(*net.TCPConn); ok {
				tc.SetReadBuffer(4 * MaxZeroCopySegment) //nolint:errcheck // best-effort tuning
			}
		}
	}
	putFrame(resp)
	return rf, nil
}

// segment is one rwsize-bounded slice of a larger request.
type segment struct {
	start int // offset into p
	n     int
}

// segments appends total split into segSize-bounded pieces to segs (pass a
// pooled slice from getSegs).
func (f *RemoteFile) segments(segs []segment, total, segSize int) []segment {
	for start := 0; start < total; start += segSize {
		n := total - start
		if n > segSize {
			n = segSize
		}
		segs = append(segs, segment{start: start, n: n})
	}
	return segs
}

// readSegSize is the per-read segment bound: the handle's jumbo size when the
// server serves it zero-copy, the connection rwsize otherwise.
func (f *RemoteFile) readSegSize() int {
	if f.readSeg > 0 {
		return f.readSeg
	}
	return f.c.rwsize
}

// ReadAt reads remotely, segmenting to the negotiated rwsize. Multi-segment
// reads are pipelined: all segments go out on the wire before the first
// response is awaited, so one large read costs roughly one round trip plus
// transfer instead of one round trip per segment. Reads past the remote end
// yield io.EOF with a short count, matching io.ReaderAt.
func (f *RemoteFile) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, ErrBadRequest
	}
	readSeg := func(s segment) (int, error) {
		return f.readInto(p[s.start:s.start+s.n], off+int64(s.start))
	}
	sp := f.c.getSegs()
	defer f.c.putSegs(sp)
	segs := f.segments(*sp, len(p), f.readSegSize())
	*sp = segs
	if len(segs) <= 1 {
		done := 0
		for _, s := range segs {
			n, err := readSeg(s)
			done += n
			if err != nil {
				return done, err
			}
			if n < s.n {
				return done, io.EOF
			}
		}
		return done, nil
	}
	ns, err := f.inParallel(len(segs), func(i int) (int, error) { return readSeg(segs[i]) })
	done := 0
	for i, s := range segs {
		done += ns[i]
		if ns[i] < s.n {
			if err == nil {
				err = io.EOF
			}
			break
		}
	}
	return done, err
}

// ReadBatch fills every range with ReadFull's rules — a range past the remote
// end fails with io.ErrUnexpectedEOF. The ranges are packed in order into
// OpReadV requests of at most maxReadV bytes each (a larger range is split
// across requests), clientMaxInflightSegments of them in flight at once, and
// each reply lands straight in its ranges: a batch costs one round trip per
// MiB, not one per range. A server error fails the batch (ErrRemoteIO for a
// read fault) and leaves the client usable.
func (f *RemoteFile) ReadBatch(rs []backend.Range) error {
	var reqs []readVReq
	var cur *readVReq
	for _, r := range rs {
		if r.Off < 0 {
			return ErrBadRequest
		}
		for p, off := r.P, r.Off; len(p) > 0; {
			if cur == nil || cur.want == maxReadV || len(cur.vec) == maxReadVRecords {
				reqs = append(reqs, readVReq{})
				cur = &reqs[len(reqs)-1]
			}
			n := min(len(p), maxReadV-cur.want)
			cur.recs = binary.BigEndian.AppendUint64(cur.recs, uint64(off))
			cur.recs = binary.BigEndian.AppendUint32(cur.recs, uint32(n))
			cur.vec = append(cur.vec, p[:n])
			cur.want += n
			p, off = p[n:], off+int64(n)
		}
	}
	_, err := f.inParallel(len(reqs), func(i int) (int, error) { return 0, f.readV(&reqs[i]) })
	return err
}

// readVReq is one OpReadV request: its records, and the pieces of the caller's
// ranges its reply fills, want bytes in all.
type readVReq struct {
	recs []byte
	vec  [][]byte
	want int
}

// readV sends one OpReadV request; a short reply means a range past the
// remote end.
func (f *RemoteFile) readV(rv *readVReq) error {
	req := getFrame()
	req.op, req.handle, req.payload = OpReadV, f.handle, rv.recs
	resp, err := f.c.roundTripTo(req, pendingReq{vec: rv.vec, vecLen: rv.want})
	if err != nil {
		return err
	}
	got, extra := resp.scattered, len(resp.payload)
	putFrame(resp)
	if extra > 0 {
		// A reply longer than the request: the server broke the protocol.
		f.c.fail(fmt.Errorf("%w: read-vector reply of %d bytes, %d asked", ErrBadFrame, extra, rv.want))
		return f.c.brokenErr()
	}
	if got < rv.want {
		return io.ErrUnexpectedEOF
	}
	return nil
}

// readInto is one read request for dst at off; a short count means the
// remote end.
func (f *RemoteFile) readInto(dst []byte, off int64) (int, error) {
	req := getFrame()
	req.op = OpRead
	req.handle = f.handle
	req.offset = uint64(off)
	req.aux = uint64(len(dst))
	resp, err := f.c.roundTrip(req, dst)
	if err != nil {
		return 0, err
	}
	n := len(resp.payload)
	if n > 0 && &resp.payload[0] != &dst[0] {
		// Pooled delivery (the read loop declined in-place delivery,
		// e.g. an oversized reply): copy out as before.
		n = copy(dst, resp.payload)
	}
	putFrame(resp)
	return n, nil
}

// WriteAt writes remotely in rwsize segments, pipelined like ReadAt.
func (f *RemoteFile) WriteAt(p []byte, off int64) (int, error) {
	if f.ro {
		return 0, ErrReadOnly
	}
	writeSeg := func(s segment) (int, error) {
		req := getFrame()
		req.op = OpWrite
		req.handle = f.handle
		req.offset = uint64(off + int64(s.start))
		req.payload = p[s.start : s.start+s.n]
		resp, err := f.c.roundTrip(req, nil)
		if err != nil {
			return 0, err
		}
		putFrame(resp)
		return s.n, nil
	}
	sp := f.c.getSegs()
	defer f.c.putSegs(sp)
	segs := f.segments(*sp, len(p), f.c.rwsize)
	*sp = segs
	var done int
	var err error
	if len(segs) <= 1 {
		for _, s := range segs {
			var n int
			n, err = writeSeg(s)
			done += n
		}
	} else {
		var ns []int
		ns, err = f.inParallel(len(segs), func(i int) (int, error) { return writeSeg(segs[i]) })
		for i, s := range segs {
			done += ns[i]
			if ns[i] < s.n {
				break
			}
		}
	}
	if err != nil {
		return done, err
	}
	f.mu.Lock()
	if end := off + int64(len(p)); end > f.size {
		f.size = end
	}
	f.mu.Unlock()
	return done, nil
}

// inParallel runs op(i) for i in [0, n) with bounded concurrency and returns
// the per-call completed byte counts plus the first error in index order.
// A fixed pool of clientMaxInflightSegments workers claims indices via an
// atomic cursor — a 64-segment read spawns at most that many goroutines, not
// 64.
func (f *RemoteFile) inParallel(n int, op func(i int) (int, error)) ([]int, error) {
	ns := make([]int, n)
	errs := make([]error, n)
	workers := min(clientMaxInflightSegments, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				ns[i], errs[i] = op(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return ns, err
		}
	}
	return ns, nil
}

// Size queries the remote size.
func (f *RemoteFile) Size() (int64, error) {
	req := getFrame()
	req.op, req.handle = OpStat, f.handle
	resp, err := f.c.roundTrip(req, nil)
	if err != nil {
		return 0, err
	}
	size := int64(resp.aux)
	putFrame(resp)
	f.mu.Lock()
	f.size = size
	f.mu.Unlock()
	return size, nil
}

// Truncate resizes the remote file.
func (f *RemoteFile) Truncate(n int64) error {
	if f.ro {
		return ErrReadOnly
	}
	req := getFrame()
	req.op, req.handle, req.aux = OpTruncate, f.handle, uint64(n)
	resp, err := f.c.roundTrip(req, nil)
	if err == nil {
		putFrame(resp)
		f.mu.Lock()
		f.size = n
		f.mu.Unlock()
	}
	return err
}

// Sync flushes the remote file.
func (f *RemoteFile) Sync() error {
	req := getFrame()
	req.op, req.handle = OpSync, f.handle
	resp, err := f.c.roundTrip(req, nil)
	if err == nil {
		putFrame(resp)
	}
	return err
}

// Close releases the remote handle (the connection stays open for other
// files).
func (f *RemoteFile) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	f.mu.Unlock()
	req := getFrame()
	req.op, req.handle = OpClose, f.handle
	resp, err := f.c.roundTrip(req, nil)
	if err == nil {
		putFrame(resp)
	}
	return err
}

// RemoteStore adapts a Client to backend.Store, so a remote export can be
// registered in a core.Namespace and backing-file names like
// "storage:centos.img" resolve across the network. Create and Remove are
// not part of the wire protocol — exports are managed server-side — so they
// fail with ErrReadOnly.
type RemoteStore struct {
	C *Client
}

// Open opens a remote file as a backend.File.
func (s RemoteStore) Open(name string, readOnly bool) (backend.File, error) {
	return s.C.Open(name, readOnly)
}

// Create is unsupported on remote stores.
func (s RemoteStore) Create(name string) (backend.File, error) {
	return nil, fmt.Errorf("%w: remote stores cannot create %q", ErrReadOnly, name)
}

// Remove is unsupported on remote stores.
func (s RemoteStore) Remove(name string) error {
	return fmt.Errorf("%w: remote stores cannot remove %q", ErrReadOnly, name)
}

// Stat reports a remote file's size by opening it briefly.
func (s RemoteStore) Stat(name string) (int64, error) {
	f, err := s.C.Open(name, true)
	if err != nil {
		return 0, err
	}
	defer f.Close() //nolint:errcheck // read-only probe handle
	return f.size, nil
}

// compile-time interface check.
var _ backend.Store = RemoteStore{}
