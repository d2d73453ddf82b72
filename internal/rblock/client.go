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

// clientMaxInflightSegments caps how many OpReadV requests of one read are
// pipelined concurrently.
const clientMaxInflightSegments = 8

// Client multiplexes remote files over one pipelined TCP connection:
// multiple requests may be in flight at once, each tagged with a request id;
// a background reader goroutine demultiplexes responses to their waiters.
// Any read error, timeout, or protocol violation marks the client broken —
// the stream's framing can no longer be trusted — and every pending and
// subsequent call fails fast with ErrClientBroken.
type Client struct {
	conn net.Conn
	bw   *bufio.Writer

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

	// bumpedRcvbuf records that the receive buffer was enlarged for bulk
	// replies (done once, see growRcvbuf).
	bumpedRcvbuf atomic.Bool

	// payloads recycles response payload buffers (sendfileMin each); chanPool
	// recycles roundTrip reply channels and planPool the request plans of
	// reads, so a pipelined stream allocates neither in steady state.
	payloads *payloadPool
	chanPool sync.Pool
	planPool sync.Pool

	ctr clientCounters
}

// pendingReq is one awaited response: the waiter's channel plus, for an
// OpReadV, the caller's buffers as a scatter list (vecLen bytes in all) — the
// read loop lands the payload across its pieces in order, so a read costs no
// intermediate buffer or copy.
type pendingReq struct {
	ch     chan *frame
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

// clientCounters are the client's live instruments: plain atomics updated on
// the request path, sampled by Stats and RegisterMetrics.
type clientCounters struct {
	requests atomic.Int64 // round trips issued
	bytesOut atomic.Int64 // request payload bytes
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

// Dial connects to a server. The int is ignored: it was the write segment
// size of a protocol that no longer writes.
func Dial(addr string, _ int) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return newClient(conn), nil
}

// newClient runs the client side of the protocol over conn.
func newClient(conn net.Conn) *Client {
	c := &Client{
		conn:     conn,
		bw:       bufio.NewWriterSize(conn, 128<<10),
		pending:  make(map[uint32]pendingReq),
		timeout:  DefaultTimeout,
		payloads: newPayloadPool(sendfileMin),
	}
	go c.readLoop(bufio.NewReaderSize(conn, 128<<10))
	return c
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
// buffers (pendingReq.vec).
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
			// A scattered delivery writes buffers the waiter owns until
			// it receives resp, so it cannot race it.
			var err error
			if pr.vec != nil && resp.status == 0 && int(n) <= pr.vecLen {
				resp.scattered = int(n)
				err = readScatter(br, pr.vec, int(n))
			} else {
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
// after consuming its payload.
func (c *Client) roundTrip(req *frame) (*frame, error) {
	return c.roundTripTo(req, pendingReq{})
}

// roundTripTo is roundTrip with an OpReadV scatter list for the response in
// pr (its channel is filled here); the caller must own the list's buffers
// until the response arrives.
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
	resp, err := c.roundTrip(req)
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
	resp, err := c.roundTrip(req)
	if err != nil {
		return nil, err
	}
	enc := make([]byte, len(resp.payload))
	copy(enc, resp.payload)
	putFrame(resp)
	return enc, nil
}

// FetchChunkBatch fetches a run of content-addressed chunks by SHA-256 in one
// round trip. The server answers with the longest prefix of hashes it holds
// that fits one frame, so the returned slice has between 1 and len(hashes)
// compressed length-framed blobs, exactly as the peer stores them, in
// request order (the caller decodes and hash-verifies each, so a corrupt
// transfer surfaces as a corrupt-blob error); the caller re-requests the
// unserved tail (typically after a prefix chunk landed elsewhere). A first
// hash the server is missing yields ErrNotFound, a server without a chunk
// source ErrBadRequest. A malformed reply breaks the client with
// ErrBadFrame.
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
	resp, err := c.roundTrip(req)
	if err != nil {
		return nil, err
	}
	defer putFrame(resp)
	if resp.aux == 0 || resp.aux > uint64(len(hashes)) || len(resp.payload) < int(resp.aux)*4 {
		c.fail(fmt.Errorf("%w: chunk batch count %d", ErrBadFrame, resp.aux))
		return nil, c.brokenErr()
	}
	served := int(resp.aux)
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

// RemoteFile is an open remote file implementing backend.File. Exports are
// immutable while open, so the file answers Size from its open reply and
// refuses every write.
type RemoteFile struct {
	c      *Client
	handle uint32
	size   int64
	closed bool
	mu     sync.Mutex
}

// Open opens a remote file by its export name. Exports are read-only: a
// writable open fails with ErrReadOnly without a request; readOnly mirrors
// backend.Store.Open.
func (c *Client) Open(name string, readOnly bool) (*RemoteFile, error) {
	if !readOnly {
		return nil, fmt.Errorf("%w: cannot open %q writable", ErrReadOnly, name)
	}
	req := getFrame()
	req.op, req.flags, req.payload = OpOpen, flagReadOnly, []byte(name)
	resp, err := c.roundTrip(req)
	if err != nil {
		return nil, err
	}
	rf := &RemoteFile{c: c, handle: resp.handle, size: int64(resp.aux)}
	putFrame(resp)
	return rf, nil
}

// growRcvbuf enlarges the receive buffer once, before the connection's first
// request of at least half of maxReadV: bulk replies are coming (a warm's
// windows, a peer pull), and room for several lets the server's sendfile
// complete without blocking while the caller drains the previous reply (one
// reply of buffer measured ~2x slower — sendfile stalls against the copy-out
// instead of overlapping it). Not done at Dial or for smaller requests:
// connections that only read small ranges (swarm chunk pulls, boot-time
// demand fills, the base probe) should not pin megabytes of receive buffer.
func (c *Client) growRcvbuf() {
	if !c.bumpedRcvbuf.CompareAndSwap(false, true) {
		return
	}
	if tc, ok := c.conn.(*net.TCPConn); ok {
		tc.SetReadBuffer(4 * maxReadV) //nolint:errcheck // best-effort tuning
	}
}

// ReadAt reads one range as ReadBatch does, in OpReadV requests of at most
// maxReadV bytes, up to clientMaxInflightSegments of them in flight. A read
// past the remote end yields the short count with io.EOF, matching
// io.ReaderAt.
func (f *RemoteFile) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, ErrBadRequest
	}
	pl := f.c.getPlan()
	defer f.c.putPlan(pl)
	pl.add(p, off)
	err := f.read(pl.reqs)
	n := 0
	for _, rv := range pl.reqs {
		n += rv.got
		if rv.got < rv.want {
			if err == nil {
				err = io.EOF
			}
			break
		}
	}
	return n, err
}

// ReadBatch fills every range with ReadFull's rules — a range past the remote
// end fails with io.ErrUnexpectedEOF. The ranges are packed in order into
// OpReadV requests of at most maxReadV bytes each (a larger range is split
// across requests), clientMaxInflightSegments of them in flight at once, and
// each reply lands straight in its ranges: a batch costs one round trip per
// MiB, not one per range. A server error fails the batch (ErrRemoteIO for a
// read fault) and leaves the client usable.
func (f *RemoteFile) ReadBatch(rs []backend.Range) error {
	pl := f.c.getPlan()
	defer f.c.putPlan(pl)
	for _, r := range rs {
		if r.Off < 0 {
			return ErrBadRequest
		}
		pl.add(r.P, r.Off)
	}
	if err := f.read(pl.reqs); err != nil {
		return err
	}
	for _, rv := range pl.reqs {
		if rv.got < rv.want {
			return io.ErrUnexpectedEOF
		}
	}
	return nil
}

// readPlan is a read's OpReadV requests: its ranges packed in order, at most
// maxReadV bytes and maxReadVRecords records to a request.
type readPlan struct{ reqs []readVReq }

// readVReq is one OpReadV request: its records, the pieces of the caller's
// ranges its reply fills (want bytes in all), and the bytes the reply
// brought (got).
type readVReq struct {
	recs []byte
	vec  [][]byte
	want int
	got  int
}

// add appends the range p at off to the plan, opening a request whenever the
// last one is full.
func (pl *readPlan) add(p []byte, off int64) {
	for len(p) > 0 {
		k := len(pl.reqs) - 1
		if k < 0 || pl.reqs[k].want == maxReadV || len(pl.reqs[k].vec) == maxReadVRecords {
			pl.next()
			k++
		}
		rv := &pl.reqs[k]
		n := min(len(p), maxReadV-rv.want)
		rv.recs = binary.BigEndian.AppendUint64(rv.recs, uint64(off))
		rv.recs = binary.BigEndian.AppendUint32(rv.recs, uint32(n))
		rv.vec = append(rv.vec, p[:n])
		rv.want += n
		p, off = p[n:], off+int64(n)
	}
}

// next opens an empty request, reusing the buffers a pooled plan's earlier
// request left behind.
func (pl *readPlan) next() {
	if len(pl.reqs) == cap(pl.reqs) {
		pl.reqs = append(pl.reqs, readVReq{})
		return
	}
	pl.reqs = pl.reqs[:len(pl.reqs)+1]
	rv := &pl.reqs[len(pl.reqs)-1]
	*rv = readVReq{recs: rv.recs[:0], vec: rv.vec[:0]}
}

// getPlan returns an empty pooled plan (by pointer so recycling does not
// allocate): a one-request read then allocates nothing for its plan.
func (c *Client) getPlan() *readPlan {
	if v := c.planPool.Get(); v != nil {
		return v.(*readPlan)
	}
	return new(readPlan)
}

// putPlan recycles pl, dropping its references to the caller's buffers.
func (c *Client) putPlan(pl *readPlan) {
	for i := range pl.reqs {
		clear(pl.reqs[i].vec)
	}
	pl.reqs = pl.reqs[:0]
	c.planPool.Put(pl)
}

// read sends a plan's requests, up to clientMaxInflightSegments of them in
// flight at once, and records each reply's length in its got; the first
// error in request order fails the read. A one-request read, the common case,
// calls readV directly and so allocates nothing.
func (f *RemoteFile) read(reqs []readVReq) error {
	if len(reqs) == 1 {
		return f.readV(&reqs[0])
	}
	errs := make([]error, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(clientMaxInflightSegments, len(reqs)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(reqs); i = int(next.Add(1)) - 1 {
				errs[i] = f.readV(&reqs[i])
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// readV sends one OpReadV request; a short reply means a range past the
// remote end.
func (f *RemoteFile) readV(rv *readVReq) error {
	if rv.want >= maxReadV/2 {
		f.c.growRcvbuf()
	}
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
	rv.got = got
	return nil
}

// WriteAt fails: exports are read-only.
func (f *RemoteFile) WriteAt([]byte, int64) (int, error) { return 0, ErrReadOnly }

// Truncate fails: exports are read-only.
func (f *RemoteFile) Truncate(int64) error { return ErrReadOnly }

// Size returns the size the open reply carried: an export does not change
// while open.
func (f *RemoteFile) Size() (int64, error) { return f.size, nil }

// Sync has nothing to flush.
func (f *RemoteFile) Sync() error { return nil }

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
	resp, err := f.c.roundTrip(req)
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
