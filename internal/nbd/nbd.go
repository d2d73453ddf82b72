// Package nbd implements a Network Block Device server (fixed-newstyle
// handshake) that exports VM image chains as block devices. It is this
// repository's stand-in for the hypervisor's virtual disk attach path: a
// real qemu or Linux kernel NBD client can connect to an export and boot
// from a base←cache←CoW chain, exercising exactly the I/O path §4.2
// describes for qemu-kvm's disk controller.
package nbd

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"vmicache/internal/metrics"
	"vmicache/internal/zerocopy"
)

// Protocol magics and constants (https://github.com/NetworkBlockDevice/nbd
// doc/proto.md).
const (
	nbdMagic         = 0x4e42444d41474943 // "NBDMAGIC"
	optMagic         = 0x49484156454f5054 // "IHAVEOPT"
	repMagic         = 0x3e889045565a9
	requestMagic     = 0x25609513
	simpleReplyMagic = 0x67446698

	flagFixedNewstyle = 1 << 0
	flagNoZeroes      = 1 << 1

	optExportName = 1
	optAbort      = 2
	optList       = 3

	repAck       = 1
	repServer    = 2
	repErrUnsup  = 0x80000001 | 0
	repFlagError = 1 << 31

	cmdRead  = 0
	cmdWrite = 1
	cmdDisc  = 2
	cmdFlush = 3
	cmdTrim  = 4

	transmissionFlagHasFlags  = 1 << 0
	transmissionFlagReadOnly  = 1 << 1
	transmissionFlagSendFlush = 1 << 2

	// Error codes (errno-style).
	nbdEPERM  = 1
	nbdEIO    = 5
	nbdEINVAL = 22

	// maxRequestLen bounds a single I/O request.
	maxRequestLen = 32 << 20
)

// Device is the block device surface an export serves.
type Device interface {
	io.ReaderAt
	io.WriterAt
	Size() int64
	Sync() error
}

// Export describes one served device.
type Export struct {
	Name     string
	Device   Device
	ReadOnly bool
}

// Server serves NBD exports over TCP.
type Server struct {
	mu       sync.Mutex
	exports  map[string]Export
	ln       net.Listener
	closed   bool
	draining bool
	conns    map[net.Conn]struct{}
	logf     func(format string, args ...any)

	// activeReqs counts device requests still executing, on a connection's
	// own goroutine or a dispatched one, so Shutdown can drain them before
	// tearing connections down.
	activeReqs atomic.Int64

	// bufPool recycles transmission payload buffers (read replies and
	// inbound write payloads) across requests, so a busy device stream
	// allocates no payload buffers in steady state. Requests larger than
	// maxPooledBuf fall back to plain allocation.
	bufPool sync.Pool

	// ZeroCopy serves reads of read-only exports whose Device implements
	// zerocopy.ExtentSource (a published qcow chain over an os-backed
	// container) by sendfile(2) from the container file instead of a
	// read-into-buffer copy. Reads the extent export refuses — compressed
	// clusters, partially-valid sub-clusters, unallocated runs — fall back
	// to the copy path per request. Set before Listen.
	ZeroCopy bool

	// Stats
	ReadOps      atomic.Int64
	WriteOps     atomic.Int64
	FlushOps     atomic.Int64
	BytesRead    atomic.Int64
	BytesWritten atomic.Int64

	// Zero-copy serve effectiveness: bytes and sendfile segments shipped by
	// the extent path, and reads that wanted it but used the copy path.
	ZeroCopyBytes     atomic.Int64
	ZeroCopySegments  atomic.Int64
	ZeroCopyFallbacks atomic.Int64

	// latency records per-request device-call-to-reply durations (ns).
	latency metrics.AtomicHistogram
}

// RegisterMetrics exposes the server's counters on a registry.
func (s *Server) RegisterMetrics(r *metrics.Registry, labels metrics.Labels) {
	r.CounterFunc("vmicache_nbd_read_ops_total",
		"NBD read commands handled.", labels, s.ReadOps.Load)
	r.CounterFunc("vmicache_nbd_write_ops_total",
		"NBD write commands handled.", labels, s.WriteOps.Load)
	r.CounterFunc("vmicache_nbd_flush_ops_total",
		"NBD flush commands handled.", labels, s.FlushOps.Load)
	r.CounterFunc("vmicache_nbd_bytes_read_total",
		"Bytes served to NBD clients by read commands.", labels, s.BytesRead.Load)
	r.CounterFunc("vmicache_nbd_bytes_written_total",
		"Bytes applied from NBD clients by write commands.", labels, s.BytesWritten.Load)
	r.GaugeFunc("vmicache_nbd_active_requests",
		"Device requests currently executing.", labels, s.activeReqs.Load)
	r.RegisterHistogram("vmicache_nbd_request_ns",
		"NBD request duration, device call through reply.", labels, &s.latency)
	r.CounterFunc("vmicache_nbd_zerocopy_bytes_total",
		"Read bytes served via the sendfile extent path.", labels, s.ZeroCopyBytes.Load)
	r.CounterFunc("vmicache_nbd_zerocopy_segments_total",
		"Sendfile segments shipped by the extent path.", labels, s.ZeroCopySegments.Load)
	r.CounterFunc("vmicache_nbd_zerocopy_fallbacks_total",
		"Reads that wanted zero-copy but used the copy path.", labels, s.ZeroCopyFallbacks.Load)
}

// maxConcurrentPerConn bounds how many in-flight requests one connection may
// have dispatched at once.
const maxConcurrentPerConn = 16

// connBufSize sizes a connection's request reader: a request header plus a
// 4 KiB write payload arrive in one receive; a longer payload's remainder is
// read straight into its pooled buffer.
const connBufSize = 28 + 4<<10

// maxPooledBuf caps the size of payload buffers kept in the pool: typical
// guest I/O is well under 1 MiB, and pooling the occasional maxRequestLen
// giant would pin tens of megabytes per idle connection.
const maxPooledBuf = 1 << 20

// getBuf returns a pooled payload buffer of length n (by pointer so
// recycling does not allocate a box per put).
func (s *Server) getBuf(n uint32) *[]byte {
	if v := s.bufPool.Get(); v != nil {
		bp := v.(*[]byte)
		if cap(*bp) >= int(n) {
			*bp = (*bp)[:n]
			return bp
		}
		// Too small for this request: drop it and allocate bigger; the
		// pool re-fills with right-sized buffers as they are returned.
	}
	b := make([]byte, n)
	return &b
}

func (s *Server) putBuf(bp *[]byte) {
	if cap(*bp) <= maxPooledBuf {
		s.bufPool.Put(bp)
	}
}

// replyScratch is the per-connection reply assembly state, guarded by the
// connection's write mutex while in use. arr holds the stable header+payload
// iovec; wip is the consumable copy WriteTo advances, a field so no slice
// header escapes per reply.
type replyScratch struct {
	hdr [16]byte
	arr [2][]byte
	wip net.Buffers
}

// scratchPool recycles replyScratch across connections.
var scratchPool = sync.Pool{New: func() any { return new(replyScratch) }}

func getReplyScratch() *replyScratch { return scratchPool.Get().(*replyScratch) }

func putReplyScratch(rs *replyScratch) {
	// Drop payload references so the pool does not pin reply buffers.
	rs.arr[0], rs.arr[1] = nil, nil
	rs.wip = nil
	scratchPool.Put(rs)
}

// extsPool recycles extent slices for zero-copy read translation (one live
// slice per in-flight zero-copy read).
var extsPool = sync.Pool{New: func() any { return new([]zerocopy.FileExtent) }}

func getExtents() *[]zerocopy.FileExtent { return extsPool.Get().(*[]zerocopy.FileExtent) }

func putExtents(ep *[]zerocopy.FileExtent) {
	for i := range *ep {
		(*ep)[i] = zerocopy.FileExtent{} // do not pin descriptors in the pool
	}
	extsPool.Put(ep)
}

// NewServer returns an empty server.
func NewServer(logf func(format string, args ...any)) *Server {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &Server{
		exports: make(map[string]Export),
		conns:   make(map[net.Conn]struct{}),
		logf:    logf,
	}
}

// AddExport registers (or replaces) an export.
func (s *Server) AddExport(e Export) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.exports[e.Name] = e
}

// RemoveExport unregisters an export; running connections are unaffected.
func (s *Server) RemoveExport(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.exports, name)
}

// exportNames lists registered exports.
func (s *Server) exportNames() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.exports))
	for n := range s.exports {
		names = append(names, n)
	}
	return names
}

// Listen binds addr and starts accepting; returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			s.mu.Lock()
			if s.closed || s.draining {
				s.mu.Unlock()
				conn.Close() //nolint:errcheck
				return
			}
			s.conns[conn] = struct{}{}
			s.mu.Unlock()
			go s.serveConn(conn)
		}
	}()
	return ln.Addr().String(), nil
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
// new connections), in-flight device requests get up to drain to complete and
// write their replies, then all connections are closed. Requests still
// running at the deadline are cut off by the connection close.
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
	for s.activeReqs.Load() > 0 && time.Now().Before(deadline) {
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

func (s *Server) serveConn(conn net.Conn) {
	defer func() {
		conn.Close() //nolint:errcheck
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	// One buffered reader for the whole connection: a client's handshake
	// (flags + option in one write) and each request cost one receive.
	br := bufio.NewReaderSize(conn, connBufSize)
	exp, err := s.handshake(conn, br)
	if err != nil {
		if !errors.Is(err, io.EOF) && !errors.Is(err, errAborted) {
			s.logf("nbd: handshake: %v", err)
		}
		return
	}
	// net.ErrClosed is our own Close/Shutdown (or a failed reply, already
	// logged) cutting the read short, not something the peer did.
	if err := s.transmission(conn, br, exp); err != nil && !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
		s.logf("nbd: transmission: %v", err)
	}
}

var errAborted = errors.New("nbd: client aborted negotiation")

// handshake performs the fixed-newstyle negotiation and returns the chosen
// export.
func (s *Server) handshake(conn net.Conn, br *bufio.Reader) (Export, error) {
	be := binary.BigEndian
	var greet [18]byte
	be.PutUint64(greet[0:], nbdMagic)
	be.PutUint64(greet[8:], optMagic)
	be.PutUint16(greet[16:], flagFixedNewstyle|flagNoZeroes)
	if _, err := conn.Write(greet[:]); err != nil {
		return Export{}, err
	}
	var cflags [4]byte
	if _, err := io.ReadFull(br, cflags[:]); err != nil {
		return Export{}, err
	}
	noZeroes := be.Uint32(cflags[:])&flagNoZeroes != 0

	for {
		var hdr [16]byte
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return Export{}, err
		}
		if be.Uint64(hdr[0:]) != optMagic {
			return Export{}, fmt.Errorf("nbd: bad option magic %#x", be.Uint64(hdr[0:]))
		}
		opt := be.Uint32(hdr[8:])
		length := be.Uint32(hdr[12:])
		if length > 4096 {
			return Export{}, fmt.Errorf("nbd: oversized option (%d bytes)", length)
		}
		data := make([]byte, length)
		if _, err := io.ReadFull(br, data); err != nil {
			return Export{}, err
		}

		switch opt {
		case optExportName:
			name := string(data)
			s.mu.Lock()
			exp, ok := s.exports[name]
			s.mu.Unlock()
			if !ok {
				// EXPORT_NAME has no error reply; the server
				// must drop the connection.
				return Export{}, fmt.Errorf("nbd: unknown export %q", name)
			}
			tflags := uint16(transmissionFlagHasFlags | transmissionFlagSendFlush)
			if exp.ReadOnly {
				tflags |= transmissionFlagReadOnly
			}
			reply := make([]byte, 10, 10+124)
			be.PutUint64(reply[0:], uint64(exp.Device.Size()))
			be.PutUint16(reply[8:], tflags)
			if !noZeroes {
				reply = append(reply, make([]byte, 124)...)
			}
			if _, err := conn.Write(reply); err != nil {
				return Export{}, err
			}
			return exp, nil

		case optAbort:
			s.optReply(conn, opt, repAck, nil) //nolint:errcheck // client is leaving
			return Export{}, errAborted

		case optList:
			for _, name := range s.exportNames() {
				payload := make([]byte, 4+len(name))
				be.PutUint32(payload, uint32(len(name)))
				copy(payload[4:], name)
				if err := s.optReply(conn, opt, repServer, payload); err != nil {
					return Export{}, err
				}
			}
			if err := s.optReply(conn, opt, repAck, nil); err != nil {
				return Export{}, err
			}

		default:
			if err := s.optReply(conn, opt, repErrUnsup|repFlagError, nil); err != nil {
				return Export{}, err
			}
		}
	}
}

func (s *Server) optReply(conn net.Conn, opt, typ uint32, payload []byte) error {
	be := binary.BigEndian
	hdr := make([]byte, 20)
	be.PutUint64(hdr[0:], repMagic)
	be.PutUint32(hdr[8:], opt)
	be.PutUint32(hdr[12:], typ)
	be.PutUint32(hdr[16:], uint32(len(payload)))
	if _, err := conn.Write(hdr); err != nil {
		return err
	}
	if len(payload) > 0 {
		_, err := conn.Write(payload)
		return err
	}
	return nil
}

// transmission runs the I/O phase until disconnect. Requests — and write
// payloads, which share the stream — are parsed sequentially off one buffered
// reader. A lone request (nothing dispatched on this connection, nothing
// buffered behind it) is a guest with one request in flight: its Read or
// Write runs right here and the reply leaves from this goroutine. Anything
// else — a second request already waiting (the guest is pipelining) or any
// Flush (an fsync must not stall the requests behind it) — is dispatched to a
// goroutine, bounded per connection, so device I/O and replies overlap and
// may complete out of order. Replies identify their request by NBD handle;
// the reply header and read payload leave in ONE vectored write under a
// per-connection write mutex — no payload copy, no second syscall.
func (s *Server) transmission(conn net.Conn, br *bufio.Reader, exp Export) error {
	be := binary.BigEndian
	var wmu sync.Mutex

	// Per-connection reply scratch, guarded by wmu and recycled across
	// connections (the same lifetime discipline as rblock's replyWriter
	// buffers): a churn of short-lived guest attaches allocates no reply
	// scratch in steady state. Deferred before wg.Wait so it runs after it:
	// dispatched requests still replying at disconnect own the scratch.
	rs := getReplyScratch()
	defer putReplyScratch(rs)

	var wg sync.WaitGroup
	defer wg.Wait()
	sem := make(chan struct{}, maxConcurrentPerConn)

	// zcSrc is non-nil when reads may try the sendfile extent path: the
	// export must be immutable (frozen cluster mappings are what make the
	// exported offsets stable) and its device must offer extent export.
	var zcSrc zerocopy.ExtentSource
	if s.ZeroCopy && exp.ReadOnly {
		zcSrc, _ = exp.Device.(zerocopy.ExtentSource)
	}

	// reply writes one response frame (with optional payload) atomically;
	// on error it tears the connection down to unblock the request reader.
	reply := func(handle uint64, nbdErr uint32, payload []byte) {
		wmu.Lock()
		be.PutUint32(rs.hdr[0:], simpleReplyMagic)
		be.PutUint32(rs.hdr[4:], nbdErr)
		be.PutUint64(rs.hdr[8:], handle)
		var err error
		if len(payload) > 0 {
			rs.arr[0], rs.arr[1] = rs.hdr[:], payload
			rs.wip = rs.arr[:]
			_, err = rs.wip.WriteTo(conn)
		} else {
			_, err = conn.Write(rs.hdr[:])
		}
		wmu.Unlock()
		if err != nil {
			s.logf("nbd: reply write: %v", err)
			conn.Close() //nolint:errcheck
		}
	}

	// replyExtents answers a read by sendfile from the container extents the
	// export names for it — no user-space copy — or reports false and the
	// caller copies. The whole send holds wmu: NBD simple replies are not
	// resumable, so a mid-payload failure can only end in connection teardown
	// anyway.
	replyExtents := func(handle, offset uint64, length uint32) bool {
		ep := getExtents()
		exts, ok := zcSrc.PlainExtents(int64(offset), int64(length), (*ep)[:0])
		*ep = exts
		defer putExtents(ep)
		if !ok {
			s.ZeroCopyFallbacks.Add(1)
			return false
		}
		s.count(cmdRead, length)
		s.ZeroCopyBytes.Add(int64(length))
		s.ZeroCopySegments.Add(int64(len(exts)))
		wmu.Lock()
		be.PutUint32(rs.hdr[0:], simpleReplyMagic)
		be.PutUint32(rs.hdr[4:], 0)
		be.PutUint64(rs.hdr[8:], handle)
		_, err := conn.Write(rs.hdr[:])
		for _, e := range exts {
			if err != nil {
				break
			}
			_, err = zerocopy.Send(conn, e.F, e.Off, e.Len)
		}
		wmu.Unlock()
		if err != nil {
			s.logf("nbd: zero-copy reply: %v", err)
			conn.Close() //nolint:errcheck
		}
		return true
	}

	// serve executes one validated request against the device and replies,
	// on this goroutine or a dispatched one. bp is a write's payload.
	serve := func(cmd uint16, handle, offset uint64, length uint32, bp *[]byte) {
		start := time.Now()
		defer func() {
			s.latency.Observe(time.Since(start).Nanoseconds())
			s.activeReqs.Add(-1)
		}()
		if cmd == cmdRead && zcSrc != nil && length > 0 && replyExtents(handle, offset, length) {
			return
		}
		var err error
		var payload []byte
		switch cmd {
		case cmdRead:
			bp = s.getBuf(length)
			payload = *bp
			_, err = exp.Device.ReadAt(payload, int64(offset))
		case cmdWrite:
			_, err = exp.Device.WriteAt(*bp, int64(offset))
		case cmdFlush:
			err = exp.Device.Sync()
		}
		if err != nil {
			s.count(cmd, 0)
			reply(handle, nbdEIO, nil)
		} else {
			s.count(cmd, length)
			reply(handle, 0, payload)
		}
		if bp != nil {
			s.putBuf(bp) // reply copied a read's payload onto the wire
		}
	}

	var hdr [28]byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return err
		}
		if be.Uint32(hdr[0:]) != requestMagic {
			return fmt.Errorf("nbd: bad request magic %#x", be.Uint32(hdr[0:]))
		}
		cmd := be.Uint16(hdr[6:])
		handle := be.Uint64(hdr[8:])
		offset := be.Uint64(hdr[16:])
		length := be.Uint32(hdr[24:])
		if length > maxRequestLen {
			return fmt.Errorf("nbd: oversized request (%d bytes)", length)
		}

		switch cmd {
		case cmdDisc:
			return nil
		case cmdTrim:
			// Discard is advisory; acknowledge without action.
			reply(handle, 0, nil)
			continue
		}

		// Requests refused without touching the device are answered from
		// here, before any length-sized buffer exists: a peer cannot make
		// the server allocate for a request it will not execute.
		var refuse uint32
		size := uint64(exp.Device.Size())
		switch {
		case cmd != cmdRead && cmd != cmdWrite && cmd != cmdFlush:
			refuse = nbdEINVAL
		case cmd == cmdWrite && exp.ReadOnly:
			refuse = nbdEPERM
		case cmd != cmdFlush && (offset > size || uint64(length) > size-offset):
			refuse = nbdEINVAL
		}
		if refuse != 0 {
			if cmd == cmdWrite { // keep the stream in sync: skip the payload
				if _, err := br.Discard(int(length)); err != nil {
					return err
				}
			}
			s.count(cmd, 0)
			reply(handle, refuse, nil)
			continue
		}
		var bp *[]byte
		if cmd == cmdWrite {
			bp = s.getBuf(length)
			if _, err := io.ReadFull(br, *bp); err != nil {
				s.putBuf(bp)
				return err
			}
		}

		s.activeReqs.Add(1)
		if cmd != cmdFlush && len(sem) == 0 && br.Buffered() == 0 {
			serve(cmd, handle, offset, length, bp)
			continue
		}
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer func() {
				<-sem
				wg.Done()
			}()
			serve(cmd, handle, offset, length, bp)
		}()
	}
}

// count records one handled command and the payload bytes it moved.
func (s *Server) count(cmd uint16, moved uint32) {
	switch cmd {
	case cmdRead:
		s.ReadOps.Add(1)
		s.BytesRead.Add(int64(moved))
	case cmdWrite:
		s.WriteOps.Add(1)
		s.BytesWritten.Add(int64(moved))
	case cmdFlush:
		s.FlushOps.Add(1)
	}
}
