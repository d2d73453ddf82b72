package nbd

// Tests for the transmission dispatch rule (a lone request runs on the
// connection's goroutine, a pipelining guest and every Flush are dispatched),
// the allocation bounds a peer can drive, and the client's fail-fast and
// request-splitting behaviour.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vmicache/internal/backend"
)

// appendRequest appends one 28-byte request header.
func appendRequest(b []byte, cmd uint16, handle, off uint64, length uint32) []byte {
	be := binary.BigEndian
	b = be.AppendUint32(b, requestMagic)
	b = be.AppendUint16(b, 0)
	b = be.AppendUint16(b, cmd)
	b = be.AppendUint64(b, handle)
	b = be.AppendUint64(b, off)
	return be.AppendUint32(b, length)
}

// readReply reads one simple-reply header.
func readReply(t *testing.T, r io.Reader) (handle uint64, code uint32) {
	t.Helper()
	var rep [16]byte
	if _, err := io.ReadFull(r, rep[:]); err != nil {
		t.Fatalf("reply header: %v", err)
	}
	if m := binary.BigEndian.Uint32(rep[0:]); m != simpleReplyMagic {
		t.Fatalf("reply magic %#x", m)
	}
	return binary.BigEndian.Uint64(rep[8:]), binary.BigEndian.Uint32(rep[4:])
}

// rawAttach dials an export and hands back the negotiated connection for
// hand-written requests; replies must be read through the returned reader.
func rawAttach(t *testing.T, addr, export string) (net.Conn, *bufio.Reader) {
	t.Helper()
	c, err := Dial(addr, export)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.conn.Close() })                 //nolint:errcheck
	c.conn.SetDeadline(time.Now().Add(30 * time.Second)) //nolint:errcheck // a hang fails, not stalls
	return c.conn, c.br
}

// hookDevice is a memDevice whose calls can be delayed, blocked and observed.
type hookDevice struct {
	memDevice
	readDelay time.Duration
	onRead    func() // called inside ReadAt, before the read
	onSync    func() // called inside Sync
}

func (d *hookDevice) ReadAt(p []byte, off int64) (int, error) {
	if d.onRead != nil {
		d.onRead()
	}
	time.Sleep(d.readDelay)
	return d.memDevice.ReadAt(p, off)
}

func (d *hookDevice) Sync() error {
	if d.onSync != nil {
		d.onSync()
	}
	return d.memDevice.Sync()
}

func newHookDevice(t *testing.T, size int64, seed int64) (*hookDevice, []byte) {
	t.Helper()
	content := make([]byte, size)
	rand.New(rand.NewSource(seed)).Read(content)
	mf := backend.NewMemFileSize(size)
	if err := backend.WriteFull(mf, content, 0); err != nil {
		t.Fatal(err)
	}
	return &hookDevice{memDevice: memDevice{mf, size}}, content
}

// A pipelining guest keeps its overlap: 8 reads written back-to-back against
// a device that takes 2 ms per read finish in under 4 read latencies, and
// every reply — in whatever order — carries its own handle's bytes.
func TestPipelinedReadsOverlap(t *testing.T) {
	const depth, blk = 8, 4096
	dev, content := newHookDevice(t, depth*blk, 3)
	dev.readDelay = 2 * time.Millisecond
	srv, addr := newTestServer(t)
	srv.AddExport(Export{Name: "d", Device: dev})
	conn, br := rawAttach(t, addr, "d")

	// One lone read is the yardstick (it includes the sleep's overshoot).
	payload := make([]byte, blk)
	start := time.Now()
	if _, err := conn.Write(appendRequest(nil, cmdRead, 100, 0, blk)); err != nil {
		t.Fatal(err)
	}
	if h, code := readReply(t, br); h != 100 || code != 0 {
		t.Fatalf("lone reply: handle %d code %d", h, code)
	}
	if _, err := io.ReadFull(br, payload); err != nil {
		t.Fatal(err)
	}
	lone := time.Since(start)

	var reqs []byte
	for i := 0; i < depth; i++ {
		reqs = appendRequest(reqs, cmdRead, uint64(i), uint64(i*blk), blk)
	}
	start = time.Now()
	if _, err := conn.Write(reqs); err != nil {
		t.Fatal(err)
	}
	seen := make(map[uint64]bool)
	for i := 0; i < depth; i++ {
		h, code := readReply(t, br)
		if code != 0 || h >= depth || seen[h] {
			t.Fatalf("reply %d: handle %d code %d (seen %v)", i, h, code, seen)
		}
		seen[h] = true
		if _, err := io.ReadFull(br, payload); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(payload, content[h*blk:(h+1)*blk]) {
			t.Fatalf("handle %d: payload is not its block", h)
		}
	}
	if took := time.Since(start); took >= 4*lone {
		t.Fatalf("%d pipelined reads took %v, a lone read %v: no overlap", depth, took, lone)
	}
}

// A Flush never runs on the connection's goroutine: a read that arrives
// while the device's Sync is still blocked is answered first.
func TestReadOvertakesFlush(t *testing.T) {
	dev, content := newHookDevice(t, 8192, 5)
	entered, release := make(chan struct{}), make(chan struct{})
	dev.onSync = func() {
		close(entered)
		<-release
	}
	srv, addr := newTestServer(t)
	srv.AddExport(Export{Name: "d", Device: dev})
	conn, br := rawAttach(t, addr, "d")

	if _, err := conn.Write(appendRequest(nil, cmdFlush, 1, 0, 0)); err != nil {
		t.Fatal(err)
	}
	<-entered
	if _, err := conn.Write(appendRequest(nil, cmdRead, 2, 4096, 4096)); err != nil {
		t.Fatal(err)
	}
	if h, code := readReply(t, br); h != 2 || code != 0 {
		t.Fatalf("first reply: handle %d code %d, want the read (2)", h, code)
	}
	payload := make([]byte, 4096)
	if _, err := io.ReadFull(br, payload); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(payload, content[4096:]) {
		t.Fatal("read payload mismatch")
	}
	close(release)
	if h, code := readReply(t, br); h != 1 || code != 0 {
		t.Fatalf("second reply: handle %d code %d, want the flush (1)", h, code)
	}
}

// goid names the calling goroutine (parsed from its stack header).
func goid() string {
	var b [64]byte
	f := bytes.Fields(b[:runtime.Stack(b[:], false)])
	return string(f[1])
}

// The dispatch rule itself: a serial guest's reads all execute on one
// goroutine (the connection's), a flush and a pipelined burst do not.
func TestLoneRequestsRunInline(t *testing.T) {
	dev, _ := newHookDevice(t, 1<<16, 7)
	var mu sync.Mutex
	readers := make(map[string]int)
	var syncer string
	dev.onRead = func() {
		mu.Lock()
		readers[goid()]++
		mu.Unlock()
	}
	dev.onSync = func() {
		mu.Lock()
		syncer = goid()
		mu.Unlock()
	}
	srv, addr := newTestServer(t)
	srv.AddExport(Export{Name: "d", Device: dev})
	c, err := Dial(addr, "d")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close() //nolint:errcheck
	buf := make([]byte, 4096)
	for i := 0; i < 100; i++ {
		if _, err := c.ReadAt(buf, int64(i%16)*4096); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	if len(readers) != 1 || readers[syncer] != 0 {
		t.Fatalf("serial reads ran on %d goroutines %v (flush on %s)", len(readers), readers, syncer)
	}
	mu.Unlock()

	// Eight requests in one segment: at most the last can find the stream
	// empty, and by then seven are in flight, so none runs inline.
	dev.readDelay = time.Millisecond
	var reqs []byte
	for i := 0; i < 8; i++ {
		reqs = appendRequest(reqs, cmdRead, uint64(i), 0, 512)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, err := c.conn.Write(reqs); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		readReply(t, c.br)
		if _, err := c.br.Discard(512); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(readers) < 8 {
		t.Fatalf("pipelined burst ran on %d goroutines, want the inline one plus 8", len(readers))
	}
}

// 10,000 serial round trips through the inline path stay byte-identical:
// mixed reads and writes against a shadow copy, and reads of a read-only
// export served by sendfile.
func TestLoneRequestByteIdentity(t *testing.T) {
	const rounds = 10000
	t.Run("read-write", func(t *testing.T) {
		const size = 1 << 20
		dev, shadow := newHookDevice(t, size, 11)
		srv, addr := newTestServer(t)
		srv.AddExport(Export{Name: "d", Device: dev})
		c, err := Dial(addr, "d")
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close() //nolint:errcheck
		rnd := rand.New(rand.NewSource(12))
		buf := make([]byte, 64<<10)
		for i := 0; i < rounds; i++ {
			n := 1 + rnd.Intn(len(buf))
			if i%8 != 0 {
				n = 1 + rnd.Intn(8192) // mostly small, like a guest
			}
			off := rnd.Int63n(size - int64(n) + 1)
			if i%3 == 0 {
				rnd.Read(buf[:n])
				copy(shadow[off:], buf[:n])
				if _, err := c.WriteAt(buf[:n], off); err != nil {
					t.Fatalf("round %d write: %v", i, err)
				}
				continue
			}
			if _, err := c.ReadAt(buf[:n], off); err != nil {
				t.Fatalf("round %d read: %v", i, err)
			}
			if !bytes.Equal(buf[:n], shadow[off:off+int64(n)]) {
				t.Fatalf("round %d: read (%d,%d) mismatch", i, off, n)
			}
		}
		if got := srv.ReadOps.Load() + srv.WriteOps.Load(); got != rounds {
			t.Fatalf("server counted %d ops, want %d", got, rounds)
		}
	})
	t.Run("zero-copy", func(t *testing.T) {
		const size = 1 << 20
		img, pat := newPublishedImage(t, size, 12, 13)
		srv, addr := newTestServer(t)
		srv.AddExport(Export{Name: "pub", Device: chainDevice{img}, ReadOnly: true})
		c, err := Dial(addr, "pub")
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close() //nolint:errcheck
		rnd := rand.New(rand.NewSource(14))
		buf := make([]byte, 64<<10)
		for i := 0; i < rounds; i++ {
			n := 1 + rnd.Intn(len(buf))
			off := rnd.Int63n(size - int64(n) + 1)
			if _, err := c.ReadAt(buf[:n], off); err != nil {
				t.Fatalf("round %d read: %v", i, err)
			}
			if !bytes.Equal(buf[:n], pat[off:off+int64(n)]) {
				t.Fatalf("round %d: read (%d,%d) mismatch", i, off, n)
			}
		}
		if srv.ZeroCopyFallbacks.Load() != 0 || srv.ZeroCopySegments.Load() < rounds {
			t.Fatalf("extent path: %d segments, %d fallbacks over %d reads",
				srv.ZeroCopySegments.Load(), srv.ZeroCopyFallbacks.Load(), rounds)
		}
	})
}

// Shutdown waits for a request that is executing on the connection's own
// goroutine, exactly as it does for a dispatched one.
func TestShutdownDrainsInlineRequest(t *testing.T) {
	dev, content := newHookDevice(t, 4096, 17)
	entered, release := make(chan struct{}), make(chan struct{})
	dev.onRead = func() {
		close(entered)
		<-release
	}
	srv, addr := newTestServer(t)
	srv.AddExport(Export{Name: "d", Device: dev})
	c, err := Dial(addr, "d")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close() //nolint:errcheck

	got := make([]byte, 4096)
	readErr := make(chan error, 1)
	go func() {
		_, err := c.ReadAt(got, 0)
		readErr <- err
	}()
	<-entered
	shut := make(chan error, 1)
	go func() { shut <- srv.Shutdown(20 * time.Second) }()
	for draining := false; !draining; time.Sleep(time.Millisecond) {
		srv.mu.Lock()
		draining = srv.draining
		srv.mu.Unlock()
	}
	if n := srv.activeReqs.Load(); n != 1 {
		t.Fatalf("active requests = %d while the inline read is blocked", n)
	}
	select {
	case err := <-shut:
		t.Fatalf("Shutdown returned (%v) with a request in flight", err)
	default:
	}
	close(release)
	if err := <-readErr; err != nil {
		t.Fatalf("read cut off by Shutdown: %v", err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("drained read returned wrong bytes")
	}
	if err := <-shut; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// fakeServer negotiates like the real server, then hands the connection to
// script; it serves one connection.
func fakeServer(t *testing.T, script func(conn net.Conn, br *bufio.Reader)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() }) //nolint:errcheck
	srv := NewServer(nil)
	srv.AddExport(Export{Name: "x", Device: memDevice{backend.NewMemFileSize(1 << 20), 1 << 20}})
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close() //nolint:errcheck
		br := bufio.NewReader(conn)
		if _, err := srv.handshake(conn, br); err != nil {
			t.Errorf("fake server handshake: %v", err)
			return
		}
		script(conn, br)
	}()
	return ln.Addr().String()
}

// appendReply appends one simple-reply header.
func appendReply(b []byte, magic, code uint32, handle uint64) []byte {
	b = binary.BigEndian.AppendUint32(b, magic)
	b = binary.BigEndian.AppendUint32(b, code)
	return binary.BigEndian.AppendUint64(b, handle)
}

// A steady-state 64 KiB read allocates nothing in the client (measured
// against a peer that allocates nothing itself) and at most 4 objects per
// round trip against the real in-process server.
func TestReadAllocs(t *testing.T) {
	const n = 64 << 10
	buf := make([]byte, n)

	addr := fakeServer(t, func(conn net.Conn, br *bufio.Reader) {
		var req [28]byte
		out := make([]byte, 16+n)
		for {
			if _, err := io.ReadFull(br, req[:]); err != nil {
				return
			}
			appendReply(out[:0], simpleReplyMagic, 0, binary.BigEndian.Uint64(req[8:]))
			if _, err := conn.Write(out); err != nil {
				return
			}
		}
	})
	c, err := Dial(addr, "x")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close() //nolint:errcheck
	read := func(c *Client) func() {
		return func() {
			if _, err := c.ReadAt(buf, 4096); err != nil {
				t.Fatal(err)
			}
		}
	}
	if a := testing.AllocsPerRun(200, read(c)); a != 0 {
		t.Errorf("client side: %.2f allocs per 64 KiB read, want 0", a)
	}

	srv, raddr := newTestServer(t)
	srv.AddExport(Export{Name: "d", Device: memDevice{backend.NewMemFileSize(1 << 20), 1 << 20}})
	rc, err := Dial(raddr, "d")
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close() //nolint:errcheck
	if a := testing.AllocsPerRun(200, read(rc)); a > 4 {
		t.Errorf("client + server: %.2f allocs per 64 KiB read, want ≤ 4", a)
	}
}

// Requests the server refuses cost it no length-sized buffer, and a refused
// write's payload is skipped so the next request still parses.
func TestRefusedRequestsAllocateNothing(t *testing.T) {
	const size = 1 << 20
	const wlen = 4 << 20 // 16 of these in a length-sized buffer each would be 64 MiB
	payload := make([]byte, wlen)
	for _, tc := range []struct {
		name     string
		readOnly bool
		cmd      uint16
		off      uint64
		length   uint32
		want     uint32
	}{
		{"read past the end", false, cmdRead, size - 512, maxRequestLen, nbdEINVAL},
		{"read at a wrapping offset", false, cmdRead, 1<<63 + 512, 4096, nbdEINVAL},
		{"write to a read-only export", true, cmdWrite, 0, wlen, nbdEPERM},
		{"write past the end", false, cmdWrite, size - 512, wlen, nbdEINVAL},
		{"write at a wrapping offset", false, cmdWrite, 1<<64 - 512, 4096, nbdEINVAL},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dev, content := newHookDevice(t, size, 19)
			srv, addr := newTestServer(t)
			srv.AddExport(Export{Name: "d", Device: dev, ReadOnly: tc.readOnly})
			conn, br := rawAttach(t, addr, "d")

			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := uint64(0); i < maxConcurrentPerConn; i++ {
				if _, err := conn.Write(appendRequest(nil, tc.cmd, i, tc.off, tc.length)); err != nil {
					t.Fatal(err)
				}
				if tc.cmd == cmdWrite {
					if _, err := conn.Write(payload[:tc.length]); err != nil {
						t.Fatal(err)
					}
				}
				if h, code := readReply(t, br); h != i || code != tc.want {
					t.Fatalf("request %d: handle %d code %d, want code %d", i, h, code, tc.want)
				}
			}
			runtime.ReadMemStats(&after)
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
				t.Errorf("16 refused requests allocated %d bytes", grew)
			}

			// The stream is still in step.
			if _, err := conn.Write(appendRequest(nil, cmdRead, 99, 8192, 4096)); err != nil {
				t.Fatal(err)
			}
			if h, code := readReply(t, br); h != 99 || code != 0 {
				t.Fatalf("follow-up read: handle %d code %d", h, code)
			}
			got := make([]byte, 4096)
			if _, err := io.ReadFull(br, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, content[8192:8192+4096]) {
				t.Fatal("follow-up read returned wrong bytes")
			}
		})
	}
}

// Once the reply stream cannot be trusted the client stays broken: the next
// call returns the same error without touching the (desynchronised) stream.
// The malformed-reply scripts leave a well-formed reply for handle 2 behind
// the damage: a client that carried on would parse it and succeed.
func TestBrokenClientFailsFast(t *testing.T) {
	ok2 := appendReply(nil, simpleReplyMagic, 0, 2)
	for _, tc := range []struct {
		name  string
		reply []byte // sent after the first request; then the peer closes
	}{
		{"server closes mid-payload", append(appendReply(nil, simpleReplyMagic, 0, 1), make([]byte, 100)...)},
		{"short reply header", appendReply(nil, simpleReplyMagic, 0, 1)[:9]},
		{"bad magic", append(appendReply(nil, 0xdeadbeef, 0, 1), ok2...)},
		{"handle mismatch", append(appendReply(nil, simpleReplyMagic, 0, 7), ok2...)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addr := fakeServer(t, func(conn net.Conn, br *bufio.Reader) {
				var req [28]byte
				if _, err := io.ReadFull(br, req[:]); err != nil {
					return
				}
				conn.Write(tc.reply) //nolint:errcheck // the client's error is the test
			})
			c, err := Dial(addr, "x")
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close() //nolint:errcheck
			buf := make([]byte, 4096)
			_, first := c.ReadAt(buf, 0)
			if first == nil || errors.Unwrap(first) == nil {
				t.Fatalf("first read: %v, want a wrapped transport error", first)
			}
			if err := c.Sync(); err != first {
				t.Fatalf("Sync after break: %v, want %v", err, first)
			}
			if _, err := c.WriteAt(buf, 0); err != first {
				t.Fatalf("WriteAt after break: %v, want %v", err, first)
			}
		})
	}

	// A server-side verdict is not a break.
	srv, addr := newTestServer(t)
	srv.AddExport(Export{Name: "ro", Device: memDevice{backend.NewMemFileSize(4096), 4096}, ReadOnly: true})
	c, err := Dial(addr, "ro")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close() //nolint:errcheck
	if _, err := c.WriteAt(make([]byte, 512), 0); err == nil {
		t.Fatal("write to read-only export succeeded")
	}
	if _, err := c.ReadAt(make([]byte, 512), 0); err != nil {
		t.Fatalf("read after a refused write: %v", err)
	}
}

// stripeDevice serves and checks position-dependent content without storing
// it, so a transfer larger than one request needs no image-sized memory.
type stripeDevice struct {
	size     int64
	maxReq   atomic.Int64
	written  atomic.Int64
	mismatch atomic.Int64
}

func stripe(p []byte, off int64, check bool) (bad int64) {
	for i := 0; i+8 <= len(p); i += 8 {
		v := uint64(off+int64(i)) * 0x9e3779b97f4a7c15
		if !check {
			binary.LittleEndian.PutUint64(p[i:], v)
		} else if binary.LittleEndian.Uint64(p[i:]) != v {
			bad++
		}
	}
	return bad
}

func (d *stripeDevice) note(n int) {
	for {
		m := d.maxReq.Load()
		if int64(n) <= m || d.maxReq.CompareAndSwap(m, int64(n)) {
			return
		}
	}
}

func (d *stripeDevice) ReadAt(p []byte, off int64) (int, error) {
	d.note(len(p))
	stripe(p, off, false)
	return len(p), nil
}

func (d *stripeDevice) WriteAt(p []byte, off int64) (int, error) {
	d.note(len(p))
	d.mismatch.Add(stripe(p, off, true))
	d.written.Add(int64(len(p)))
	return len(p), nil
}

func (d *stripeDevice) Size() int64 { return d.size }
func (d *stripeDevice) Sync() error { return nil }

// A transfer longer than maxRequestLen is split into requests the server
// accepts instead of getting the connection dropped.
func TestClientSplitsOversizedTransfers(t *testing.T) {
	if testing.Short() {
		t.Skip("moves 2 × 32 MiB")
	}
	const n = maxRequestLen + 8192
	dev := &stripeDevice{size: 64 << 20}
	srv, addr := newTestServer(t)
	srv.AddExport(Export{Name: "d", Device: dev})
	c, err := Dial(addr, "d")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close() //nolint:errcheck

	buf := make([]byte, n)
	const off = 4096
	if got, err := c.ReadAt(buf, off); err != nil || got != n {
		t.Fatalf("ReadAt: %d, %v", got, err)
	}
	if bad := stripe(buf, off, true); bad != 0 {
		t.Fatalf("read: %d of %d words wrong", bad, n/8)
	}
	if got, err := c.WriteAt(buf, off); err != nil || got != n {
		t.Fatalf("WriteAt: %d, %v", got, err)
	}
	if dev.written.Load() != n || dev.mismatch.Load() != 0 {
		t.Fatalf("device saw %d bytes written, %d words wrong", dev.written.Load(), dev.mismatch.Load())
	}
	if m := dev.maxReq.Load(); m != maxRequestLen {
		t.Fatalf("largest request = %d, want %d", m, maxRequestLen)
	}
}
