package zerocopy

import (
	"bytes"
	"crypto/rand"
	"errors"
	"io"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// writeTemp creates an os file with deterministic-random content.
func writeTemp(t testing.TB, n int) (*os.File, []byte) {
	t.Helper()
	data := make([]byte, n)
	if _, err := rand.Read(data); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "seg.bin")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() }) //nolint:errcheck // test teardown
	return f, data
}

// loopback returns a connected TCP pair on 127.0.0.1.
func loopback(t testing.TB) (client, server net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close() //nolint:errcheck // listener only needed for the dial
	type res struct {
		c   net.Conn
		err error
	}
	ch := make(chan res, 1)
	go func() {
		c, err := ln.Accept()
		ch <- res{c, err}
	}()
	cl, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	r := <-ch
	if r.err != nil {
		t.Fatal(r.err)
	}
	t.Cleanup(func() { cl.Close(); r.c.Close() }) //nolint:errcheck // test teardown
	return cl, r.c
}

// TestSendOverTCP proves byte-identity of the sendfile path against the
// source file, across offsets and lengths including EOF-adjacent tails.
func TestSendOverTCP(t *testing.T) {
	f, data := writeTemp(t, 1<<20)
	cases := []struct{ off, n int64 }{
		{0, 4096},
		{513, 100000},
		{1<<20 - 10, 10},
		{0, 1 << 20},
	}
	for _, tc := range cases {
		cl, srv := loopback(t)
		var got bytes.Buffer
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			io.Copy(&got, cl) //nolint:errcheck // bounded by the close below
		}()
		sent, err := send(srv, f, tc.off, tc.n)
		if err != nil {
			t.Fatalf("Send(off=%d, n=%d): %v", tc.off, tc.n, err)
		}
		if sent != tc.n {
			t.Fatalf("Send(off=%d, n=%d): sent %d", tc.off, tc.n, sent)
		}
		srv.Close() //nolint:errcheck // flushes EOF to the reader
		wg.Wait()
		if !bytes.Equal(got.Bytes(), data[tc.off:tc.off+tc.n]) {
			t.Fatalf("Send(off=%d, n=%d): payload mismatch", tc.off, tc.n)
		}
	}
}

// TestSendSlowReader drains the receiver a few KiB at a time so the socket
// buffer fills and sendfile returns short (EAGAIN) repeatedly; the stream
// must stay byte-identical, for one extent (Send) and for several, out of
// file order and overlapping, under one hold of the socket (SendExtents).
func TestSendSlowReader(t *testing.T) {
	const n = 512 << 10
	f, data := writeTemp(t, n)
	for _, tc := range []struct {
		name string
		exts []FileExtent
	}{
		{"one extent", []FileExtent{{F: f, Off: 0, Len: n}}},
		{"extents", []FileExtent{{F: f, Off: n / 2, Len: n / 2}, {F: f, Off: 7, Len: 100 << 10}, {F: f, Off: 50 << 10, Len: 3}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var want []byte
			for _, e := range tc.exts {
				want = append(want, data[e.Off:e.Off+e.Len]...)
			}
			cl, srv := loopback(t)
			if tcp, ok := srv.(*net.TCPConn); ok {
				tcp.SetWriteBuffer(8 << 10) //nolint:errcheck // best-effort squeeze
			}
			if tcp, ok := cl.(*net.TCPConn); ok {
				tcp.SetReadBuffer(8 << 10) //nolint:errcheck
			}
			got := make([]byte, 0, len(want))
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				buf := make([]byte, 3000) // odd size: forces misaligned short reads
				for {
					m, err := cl.Read(buf)
					got = append(got, buf[:m]...)
					if err != nil {
						return
					}
				}
			}()
			var sent int64
			var err error
			if len(tc.exts) == 1 {
				e := tc.exts[0]
				sent, err = send(srv, e.F, e.Off, e.Len)
			} else {
				sent, err = SendExtents(srv, tc.exts)
			}
			if err != nil || sent != int64(len(want)) {
				t.Fatalf("sent=%d of %d, err=%v", sent, len(want), err)
			}
			srv.Close() //nolint:errcheck
			wg.Wait()
			if !bytes.Equal(got, want) {
				t.Fatal("slow-reader stream mismatch")
			}
		})
	}
}

// TestSendFileShorterThanPromised must fail loudly (the frame header already
// announced the length) instead of silently truncating the stream.
func TestSendFileShorterThanPromised(t *testing.T) {
	f, _ := writeTemp(t, 4096)
	cl, srv := loopback(t)
	go io.Copy(io.Discard, cl) //nolint:errcheck // drain
	if _, err := send(srv, f, 0, 8192); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("want ErrUnexpectedEOF, got %v", err)
	}
}

// rateLimitedWriter accepts at most limit bytes per Write call — the
// "rate-limited pipe" of the fault-injection matrix. Crucially it returns
// SHORT COUNTS WITHOUT AN ERROR, the case a naive iovec-advance would
// mishandle by resuming at a stale buffer position.
type rateLimitedWriter struct {
	w     io.Writer
	limit int
	calls int
}

func (r *rateLimitedWriter) Write(p []byte) (int, error) {
	r.calls++
	if len(p) > r.limit {
		p = p[:r.limit]
	}
	return r.w.Write(p)
}

// TestCopySegmentShortWrites drives the portable fallback through a writer
// that takes 1000 bytes per call; the pread resume must track the bytes the
// writer actually accepted.
func TestCopySegmentShortWrites(t *testing.T) {
	f, data := writeTemp(t, 300<<10) // larger than one pooled scratch buffer
	var sink bytes.Buffer
	rl := &rateLimitedWriter{w: &sink, limit: 1000}
	n, err := CopySegment(rl, f, 777, 250<<10)
	if err != nil {
		t.Fatal(err)
	}
	if n != 250<<10 {
		t.Fatalf("copied %d", n)
	}
	if rl.calls < 250 {
		t.Fatalf("rate limit not exercised (%d calls)", rl.calls)
	}
	if !bytes.Equal(sink.Bytes(), data[777:777+250<<10]) {
		t.Fatal("short-write stream mismatch")
	}
}

// TestCopySegmentPastEOF mirrors the sendfile contract for the fallback.
func TestCopySegmentPastEOF(t *testing.T) {
	f, _ := writeTemp(t, 1000)
	var sink bytes.Buffer
	if _, err := CopySegment(&sink, f, 500, 1000); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("want ErrUnexpectedEOF, got %v", err)
	}
}

// TestSendNonSocket exercises the CopySegment degradation when the
// destination net.Conn is not a real socket (net.Pipe has no descriptor).
func TestSendNonSocket(t *testing.T) {
	f, data := writeTemp(t, 64<<10)
	cl, srv := net.Pipe()
	defer cl.Close()  //nolint:errcheck
	defer srv.Close() //nolint:errcheck
	var got bytes.Buffer
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 4096)
		for got.Len() < 64<<10 {
			m, err := cl.Read(buf)
			got.Write(buf[:m])
			if err != nil {
				return
			}
		}
	}()
	if _, err := send(srv, f, 0, 64<<10); err != nil {
		t.Fatal(err)
	}
	<-done
	if !bytes.Equal(got.Bytes(), data) {
		t.Fatal("pipe stream mismatch")
	}
}

// TestMmapRoundTrip maps a file, checks contents, and proves the mapping
// survives an unlink (the eviction-while-serving contract).
func TestMmapRoundTrip(t *testing.T) {
	f, data := writeTemp(t, 128<<10)
	m, err := Mmap(f, 128<<10)
	if err != nil {
		if errors.Is(err, ErrUnsupported) {
			t.Skip("mmap unsupported on this platform")
		}
		t.Fatal(err)
	}
	defer Munmap(m) //nolint:errcheck // test teardown
	if !bytes.Equal(m, data) {
		t.Fatal("mapping mismatch")
	}
	// Evict the file from under the mapping: bytes must stay readable.
	if err := os.Remove(f.Name()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(m[64<<10:], data[64<<10:]) {
		t.Fatal("mapping lost after unlink")
	}
}

// TestSendAfterUnlink streams a file whose directory entry is already gone:
// the held descriptor keeps the extents alive, so eviction of a published
// cache mid-sendfile must not corrupt the transfer.
func TestSendAfterUnlink(t *testing.T) {
	f, data := writeTemp(t, 1<<20)
	if err := os.Remove(f.Name()); err != nil {
		t.Fatal(err)
	}
	cl, srv := loopback(t)
	var got bytes.Buffer
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		io.Copy(&got, cl) //nolint:errcheck
	}()
	if sent, err := send(srv, f, 0, 1<<20); err != nil || sent != 1<<20 {
		t.Fatalf("Send after unlink: sent=%d err=%v", sent, err)
	}
	srv.Close() //nolint:errcheck
	wg.Wait()
	if !bytes.Equal(got.Bytes(), data) {
		t.Fatal("post-unlink stream mismatch")
	}
}

// send transfers f[off:off+n) to conn as one extent.
func send(conn net.Conn, f *os.File, off, n int64) (int64, error) {
	return SendExtents(conn, []FileExtent{{F: f, Off: off, Len: n}})
}
