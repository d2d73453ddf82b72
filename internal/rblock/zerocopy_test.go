package rblock

// Tests for the sendfile serve path: byte-identity against the copy path for
// ReadAt and raw OpReadV requests, the size policy between the two paths, the
// fallbacks (a memory-backed store, an export that hides its descriptor),
// eviction and OpClose racing queued zero-copy replies (the handle refcount
// keeping the descriptor alive), and a slow client forcing short sendfile
// returns mid-batch — all run under -race by make check.

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"vmicache/internal/backend"
	"vmicache/internal/metrics"
	"vmicache/internal/zerocopy"
)

// newDirServer starts a server over a DirStore holding one published
// (read-only) export with deterministic-random content.
func newDirServer(t testing.TB, size int, opts ServerOpts) (*backend.DirStore, string, *Server, []byte) {
	t.Helper()
	store, err := backend.NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, size)
	rand.New(rand.NewSource(101)).Read(data)
	f, err := store.Create("pub.img")
	if err != nil {
		t.Fatal(err)
	}
	if err := backend.WriteFull(f, data, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(store, opts)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() }) //nolint:errcheck
	return store, addr, srv, data
}

// TestServerReadZeroCopyIdentity proves reads through the sendfile path are
// byte-identical to the source, across sizes, offsets, and the EOF clamp,
// and that the zero-copy counters (not the fallback counter) advance.
func TestServerReadZeroCopyIdentity(t *testing.T) {
	const size = 1 << 20
	_, addr, srv, data := newDirServer(t, size, ServerOpts{})
	c := dial(t, addr)
	rf, err := c.Open("pub.img", true)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ off, n int }{
		{0, 4096},
		{777, 60000},
		{size - 100, 100},
	} {
		buf := make([]byte, tc.n)
		if err := backend.ReadFull(rf, buf, int64(tc.off)); err != nil {
			t.Fatalf("read (%d,%d): %v", tc.off, tc.n, err)
		}
		if !bytes.Equal(buf, data[tc.off:tc.off+tc.n]) {
			t.Fatalf("read (%d,%d): mismatch", tc.off, tc.n)
		}
	}
	// Whole-image read: one OpReadV request up to maxReadV, served zero-copy.
	got := make([]byte, size)
	if err := backend.ReadFull(rf, got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("full read mismatch")
	}
	st := srv.stats.zcSegments.Load()
	if st == 0 || srv.stats.zcBytes.Load() == 0 {
		t.Fatalf("zero-copy counters did not advance: segments=%d", st)
	}
	if srv.stats.zcFallbacks.Load() != 0 {
		t.Fatalf("unexpected fallbacks: %d", srv.stats.zcFallbacks.Load())
	}
	// EOF clamp: a read straddling the end returns the short tail.
	tail := make([]byte, 4096)
	n, err := rf.ReadAt(tail, int64(size-1000))
	if n != 1000 {
		t.Fatalf("EOF clamp: n=%d err=%v", n, err)
	}
	if !bytes.Equal(tail[:1000], data[size-1000:]) {
		t.Fatal("EOF tail mismatch")
	}
}

// TestReadAtServePolicy pins the one serve policy of OpReadV through the
// server's zerocopy_* counters: on a descriptor-backed read-only handle a
// 4 KiB ReadAt takes the copy path, not counted as a fallback, and a 64 KiB
// one takes sendfile.
func TestReadAtServePolicy(t *testing.T) {
	_, addr, srv, data := newDirServer(t, 1<<20, ServerOpts{})
	reg := metrics.NewRegistry()
	srv.RegisterMetrics(reg, nil)
	counters := func() (zcBytes, segs, fallbacks int64) {
		v := map[string]int64{}
		for _, m := range reg.Gather() {
			v[m.Name] = m.Value
		}
		return v["vmicache_rblock_server_zerocopy_bytes_total"],
			v["vmicache_rblock_server_zerocopy_segments_total"],
			v["vmicache_rblock_server_zerocopy_fallbacks_total"]
	}
	c := dial(t, addr)
	rf, err := c.Open("pub.img", true)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		n        int
		sendfile bool
	}{{4 << 10, false}, {sendfileMin - 1, false}, {sendfileMin, true}} {
		b0, s0, f0 := counters()
		buf := make([]byte, tc.n)
		if err := backend.ReadFull(rf, buf, 12345); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, data[12345:12345+tc.n]) {
			t.Fatalf("%d B read: mismatch", tc.n)
		}
		b1, s1, f1 := counters()
		var wantB, wantS int64
		if tc.sendfile {
			wantB, wantS = int64(tc.n), 1
		}
		if b1-b0 != wantB || s1-s0 != wantS || f1 != f0 {
			t.Errorf("%d B read: zerocopy bytes +%d, segments +%d, fallbacks +%d; want +%d, +%d, +0",
				tc.n, b1-b0, s1-s0, f1-f0, wantB, wantS)
		}
	}
}

// noFDStore serves a store's files without their file descriptors: its files
// expose only backend.File, so the server's zerocopy.SysFile finds none and
// every read takes the copy path.
type noFDStore struct{ backend.Store }

type noFDFile struct{ backend.File }

func (s noFDStore) Open(name string, ro bool) (backend.File, error) {
	f, err := s.Store.Open(name, ro)
	if err != nil {
		return nil, err
	}
	return noFDFile{f}, nil
}

// TestServerReadZeroCopyFallbacks drives the copy-path fallbacks: a
// memory-backed store and an export that hides its descriptor have none, so
// their reads copy and the fallback counter advances.
func TestServerReadZeroCopyFallbacks(t *testing.T) {
	t.Run("memory-backed store", func(t *testing.T) {
		store, addr, srv := newServer(t, ServerOpts{})
		f, err := store.Create("mem.img")
		if err != nil {
			t.Fatal(err)
		}
		seed := bytes.Repeat([]byte{0xA5}, 64<<10)
		if err := backend.WriteFull(f, seed, 0); err != nil {
			t.Fatal(err)
		}
		c := dial(t, addr)
		rf, err := c.Open("mem.img", true)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(seed))
		if err := backend.ReadFull(rf, got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, seed) {
			t.Fatal("fallback read mismatch")
		}
		if srv.stats.zcSegments.Load() != 0 {
			t.Fatal("memory-backed export claimed zero-copy")
		}
		if srv.stats.zcFallbacks.Load() == 0 {
			t.Fatal("fallback counter did not advance")
		}
	})

	t.Run("hidden descriptor", func(t *testing.T) {
		store, _, _, data := newDirServer(t, 64<<10, ServerOpts{})
		srv := NewServer(noFDStore{store}, ServerOpts{})
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() }) //nolint:errcheck
		c := dial(t, addr)
		rf, err := c.Open("pub.img", true)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(data))
		if err := backend.ReadFull(rf, got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("copy-path read mismatch")
		}
		if z := &srv.stats; z.zcSegments.Load() != 0 || z.zcFallbacks.Load() == 0 {
			t.Fatalf("hidden descriptor: %d sendfile replies, %d fallbacks, want 0 and some",
				z.zcSegments.Load(), z.zcFallbacks.Load())
		}
	})
}

// TestServerZeroCopyEvictionMidServe unlinks the published file (cache
// eviction) while a client keeps reading through an already-open handle: the
// held descriptor must keep every byte identical to the pre-eviction
// content.
func TestServerZeroCopyEvictionMidServe(t *testing.T) {
	const size = 1 << 20
	store, addr, _, data := newDirServer(t, size, ServerOpts{})
	c := dial(t, addr)
	rf, err := c.Open("pub.img", true)
	if err != nil {
		t.Fatal(err)
	}
	head := make([]byte, 4096)
	if err := backend.ReadFull(rf, head, 0); err != nil {
		t.Fatal(err)
	}
	// Evict: the export disappears from the store while the handle is open.
	if err := store.Remove("pub.img"); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, size)
	if err := backend.ReadFull(rf, got, 0); err != nil {
		t.Fatalf("read after eviction: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("post-eviction read mismatch")
	}
	// New opens must fail — the export is gone.
	if _, err := c.Open("pub.img", true); err == nil {
		t.Fatal("open succeeded after eviction")
	}
}

// TestServerZeroCopyCloseRace hammers concurrent reads against OpClose on
// the same export: the per-handle refcount must keep every reply intact
// (each read either completes with correct bytes or fails cleanly because
// its handle was already closed). Run under -race by make check.
func TestServerZeroCopyCloseRace(t *testing.T) {
	const size = 256 << 10
	_, addr, srv, data := newDirServer(t, size, ServerOpts{})
	for round := 0; round < 8; round++ {
		c := dial(t, addr)
		rf, err := c.Open("pub.img", true)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		start := make(chan struct{})
		for r := 0; r < 4; r++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rnd := rand.New(rand.NewSource(seed))
				// At least sendfileMin, so the reads actually ride the
				// sendfile path (small reads copy by policy).
				buf := make([]byte, 64<<10)
				<-start
				for i := 0; i < 20; i++ {
					off := rnd.Int63n(size - int64(len(buf)))
					n, err := rf.ReadAt(buf, off)
					if err != nil {
						return // closed under us: acceptable
					}
					if !bytes.Equal(buf[:n], data[off:off+int64(n)]) {
						panic("close race: data mismatch")
					}
				}
			}(int64(round*10 + r))
		}
		close(start)
		rf.Close() //nolint:errcheck // racing the readers by design
		wg.Wait()
		c.Close() //nolint:errcheck
	}
	if srv.stats.zcSegments.Load() == 0 {
		t.Fatal("close race never exercised the zero-copy path")
	}
}

// TestServerZeroCopySlowClient shrinks the server's send buffer to a few
// KiB under 1 MiB read replies, so every sendfile call fills the
// socket buffer and returns short repeatedly in the middle of batched
// replies; the resume logic must keep the pipelined streams byte-identical.
// This is the wire-level fault injection of the reply-writer partial-write
// matrix.
func TestServerZeroCopySlowClient(t *testing.T) {
	const size = 4 << 20
	store, err := backend.NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, size)
	rand.New(rand.NewSource(101)).Read(data)
	f, err := store.Create("pub.img")
	if err != nil {
		t.Fatal(err)
	}
	if err := backend.WriteFull(f, data, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(store, ServerOpts{})
	// Set before Listen: a 1 MiB reply is 32x the squeezed send buffer,
	// so each one takes many short sendfile returns to drain.
	srv.testSndbuf = 32 << 10
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() }) //nolint:errcheck
	c, err := Dial(addr, 16<<10)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() }) //nolint:errcheck
	rf, err := c.Open("pub.img", true)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errc := make(chan error, 4)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(seed))
			buf := make([]byte, maxReadV) // one whole request per read
			for i := 0; i < 2; i++ {
				off := rnd.Int63n(size - int64(len(buf)))
				if err := backend.ReadFull(rf, buf, off); err != nil {
					errc <- err
					return
				}
				if !bytes.Equal(buf, data[off:off+int64(len(buf))]) {
					errc <- os.ErrInvalid
					return
				}
			}
		}(int64(r))
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatalf("slow-client read: %v", err)
	}
	if srv.stats.zcSegments.Load() == 0 {
		t.Fatal("slow-client reads never exercised the zero-copy path")
	}
}

// TestZeroCopyCrossesDirStorePath is a plumbing check: DirStore's os-backed
// files must expose their descriptor through the zerocopy.Filer unwrap used
// at open time, or the fast path silently never engages.
func TestZeroCopyCrossesDirStorePath(t *testing.T) {
	store, err := backend.NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	f, err := store.Create("x.img")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close() //nolint:errcheck
	osf, ok := f.(interface{ SysFile() *os.File })
	if !ok || osf.SysFile() == nil {
		t.Fatal("DirStore file does not expose a descriptor")
	}
	if filepath.Base(osf.SysFile().Name()) != "x.img" {
		t.Fatalf("descriptor names %q", osf.SysFile().Name())
	}
}

// readVRecs encodes ranges as an OpReadV payload.
func readVRecs(rs [][2]int64) []byte {
	var p []byte
	for _, r := range rs {
		p = binary.BigEndian.AppendUint64(p, uint64(r[0]))
		p = binary.BigEndian.AppendUint32(p, uint32(r[1]))
	}
	return p
}

// rawReadV sends one OpReadV with payload p on handle h and returns the
// reply's bytes, however short.
func rawReadV(c *Client, h uint32, p []byte) ([]byte, error) {
	req := getFrame()
	req.op, req.handle, req.payload = OpReadV, h, p
	resp, err := c.roundTrip(req)
	if err != nil {
		return nil, err
	}
	out := append([]byte(nil), resp.payload...)
	putFrame(resp)
	return out, nil
}

// readVRef is the copy path's reply computed from the file's bytes: each
// range in order, cut at the end of the file, the reply ending at the first
// range cut short.
func readVRef(data []byte, rs [][2]uint64) []byte {
	var out []byte
	size := uint64(len(data))
	for _, r := range rs {
		off, n := r[0], r[1]
		if off >= size {
			break
		}
		end := min(off+n, size)
		out = append(out, data[off:end]...)
		if end-off < n {
			break
		}
	}
	return out
}

// TestReadVSendfile: an OpReadV on a descriptor-backed read-only handle is
// answered with file extents — adjacent ranges merged, the reply clamped at
// the size frozen at open — and its bytes are identical to the copy path's,
// the same export served through noFDStore, for ranges in order, adjacent,
// overlapping, straddling the end of the file and starting past it. Each
// request asks for at least sendfileMin, the smallest the sendfile path
// takes. A
// queued reply keeps its descriptor across a racing OpClose, and a squeezed
// send buffer forces short sendfile returns in the middle of a range.
func TestReadVSendfile(t *testing.T) {
	const size = 300<<10 + 123
	store, addr, srv, data := newDirServer(t, size, ServerOpts{})
	cp := NewServer(noFDStore{store}, ServerOpts{})
	cpAddr, err := cp.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cp.Close() }) //nolint:errcheck
	open := func(addr string) (*Client, *RemoteFile) {
		c := dial(t, addr)
		rf, err := c.Open("pub.img", true)
		if err != nil {
			t.Fatal(err)
		}
		return c, rf
	}
	zc, zf := open(addr)
	cc, cf := open(cpAddr)
	sf, err := store.Open("pub.img", true)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sf.Close() }) //nolint:errcheck

	cases := []struct {
		name string
		rs   [][2]int64
		exts int // extents the sendfile reply carries
	}{
		{"in order", [][2]int64{{0, 4096}, {10000, 777}, {65536, 65536}}, 3},
		{"adjacent", [][2]int64{{4096, 4096}, {8192, 100}, {8292, 62000}, {100000, 1}}, 2},
		{"overlapping", [][2]int64{{1000, 50000}, {3000, 50000}, {0, 10}, {5, 10}}, 4},
		{"straddling EOF", [][2]int64{{0, 70000}, {size - 5000, 4000}, {size - 1000, 3000}, {20, 10}}, 2},
		{"starting past EOF", [][2]int64{{0, 65536}, {size, 5}, {20, 10}}, 1},
		{"wholly past EOF", [][2]int64{{size + 10, 65536}}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := readVRecs(tc.rs)
			var recs [][2]uint64
			for _, r := range tc.rs {
				recs = append(recs, [2]uint64{uint64(r[0]), uint64(r[1])})
			}
			want := readVRef(data, recs)
			z0 := srv.stats.zcSegments.Load()
			got, err := rawReadV(zc, zf.handle, p)
			if err != nil {
				t.Fatal(err)
			}
			copied, err := rawReadV(cc, cf.handle, p)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(copied, want) {
				t.Fatalf("copy path replied %d B, the file says %d B", len(copied), len(want))
			}
			if !bytes.Equal(got, copied) {
				t.Fatalf("sendfile replied %d B, differing from the copy path's %d B", len(got), len(copied))
			}
			if srv.stats.zcSegments.Load() != z0+1 {
				t.Fatal("the reply did not take the sendfile path")
			}
			// The extents the reply carries: ranges merged where adjacent.
			oh := &openHandle{f: sf, ic: &imageCounters{}, sys: zerocopy.SysFile(sf), size: size}
			oh.refs.Store(1)
			n, _, ok := checkReadV(p)
			if !ok {
				t.Fatal("checkReadV refused the payload")
			}
			resp := srv.readVExtents(p, n, getFrame(), oh)
			var sum int64
			for _, e := range resp.exts {
				sum += e.Len
			}
			if len(resp.exts) != tc.exts || sum != int64(len(want)) {
				t.Errorf("reply carries %d extents of %d B, want %d of %d B", len(resp.exts), sum, tc.exts, len(want))
			}
			putFrame(resp)
			if oh.refs.Load() != 1 {
				t.Fatalf("the frame left %d handle references, want the table's 1", oh.refs.Load())
			}
		})
	}
	if z := &cp.stats; z.zcSegments.Load() != 0 || z.zcFallbacks.Load() == 0 {
		t.Fatalf("descriptor-hiding export: %d sendfile replies, %d fallbacks", z.zcSegments.Load(), z.zcFallbacks.Load())
	}

	t.Run("close race", func(t *testing.T) {
		for round := 0; round < 8; round++ {
			c := dial(t, addr)
			rf, err := c.Open("pub.img", true)
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			start := make(chan struct{})
			for r := 0; r < 4; r++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rnd := rand.New(rand.NewSource(seed))
					bufs := [][]byte{make([]byte, 3000), make([]byte, 40<<10), make([]byte, 512)}
					<-start
					for i := 0; i < 20; i++ {
						rs := make([]backend.Range, len(bufs))
						for j, b := range bufs {
							rs[j] = backend.Range{P: b, Off: rnd.Int63n(size - int64(len(b)))}
						}
						if err := rf.ReadBatch(rs); err != nil {
							return // closed under us: acceptable
						}
						for _, r := range rs {
							if !bytes.Equal(r.P, data[r.Off:r.Off+int64(len(r.P))]) {
								panic("readv close race: data mismatch")
							}
						}
					}
				}(int64(round*10 + r))
			}
			close(start)
			rf.Close() //nolint:errcheck // racing the readers by design
			wg.Wait()
			c.Close() //nolint:errcheck
		}
	})

	t.Run("short sendfile", func(t *testing.T) {
		const big = 4 << 20
		store, err := backend.NewDirStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		data := make([]byte, big)
		rand.New(rand.NewSource(7)).Read(data)
		f, err := store.Create("pub.img")
		if err != nil {
			t.Fatal(err)
		}
		if err := backend.WriteFull(f, data, 0); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		srv := NewServer(store, ServerOpts{})
		// Set before Listen: each 1 MiB reply is 16x the squeezed send
		// buffer, so every extent drains over several short sendfile
		// returns.
		srv.testSndbuf = 64 << 10
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() }) //nolint:errcheck
		c := dial(t, addr)
		rf, err := c.Open("pub.img", true)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		errc := make(chan error, 2)
		for r := 0; r < 2; r++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rnd := rand.New(rand.NewSource(seed))
				// Two ranges of 300 KiB and one of 424 KiB: each request
				// is one maxReadV reply of three extents.
				bufs := [][]byte{make([]byte, 300<<10), make([]byte, 300<<10), make([]byte, 424<<10)}
				rs := make([]backend.Range, len(bufs))
				for i := 0; i < 2; i++ {
					for j, b := range bufs {
						rs[j] = backend.Range{P: b, Off: rnd.Int63n(big - int64(len(b)))}
					}
					if err := rf.ReadBatch(rs); err != nil {
						errc <- err
						return
					}
					for _, r := range rs {
						if !bytes.Equal(r.P, data[r.Off:r.Off+int64(len(r.P))]) {
							errc <- os.ErrInvalid
							return
						}
					}
				}
			}(int64(r))
		}
		wg.Wait()
		close(errc)
		for err := range errc {
			t.Fatalf("squeezed-buffer read: %v", err)
		}
		if srv.stats.zcSegments.Load() < 4 {
			t.Fatalf("%d sendfile replies, want one per request", srv.stats.zcSegments.Load())
		}
	})
}
