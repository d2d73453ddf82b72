package rblock

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"
	"time"

	"vmicache/internal/backend"
	"vmicache/internal/boot"
	"vmicache/internal/core"
	"vmicache/internal/qcow"
)

// newServer starts a server over a fresh MemStore and returns (store, addr,
// cleanup-registered server).
func newServer(t *testing.T, opts ServerOpts) (*backend.MemStore, string, *Server) {
	t.Helper()
	store := backend.NewMemStore()
	srv := NewServer(store, opts)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(func() { srv.Close() }) //nolint:errcheck
	return store, addr, srv
}

func dial(t testing.TB, addr string, rwsize int) *Client {
	t.Helper()
	c, err := Dial(addr, rwsize)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { c.Close() }) //nolint:errcheck
	return c
}

func TestRemoteReadWriteRoundTrip(t *testing.T) {
	store, addr, srv := newServer(t, ServerOpts{})
	f, err := store.Create("disk.img")
	if err != nil {
		t.Fatal(err)
	}
	seed := bytes.Repeat([]byte{0xCD}, 100<<10)
	if err := backend.WriteFull(f, seed, 0); err != nil {
		t.Fatal(err)
	}

	c := dial(t, addr, 0)
	rf, err := c.Open("disk.img", false)
	if err != nil {
		t.Fatal(err)
	}
	// Size from open.
	if sz, err := rf.Size(); err != nil || sz != int64(len(seed)) {
		t.Fatalf("size = %d, %v", sz, err)
	}
	// A read larger than rwsize is still one request: only writes are
	// rwsize-bounded.
	req0 := c.Stats().Requests
	got := make([]byte, len(seed))
	if err := backend.ReadFull(rf, got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, seed) {
		t.Fatal("read mismatch")
	}
	if reqs, ops := c.Stats().Requests-req0, srv.Stats().ReadOps; reqs != 1 || ops != 1 {
		t.Fatalf("a %d B read cost %d requests, %d server reads; want 1 and 1", len(seed), reqs, ops)
	}
	// Write + read-back + sync + truncate.
	payload := []byte("written remotely")
	if err := backend.WriteFull(rf, payload, 5000); err != nil {
		t.Fatal(err)
	}
	if err := rf.Sync(); err != nil {
		t.Fatal(err)
	}
	back := make([]byte, len(payload))
	if err := backend.ReadFull(rf, back, 5000); err != nil {
		t.Fatal(err)
	}
	if string(back) != string(payload) {
		t.Fatalf("write round trip: %q", back)
	}
	if err := rf.Truncate(1234); err != nil {
		t.Fatal(err)
	}
	if sz, _ := rf.Size(); sz != 1234 {
		t.Fatalf("size after truncate = %d", sz)
	}
	if err := rf.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rf.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
}

func TestRemoteEOFSemantics(t *testing.T) {
	store, addr, _ := newServer(t, ServerOpts{})
	f, _ := store.Create("small")
	if err := backend.WriteFull(f, []byte("0123456789"), 0); err != nil {
		t.Fatal(err)
	}
	c := dial(t, addr, 0)
	rf, err := c.Open("small", true)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 20)
	n, err := rf.ReadAt(buf, 0)
	if n != 10 || err != io.EOF {
		t.Fatalf("short read: n=%d err=%v", n, err)
	}
}

func TestRemoteOpenMissing(t *testing.T) {
	_, addr, _ := newServer(t, ServerOpts{})
	c := dial(t, addr, 0)
	if _, err := c.Open("ghost", true); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestReadOnlyHandleAndServer(t *testing.T) {
	store, addr, _ := newServer(t, ServerOpts{})
	store.Create("x") //nolint:errcheck
	c := dial(t, addr, 0)
	rf, err := c.Open("x", true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rf.WriteAt([]byte{1}, 0); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("RO handle write: %v", err)
	}
	if err := rf.Truncate(5); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("RO handle truncate: %v", err)
	}

	// Whole-server read-only export.
	store2 := backend.NewMemStore()
	store2.Create("y") //nolint:errcheck
	srv2 := NewServer(store2, ServerOpts{ReadOnly: true})
	addr2, err := srv2.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close() //nolint:errcheck
	c2 := dial(t, addr2, 0)
	rf2, err := c2.Open("y", false) // asks RW; server forces RO
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rf2.WriteAt([]byte{1}, 0); err == nil {
		t.Fatal("read-only server accepted a write")
	}
}

// TestRWSizeEnforcedByServer: the server's rwsize bounds each write request,
// and a client honouring it segments writes to fit; reads are not bound by
// it.
func TestRWSizeEnforcedByServer(t *testing.T) {
	store, addr, srv := newServer(t, ServerOpts{RWSize: 4096})
	f, _ := store.Create("f")
	backend.WriteFull(f, make([]byte, 64<<10), 0) //nolint:errcheck
	want := bytes.Repeat([]byte{0x5A}, 16<<10)
	// Client negotiating a LARGER rwsize gets rejected per request.
	c := dial(t, addr, 32<<10)
	rf, err := c.Open("f", false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rf.WriteAt(want, 0); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("oversized write: %v", err)
	}
	if srv.Stats().WriteOps != 0 {
		t.Fatal("the server applied an oversized write")
	}
	// A client honouring the limit works, in rwsize segments.
	c2 := dial(t, addr, 4096)
	rf2, err := c2.Open("f", false)
	if err != nil {
		t.Fatal(err)
	}
	if err := backend.WriteFull(rf2, want, 0); err != nil {
		t.Fatalf("segmented write under limit: %v", err)
	}
	if ops := srv.Stats().WriteOps; ops != 4 {
		t.Fatalf("a 16 KiB write took %d requests at rwsize 4 KiB, want 4", ops)
	}
	// A read four times the rwsize is one request, from either client.
	for _, r := range []*RemoteFile{rf, rf2} {
		got := make([]byte, len(want))
		req0 := r.c.Stats().Requests
		if err := backend.ReadFull(r, got, 0); err != nil {
			t.Fatalf("read over rwsize: %v", err)
		}
		if !bytes.Equal(got, want) || r.c.Stats().Requests-req0 != 1 {
			t.Fatal("a read over rwsize was refused, split or wrong")
		}
	}
}

func TestMultipleFilesOneConnection(t *testing.T) {
	store, addr, _ := newServer(t, ServerOpts{})
	for _, name := range []string{"a", "b"} {
		f, _ := store.Create(name)
		backend.WriteFull(f, []byte(name), 0) //nolint:errcheck
	}
	c := dial(t, addr, 0)
	fa, err := c.Open("a", true)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := c.Open("b", true)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	if err := backend.ReadFull(fb, buf, 0); err != nil || buf[0] != 'b' {
		t.Fatalf("b: %v %q", err, buf)
	}
	if err := backend.ReadFull(fa, buf, 0); err != nil || buf[0] != 'a' {
		t.Fatalf("a: %v %q", err, buf)
	}
	if err := fa.Close(); err != nil {
		t.Fatal(err)
	}
	// fb still usable after closing fa.
	if err := backend.ReadFull(fb, buf, 0); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentClients(t *testing.T) {
	store, addr, srv := newServer(t, ServerOpts{})
	content := make([]byte, 256<<10)
	rand.New(rand.NewSource(4)).Read(content)
	f, _ := store.Create("shared")
	backend.WriteFull(f, content, 0) //nolint:errcheck

	const clients = 8
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		go func(seed int64) {
			c, err := Dial(addr, 0)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close() //nolint:errcheck
			rf, err := c.Open("shared", true)
			if err != nil {
				errs <- err
				return
			}
			rnd := rand.New(rand.NewSource(seed))
			buf := make([]byte, 4096)
			for j := 0; j < 50; j++ {
				off := rnd.Int63n(int64(len(content) - len(buf)))
				if err := backend.ReadFull(rf, buf, off); err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(buf, content[off:off+int64(len(buf))]) {
					errs <- errors.New("content mismatch")
					return
				}
			}
			errs <- nil
		}(int64(i))
	}
	for i := 0; i < clients; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if srv.Stats().Conns != clients {
		t.Fatalf("conns = %d", srv.Stats().Conns)
	}
}

func TestServerStatsPerImage(t *testing.T) {
	store, addr, srv := newServer(t, ServerOpts{})
	for _, name := range []string{"hot", "cold"} {
		f, _ := store.Create(name)
		backend.WriteFull(f, make([]byte, 8<<10), 0) //nolint:errcheck
	}
	c := dial(t, addr, 0)
	fh, err := c.Open("hot", true)
	if err != nil {
		t.Fatal(err)
	}
	fc, err := c.Open("cold", true)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8<<10)
	for i := 0; i < 3; i++ {
		if err := backend.ReadFull(fh, buf, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := backend.ReadFull(fc, buf[:1<<10], 0); err != nil {
		t.Fatal(err)
	}

	st := srv.Stats()
	hot, cold := st.PerImage["hot"], st.PerImage["cold"]
	if hot.Opens != 1 || cold.Opens != 1 {
		t.Fatalf("opens: hot=%d cold=%d", hot.Opens, cold.Opens)
	}
	if hot.BytesRead != 3*8<<10 || cold.BytesRead != 1<<10 {
		t.Fatalf("bytes: hot=%d cold=%d", hot.BytesRead, cold.BytesRead)
	}
	if hot.ReadOps < 3 || cold.ReadOps < 1 {
		t.Fatalf("read ops: hot=%d cold=%d", hot.ReadOps, cold.ReadOps)
	}
	if st.BytesRead != hot.BytesRead+cold.BytesRead {
		t.Fatalf("totals disagree with per-image: %d vs %d", st.BytesRead, hot.BytesRead+cold.BytesRead)
	}
	// The snapshot is detached from the live counters.
	st.PerImage["hot"] = ImageStats{}
	if srv.Stats().PerImage["hot"].BytesRead == 0 {
		t.Fatal("snapshot aliases live counters")
	}
}

// gateStore wraps a store so server-side reads block until released — a way
// to hold a request in flight while Shutdown drains.
type gateStore struct {
	inner   backend.Store
	entered chan struct{}
	release chan struct{}
}

func (g *gateStore) Open(name string, ro bool) (backend.File, error) {
	f, err := g.inner.Open(name, ro)
	if err != nil {
		return nil, err
	}
	return &gateFile{File: f, g: g}, nil
}
func (g *gateStore) Create(name string) (backend.File, error) { return g.inner.Create(name) }
func (g *gateStore) Remove(name string) error                 { return g.inner.Remove(name) }
func (g *gateStore) Stat(name string) (int64, error)          { return g.inner.Stat(name) }

type gateFile struct {
	backend.File
	g *gateStore
}

func (f *gateFile) ReadAt(p []byte, off int64) (int, error) {
	select {
	case f.g.entered <- struct{}{}:
	default:
	}
	<-f.g.release
	return f.File.ReadAt(p, off)
}

func TestShutdownDrainsInFlight(t *testing.T) {
	inner := backend.NewMemStore()
	f, _ := inner.Create("slow")
	payload := bytes.Repeat([]byte{0xAB}, 4096)
	if err := backend.WriteFull(f, payload, 0); err != nil {
		t.Fatal(err)
	}
	gs := &gateStore{inner: inner, entered: make(chan struct{}, 1), release: make(chan struct{})}
	srv := NewServer(gs, ServerOpts{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() }) //nolint:errcheck

	c := dial(t, addr, 0)
	rf, err := c.Open("slow", true)
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		n   int
		err error
	}
	done := make(chan result, 1)
	go func() {
		buf := make([]byte, len(payload))
		n, err := rf.ReadAt(buf, 0)
		done <- result{n, err}
	}()
	<-gs.entered // the read is dispatched and parked server-side
	go func() {
		time.Sleep(50 * time.Millisecond)
		close(gs.release)
	}()
	// Shutdown must wait for the parked request and flush its response
	// before tearing the connection down.
	if err := srv.Shutdown(5 * time.Second); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	r := <-done
	if r.err != nil || r.n != len(payload) {
		t.Fatalf("in-flight read across shutdown: n=%d err=%v", r.n, r.err)
	}
	// The listener is gone: no new connections.
	if c2, err := Dial(addr, 0); err == nil {
		c2.Close() //nolint:errcheck
		t.Fatal("dial succeeded after shutdown")
	}
}

// The integration the whole package exists for: a qcow chain whose base
// image is accessed over the wire, with a local cache absorbing re-reads.
func TestQcowChainOverRemoteBase(t *testing.T) {
	store, addr, srv := newServer(t, ServerOpts{})

	// Base image on the "storage node".
	const size = 4 << 20
	src := boot.PatternSource{Seed: 77, N: size}
	baseF, err := store.Create("base.img")
	if err != nil {
		t.Fatal(err)
	}
	baseImg, err := qcow.Create(baseF, qcow.CreateOpts{Size: size, ClusterBits: 16})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, size)
	src.ReadAt(buf, 0) //nolint:errcheck
	if err := backend.WriteFull(baseImg, buf, 0); err != nil {
		t.Fatal(err)
	}
	if err := baseImg.Sync(); err != nil {
		t.Fatal(err)
	}

	// "Compute node": open the base over TCP, build cache + CoW on it.
	c := dial(t, addr, 0)
	remoteBase, err := c.Open("base.img", true)
	if err != nil {
		t.Fatal(err)
	}
	baseRemote, err := qcow.Open(remoteBase, qcow.OpenOpts{ReadOnly: true})
	if err != nil {
		t.Fatalf("opening remote qcow base: %v", err)
	}

	cacheImg, err := qcow.Create(backend.NewMemFile(), qcow.CreateOpts{
		Size: size, ClusterBits: 9, BackingFile: "base.img", CacheQuota: size,
	})
	if err != nil {
		t.Fatal(err)
	}
	cacheImg.SetBacking(baseRemote)
	cow, err := qcow.Create(backend.NewMemFile(), qcow.CreateOpts{
		Size: size, ClusterBits: 16, BackingFile: "cache",
	})
	if err != nil {
		t.Fatal(err)
	}
	cow.SetBacking(cacheImg)

	// Boot-style reads: verified content over the wire.
	got := make([]byte, 100<<10)
	if err := backend.ReadFull(cow, got, 512); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, src.At(512, 100<<10)) {
		t.Fatal("remote chain content mismatch")
	}
	served := srv.Stats().BytesRead
	if served == 0 {
		t.Fatal("no traffic served")
	}
	// Second read: warm cache, no further wire traffic.
	if err := backend.ReadFull(cow, got, 512); err != nil {
		t.Fatal(err)
	}
	if srv.Stats().BytesRead != served {
		t.Fatalf("warm read produced traffic: %d -> %d", served, srv.Stats().BytesRead)
	}
}

// RemoteStore plugged into a namespace: the whole §4.4 chain resolves its
// base across the wire.
func TestRemoteStoreInNamespace(t *testing.T) {
	store, addr, _ := newServer(t, ServerOpts{})
	const size = 2 << 20
	src := boot.PatternSource{Seed: 3, N: size}
	f, err := store.Create("base.img")
	if err != nil {
		t.Fatal(err)
	}
	img, err := qcow.Create(f, qcow.CreateOpts{Size: size, ClusterBits: 16})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, size)
	src.ReadAt(buf, 0) //nolint:errcheck
	if err := backend.WriteFull(img, buf, 0); err != nil {
		t.Fatal(err)
	}
	if err := img.Sync(); err != nil {
		t.Fatal(err)
	}

	c := dial(t, addr, 0)
	ns := core.NewNamespace("node", backend.NewMemStore())
	ns.Register("storage", RemoteStore{C: c})

	cow := core.Locator{Store: "node", Name: "vm.cow"}
	if err := core.CreateCoW(ns, cow, core.Locator{Store: "storage", Name: "base.img"}, size, 0); err != nil {
		t.Fatal(err)
	}
	chain, err := core.OpenChain(ns, cow, core.ChainOpts{})
	if err != nil {
		t.Fatalf("OpenChain across the wire: %v", err)
	}
	defer chain.Close() //nolint:errcheck
	got := make([]byte, 4096)
	if err := backend.ReadFull(chain, got, 100<<10); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, src.At(100<<10, 4096)) {
		t.Fatal("cross-wire chain content mismatch")
	}
	// Remote stores reject mutation.
	if _, err := (RemoteStore{C: c}).Create("x"); err == nil {
		t.Fatal("remote create succeeded")
	}
	if err := (RemoteStore{C: c}).Remove("base.img"); err == nil {
		t.Fatal("remote remove succeeded")
	}
	if sz, err := (RemoteStore{C: c}).Stat("base.img"); err != nil || sz == 0 {
		t.Fatalf("remote stat: %d %v", sz, err)
	}
}
