package rblock

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
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

func dial(t testing.TB, addr string) *Client {
	t.Helper()
	c, err := Dial(addr, 0)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { c.Close() }) //nolint:errcheck
	return c
}

// TestRemoteReadRoundTrip: a read of any size up to maxReadV is one request
// and one server read, and the immutable file answers Size and Sync without
// a request and refuses writes.
func TestRemoteReadRoundTrip(t *testing.T) {
	store, addr, srv := newServer(t, ServerOpts{})
	f, err := store.Create("disk.img")
	if err != nil {
		t.Fatal(err)
	}
	seed := bytes.Repeat([]byte{0xCD}, 100<<10)
	if err := backend.WriteFull(f, seed, 0); err != nil {
		t.Fatal(err)
	}

	c := dial(t, addr)
	rf, err := c.Open("disk.img", true)
	if err != nil {
		t.Fatal(err)
	}
	req0 := c.Stats().Requests
	if sz, err := rf.Size(); err != nil || sz != int64(len(seed)) {
		t.Fatalf("size = %d, %v", sz, err)
	}
	if err := rf.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	if reqs := c.Stats().Requests - req0; reqs != 0 {
		t.Fatalf("Size and Sync sent %d requests, want 0", reqs)
	}
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
	c := dial(t, addr)
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
	c := dial(t, addr)
	if _, err := c.Open("ghost", true); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

// TestReadOnlyHandleAndServer: a remote file refuses writes and truncates
// locally; Open(name, false) fails with ErrReadOnly without a request, so
// the server opens nothing; and the server answers a raw OpOpen frame
// without the read-only flag StatusReadOnly, keeping the connection.
func TestReadOnlyHandleAndServer(t *testing.T) {
	store, addr, srv := newServer(t, ServerOpts{})
	f, _ := store.Create("x")
	backend.WriteFull(f, []byte("x"), 0) //nolint:errcheck
	c := dial(t, addr)
	rf, err := c.Open("x", true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rf.WriteAt([]byte{1}, 0); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("write: %v", err)
	}
	if err := rf.Truncate(5); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("truncate: %v", err)
	}

	req0, opens0 := c.Stats().Requests, srv.Stats().Opens
	if _, err := c.Open("x", false); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("writable open: %v, want ErrReadOnly", err)
	}
	if reqs, opens := c.Stats().Requests-req0, srv.Stats().Opens-opens0; reqs != 0 || opens != 0 {
		t.Fatalf("a writable open sent %d requests and the server opened %d files, want 0 and 0", reqs, opens)
	}

	req := getFrame()
	req.op, req.payload = OpOpen, []byte("x") // no flagReadOnly
	if _, err := c.roundTrip(req); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("raw writable OpOpen: %v, want ErrReadOnly", err)
	}
	if opens := srv.Stats().Opens - opens0; opens != 0 {
		t.Fatalf("the server opened %d files for a writable OpOpen", opens)
	}
	if err := backend.ReadFull(rf, make([]byte, 1), 0); err != nil || c.Stats().Broken != 0 {
		t.Fatalf("the refusal broke the client: %v", err)
	}
}

// nameLogStore records every name that reaches Open.
type nameLogStore struct {
	backend.Store
	mu    sync.Mutex
	names []string
}

func (s *nameLogStore) Open(name string, ro bool) (backend.File, error) {
	s.mu.Lock()
	s.names = append(s.names, name)
	s.mu.Unlock()
	return s.Store.Open(name, ro)
}

// TestOpenConfinedToExport: the server refuses an export name that is
// absolute or climbs out of the export directory before it reaches the
// store, so a file beside the directory is never served; a name that climbs
// back inside the directory ("a/../img") still opens.
func TestOpenConfinedToExport(t *testing.T) {
	root := t.TempDir()
	secret := filepath.Join(root, "secret")
	if err := os.WriteFile(secret, []byte("outside the export"), 0o644); err != nil {
		t.Fatal(err)
	}
	exportDir := filepath.Join(root, "export")
	dir, err := backend.NewDirStore(exportDir)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte("inside the export")
	if err := os.WriteFile(filepath.Join(exportDir, "img"), want, 0o644); err != nil {
		t.Fatal(err)
	}
	store := &nameLogStore{Store: dir}
	srv := NewServer(store, ServerOpts{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() }) //nolint:errcheck
	c := dial(t, addr)

	for _, name := range []string{"../secret", secret, "a/../../secret", ""} {
		if _, err := c.Open(name, true); !errors.Is(err, ErrBadRequest) {
			t.Errorf("Open(%q): %v, want ErrBadRequest", name, err)
		}
	}
	if len(store.names) != 0 || srv.Stats().BytesRead != 0 {
		t.Fatalf("refused names reached the store (%q) or were served (%d B)", store.names, srv.Stats().BytesRead)
	}
	rf, err := c.Open("a/../img", true)
	if err != nil {
		t.Fatalf("Open(a/../img): %v", err)
	}
	got := make([]byte, len(want))
	if err := backend.ReadFull(rf, got, 0); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("a/../img read %q, %v", got, err)
	}
	if c.Stats().Broken != 0 {
		t.Fatal("a refused name broke the client")
	}
}

// TestOpenRefusesNonRegular: a DirStore export answers an open of itself or
// of a subdirectory StatusNotFound, and the open is never counted.
func TestOpenRefusesNonRegular(t *testing.T) {
	exportDir := t.TempDir()
	if err := os.Mkdir(filepath.Join(exportDir, "subdir"), 0o755); err != nil {
		t.Fatal(err)
	}
	dir, err := backend.NewDirStore(exportDir)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(dir, ServerOpts{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() }) //nolint:errcheck
	c := dial(t, addr)
	for _, name := range []string{".", "subdir", "subdir/.."} {
		if _, err := c.Open(name, true); !errors.Is(err, ErrNotFound) {
			t.Errorf("Open(%q): %v, want ErrNotFound", name, err)
		}
	}
	if n := srv.Stats().Opens; n != 0 {
		t.Fatalf("%d opens counted", n)
	}
}

func TestMultipleFilesOneConnection(t *testing.T) {
	store, addr, _ := newServer(t, ServerOpts{})
	for _, name := range []string{"a", "b"} {
		f, _ := store.Create(name)
		backend.WriteFull(f, []byte(name), 0) //nolint:errcheck
	}
	c := dial(t, addr)
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
	c := dial(t, addr)
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

	c := dial(t, addr)
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
	c := dial(t, addr)
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

	c := dial(t, addr)
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
