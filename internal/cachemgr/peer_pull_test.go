package cachemgr_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"vmicache/internal/backend"
	"vmicache/internal/cachemgr"
	"vmicache/internal/core"
	"vmicache/internal/qcow"
	"vmicache/internal/rblock"
)

// pullRig is a node A that warmed base from the storage node and exports its
// published cache zero-copy, the way a peer vmicached serves it.
type pullRig struct {
	s    *storageNode
	a    *cachemgr.Manager
	addr string // A's peer export
	key  string
	pub  []byte // A's published cache file
}

func newPullRig(t *testing.T, size int64) *pullRig {
	t.Helper()
	r := &pullRig{s: newStorageNode(t)}
	r.s.addBase(t, "base.img", size, 5)
	r.a = newManager(t, r.s, func(c *cachemgr.Config) { c.ZeroCopy = true })
	lease, err := r.a.Acquire("base.img")
	if err != nil {
		t.Fatal(err)
	}
	r.key = lease.Key()
	lease.Release()
	if r.addr, err = r.a.ServePeers("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if r.pub, err = os.ReadFile(filepath.Join(r.a.Dir(), r.key)); err != nil {
		t.Fatal(err)
	}
	return r
}

// checkFellBack asserts node b served base through copy-on-read after its
// only peer failed: no peer publication, no temp left, one verified cache.
func (r *pullRig) checkFellBack(t *testing.T, b *cachemgr.Manager) {
	t.Helper()
	bootAndCheck(t, b, r.s, "base.img", "b1")
	if st := b.Stats(); st.PeerFetches != 0 || st.PeerFallbacks != 1 || st.ColdWarms != 1 {
		t.Fatalf("peer fetches %d, fallbacks %d, cold warms %d; want 0, 1, 1",
			st.PeerFetches, st.PeerFallbacks, st.ColdWarms)
	}
	if tmps, _ := filepath.Glob(filepath.Join(b.Dir(), "*.tmp")); len(tmps) != 0 {
		t.Fatalf("temps left behind: %v", tmps)
	}
	if n := checkPublished(t, b.Dir()); n != 1 {
		t.Fatalf("%d published caches, want the copy-on-read one", n)
	}
}

// relay forwards TCP connections to upstream. It holds every chunk a client
// sends for delay before passing it on — each request costs one delay, and
// requests sent together share it — and with cut > 0 it drops the
// connection once that many reply bytes went back.
type relay struct {
	ln    net.Listener
	delay time.Duration
	cut   int64
	wg    sync.WaitGroup
}

func newRelay(t *testing.T, upstream string, delay time.Duration, cut int64) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r := &relay{ln: ln, delay: delay, cut: cut}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			up, err := net.Dial("tcp", upstream)
			if err != nil {
				c.Close() //nolint:errcheck // refused
				continue
			}
			r.wg.Add(2)
			go func() {
				defer r.wg.Done()
				if r.cut > 0 {
					io.CopyN(c, up, r.cut) //nolint:errcheck // cut either way
				} else {
					io.Copy(c, up) //nolint:errcheck // ends with either side
				}
				c.Close()  //nolint:errcheck // teardown
				up.Close() //nolint:errcheck // teardown
			}()
			go func() {
				defer r.wg.Done()
				r.delayed(up, c)
				up.Close() //nolint:errcheck // teardown
			}()
		}
	}()
	t.Cleanup(func() {
		ln.Close() //nolint:errcheck // teardown
		r.wg.Wait()
	})
	return ln.Addr().String()
}

// delayed copies src to dst, each chunk leaving delay after it arrived.
func (r *relay) delayed(dst io.Writer, src io.Reader) {
	type chunk struct {
		due time.Time
		b   []byte
	}
	q := make(chan chunk, 1024)
	go func() {
		defer close(q)
		for {
			b := make([]byte, 64<<10)
			n, err := src.Read(b)
			if n > 0 {
				q <- chunk{time.Now().Add(r.delay), b[:n]}
			}
			if err != nil {
				return
			}
		}
	}()
	for c := range q {
		time.Sleep(time.Until(c.due))
		if _, err := dst.Write(c.b); err != nil {
			for range q { // let the reader finish
			}
			return
		}
	}
}

// TestPeerPullStreams pulls a cache of N 1 MiB windows through a relay that
// delays every request: the windows go out four at a time, so the pull costs
// ⌈N/4⌉ delays for the windows plus one each for the source's open, stat and
// close — where a stop-and-wait copy costs N + 3 — and the temp is
// byte-identical to the peer's published file.
func TestPeerPullStreams(t *testing.T) {
	r := newPullRig(t, 12*mb)
	const delay = 120 * time.Millisecond
	via := newRelay(t, r.addr, delay, 0)
	b := newManager(t, r.s, nil)
	start := time.Now()
	n, err := b.PullFromPeer(via, r.key)
	took := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	windows := (len(r.pub) + mb - 1) / mb
	if windows < 9 || n != int64(len(r.pub)) {
		t.Fatalf("pulled %d of %d bytes (%d windows)", n, len(r.pub), windows)
	}
	got, err := os.ReadFile(filepath.Join(b.Dir(), r.key+".tmp"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, r.pub) {
		t.Fatal("the pulled temp differs from the peer's published cache")
	}
	// The local work — creating the temp, landing the bytes — must fit in
	// the last delay's slack.
	rounds := (windows+3)/4 + 3
	t.Logf("%d windows in %v: %.1f delays, bound %d, stop-and-wait %d",
		windows, took, float64(took)/float64(delay), rounds, windows+3)
	if took >= time.Duration(rounds+1)*delay {
		t.Fatalf("pull of %d windows took %v, %d delays of %v or more", windows, took, rounds+1, delay)
	}
}

// TestPeerPullPeerDies cuts the peer's connection part-way through the
// cache: the pull fails, its temp is discarded, nothing from the peer is
// published, and the boot is served by copy-on-read.
func TestPeerPullPeerDies(t *testing.T) {
	r := newPullRig(t, 8*mb)
	via := newRelay(t, r.addr, 0, int64(len(r.pub))/2)
	b := newManager(t, r.s, func(c *cachemgr.Config) { c.Peers = []string{via} })
	r.checkFellBack(t, b)
	if d := b.Stats().Peers[via]; d.Failures != 1 {
		t.Fatalf("peer record %+v, want one failure", d)
	}
}

// hostileStore serves a peer's published caches with their reads or sizes
// altered.
type hostileStore struct {
	backend.Store
	reads func(p []byte, off int64) // edits bytes after they were read
	size  int64                     // when > 0, what every file claims as its size
}

func (s hostileStore) Open(name string, ro bool) (backend.File, error) {
	f, err := s.Store.Open(name, ro)
	if err != nil {
		return nil, err
	}
	return hostileFile{File: f, s: s}, nil
}

type hostileFile struct {
	backend.File
	s hostileStore
}

func (f hostileFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := f.File.ReadAt(p, off)
	if f.s.reads != nil {
		f.s.reads(p[:n], off)
	}
	return n, err
}

func (f hostileFile) Size() (int64, error) {
	if f.s.size > 0 {
		return f.s.size, nil
	}
	return f.File.Size()
}

// serveHostile exports A's cache directory through st and returns the
// address and the server.
func serveHostile(t *testing.T, st backend.Store) (string, *rblock.Server) {
	t.Helper()
	srv := rblock.NewServer(st, rblock.ServerOpts{ReadOnly: true})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() }) //nolint:errcheck
	return addr, srv
}

// TestPeerPullCorruptContainer: a peer serving a cache whose L1 table is
// smashed is caught by publish's Check, and the node falls back.
func TestPeerPullCorruptContainer(t *testing.T) {
	r := newPullRig(t, 4*mb)
	f, err := backend.OpenOSFile(filepath.Join(r.a.Dir(), r.key), true)
	if err != nil {
		t.Fatal(err)
	}
	img, err := qcow.Open(f, qcow.OpenOpts{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	l1 := int64(img.Header().L1TableOffset)
	img.Close() //nolint:errcheck // read-only
	dir, err := backend.NewDirStore(r.a.Dir())
	if err != nil {
		t.Fatal(err)
	}
	addr, srv := serveHostile(t, hostileStore{Store: dir, reads: func(p []byte, off int64) {
		for i := range p {
			if at := off + int64(i); at >= l1 && at < l1+256 {
				p[i] = 0xff
			}
		}
	}})
	var logged strings.Builder
	var mu sync.Mutex
	b := newManager(t, r.s, func(c *cachemgr.Config) {
		c.Peers = []string{addr}
		c.Logf = func(format string, args ...any) {
			mu.Lock()
			fmt.Fprintf(&logged, format+"\n", args...)
			mu.Unlock()
		}
	})
	r.checkFellBack(t, b)
	if srv.Stats().BytesRead < int64(len(r.pub)) {
		t.Fatalf("the peer served %d of %d bytes", srv.Stats().BytesRead, len(r.pub))
	}
	mu.Lock()
	defer mu.Unlock()
	if !strings.Contains(logged.String(), "peer copy of "+r.key+" failed verification") {
		t.Fatalf("the corrupt copy was not refused by verification:\n%s", logged.String())
	}
}

// TestPeerPullRefusesOversized: a peer whose store claims a cache larger than
// the node's whole budget gets no temp created and no byte read from it, and
// the node falls back.
func TestPeerPullRefusesOversized(t *testing.T) {
	r := newPullRig(t, 4*mb)
	dir, err := backend.NewDirStore(r.a.Dir())
	if err != nil {
		t.Fatal(err)
	}
	addr, srv := serveHostile(t, hostileStore{Store: dir, size: 1 << 40})
	b := newManager(t, r.s, func(c *cachemgr.Config) { c.Peers, c.Budget = []string{addr}, 64*mb })
	if _, err := b.PullFromPeer(addr, r.key); !errors.Is(err, backend.ErrTooLarge) {
		t.Fatalf("pull of a 1 TiB claim: %v, want ErrTooLarge", err)
	}
	if _, err := os.Stat(filepath.Join(b.Dir(), r.key+".tmp")); !os.IsNotExist(err) {
		t.Fatalf("the refused pull created its temp (%v)", err)
	}
	r.checkFellBack(t, b)
	if n := srv.Stats().BytesRead; n != 0 {
		t.Fatalf("the node read %d bytes from a peer it refused", n)
	}
}

// TestPublishFsyncFailure fails the fsync publish runs beside Check: nothing
// is renamed, and the next warm starts clean and publishes.
func TestPublishFsyncFailure(t *testing.T) {
	s := newStorageNode(t)
	s.addBase(t, "base.img", mb, 9)
	fail := true
	cachemgr.SetOpenTemp(t, func(_ string, _ bool, f backend.File) backend.File {
		ff := backend.NewFaultyFile(f)
		ff.FailSync(fail)
		return ff
	})
	m := newManager(t, s, nil)
	if _, err := m.Acquire("base.img"); !errors.Is(err, backend.ErrInjected) {
		t.Fatalf("warm with a failing fsync: %v, want the injected fault", err)
	}
	if n := checkPublished(t, m.Dir()); n != 0 || m.Stats().Published != 0 {
		t.Fatalf("%d caches published despite the failed fsync", n)
	}
	fail = false
	bootAndCheck(t, m, s, "base.img", "vm")
	if n := checkPublished(t, m.Dir()); n != 1 || m.Stats().Published != 1 {
		t.Fatalf("%d caches published after the retry, want 1", n)
	}
	if tmps, _ := filepath.Glob(filepath.Join(m.Dir(), "*.tmp")); len(tmps) != 0 {
		t.Fatalf("temps left behind: %v", tmps)
	}
}

// TestPublishVerifiesReadOnly: publish opens every temp read-only — the
// copy-on-read, peer, delta and rehydrated ones alike.
func TestPublishVerifiesReadOnly(t *testing.T) {
	var mu sync.Mutex
	var opens, writable int
	cachemgr.SetOpenTemp(t, func(_ string, readOnly bool, f backend.File) backend.File {
		mu.Lock()
		opens++
		if !readOnly {
			writable++
		}
		mu.Unlock()
		return f
	})
	r := newDeltaRig(t) // copy-on-read: v2 on A, v1 on B
	c := newManager(t, r.s, func(c *cachemgr.Config) { c.Peers = []string{r.aAddr} })
	bootAndCheck(t, c, r.s, "v2.img", "c1")
	b := r.node(t, r.aAddr)
	bootAndCheck(t, b, r.s, "v2.img", "b2")
	if err := os.Remove(filepath.Join(r.bDir, b.KeyFor("v1.img"))); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	b = r.node(t)
	bootAndCheck(t, b, r.s, "v1.img", "b3")
	if st := c.Stats(); st.PeerFetches != 1 {
		t.Fatalf("node C: %d peer fetches, want 1", st.PeerFetches)
	}
	if st := b.Stats(); st.DedupRehydrations != 1 {
		t.Fatalf("node B: %d rehydrations, want 1", st.DedupRehydrations)
	}
	mu.Lock()
	defer mu.Unlock()
	if opens != 5 || writable != 0 {
		t.Fatalf("publish opened %d temps, %d of them writable; want 5 read-only", opens, writable)
	}
}

// BenchmarkPeerPull is the in-process form of bench/e2e's peer_warm op on its
// geometry: a 1 GiB base of 64 KiB clusters on a loopback rblock server, a
// peer Manager holding the centos-warmed cache and exporting it zero-copy,
// and per op a fresh node that pulls the cache, boots a session and closes
// it. Making and dropping the node are outside the timed span.
func BenchmarkPeerPull(b *testing.B) {
	s := newStorageNode(b)
	const base, size = "base.img", 1 << 30
	if err := core.CreateBase(core.NewNamespace("s", s.store), core.Locator{Store: "s", Name: base},
		size, 16, nil); err != nil {
		b.Fatal(err)
	}
	client, err := rblock.Dial(s.addr, 0)
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close() //nolint:errcheck // benchmark teardown
	cfg := cachemgr.Config{Backing: rblock.RemoteStore{C: client}, WarmProfile: "centos", ZeroCopy: true}
	peerCfg := cfg
	peerCfg.Dir = b.TempDir()
	peer, err := cachemgr.New(peerCfg)
	if err != nil {
		b.Fatal(err)
	}
	defer peer.Close() //nolint:errcheck // benchmark teardown
	lease, err := peer.Acquire(base)
	if err != nil {
		b.Fatal(err)
	}
	lease.Release()
	addr, err := peer.ServePeers("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	cfg.Peers = []string{addr}
	root := b.TempDir()

	var pulled int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		nodeCfg := cfg
		nodeCfg.Dir = filepath.Join(root, "node")
		node, err := cachemgr.New(nodeCfg)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		sess, err := node.Boot(base, "vm")
		if err != nil {
			b.Fatal(err)
		}
		if err := sess.Close(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		st := node.Stats()
		if st.PeerFetches != 1 {
			b.Fatalf("op %d: %d peer fetches, want 1", i, st.PeerFetches)
		}
		pulled += st.PeerFetchBytes
		if err := node.Close(); err != nil {
			b.Fatal(err)
		}
		if err := os.RemoveAll(nodeCfg.Dir); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(pulled)/float64(b.N)/1e6, "peer-MB/op")
}
