package cachemgr_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"vmicache/internal/backend"
	"vmicache/internal/cachemgr"
	"vmicache/internal/core"
	"vmicache/internal/qcow"
	"vmicache/internal/rblock"
)

const mb = 1 << 20

// storageNode is a test stand-in for the storage node: an rblock server over
// a memory store holding patterned base images.
type storageNode struct {
	store *backend.MemStore
	srv   *rblock.Server
	addr  string
	// patterns maps base name to its full content.
	patterns map[string][]byte
}

func newStorageNode(t testing.TB) *storageNode {
	return newStorageNodeOver(t, nil)
}

// newStorageNodeOver is newStorageNode whose server sees its store through
// wrap (nil: directly); base images are still written to the store itself.
func newStorageNodeOver(t testing.TB, wrap func(backend.Store) backend.Store) *storageNode {
	t.Helper()
	store := backend.NewMemStore()
	var served backend.Store = store
	if wrap != nil {
		served = wrap(store)
	}
	srv := rblock.NewServer(served, rblock.ServerOpts{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("storage listen: %v", err)
	}
	t.Cleanup(func() { srv.Close() }) //nolint:errcheck
	return &storageNode{store: store, srv: srv, addr: addr, patterns: map[string][]byte{}}
}

// addBase installs a patterned base image of the given size.
func (s *storageNode) addBase(t *testing.T, name string, size int64, seed int64) {
	t.Helper()
	pat := make([]byte, size)
	rand.New(rand.NewSource(seed)).Read(pat)
	content := backend.NewMemFileSize(size)
	if err := backend.WriteFull(content, pat, 0); err != nil {
		t.Fatal(err)
	}
	ns := core.NewNamespace("s", s.store)
	if err := core.CreateBase(ns, core.Locator{Store: "s", Name: name}, size, 16,
		qcow.RawSource{R: content, N: size}); err != nil {
		t.Fatalf("CreateBase %s: %v", name, err)
	}
	s.patterns[name] = pat
}

// newManager builds a Manager against the storage node; mut tweaks the
// config before New.
func newManager(t *testing.T, s *storageNode, mut func(*cachemgr.Config)) *cachemgr.Manager {
	t.Helper()
	client, err := rblock.Dial(s.addr, 0)
	if err != nil {
		t.Fatalf("dial storage: %v", err)
	}
	t.Cleanup(func() { client.Close() }) //nolint:errcheck
	cfg := cachemgr.Config{
		Dir:     t.TempDir(),
		Backing: rblock.RemoteStore{C: client},
		Logf:    t.Logf,
	}
	if mut != nil {
		mut(&cfg)
	}
	m, err := cachemgr.New(cfg)
	if err != nil {
		t.Fatalf("cachemgr.New: %v", err)
	}
	t.Cleanup(func() { m.Close() }) //nolint:errcheck
	return m
}

// TestSingleflightConcurrentBoots is the first leg of the acceptance test:
// N concurrent sessions against one cold base produce exactly one backing
// warm-up, and every session reads correct content.
func TestSingleflightConcurrentBoots(t *testing.T) {
	s := newStorageNode(t)
	const size = 4 * mb
	s.addBase(t, "base.img", size, 1)
	m := newManager(t, s, nil)

	const n = 8
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sess, err := m.Boot("base.img", fmt.Sprintf("vm%d", i))
			if err != nil {
				errs[i] = err
				return
			}
			defer sess.Close() //nolint:errcheck
			buf := make([]byte, size)
			if err := backend.ReadFull(sess.Chain, buf, 0); err != nil {
				errs[i] = err
				return
			}
			if !bytes.Equal(buf, s.patterns["base.img"]) {
				errs[i] = fmt.Errorf("vm%d read wrong content", i)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
	}

	st := m.Stats()
	if st.ColdWarms != 1 {
		t.Fatalf("cold warms = %d, want exactly 1 (singleflight)", st.ColdWarms)
	}
	if st.Published != 1 {
		t.Fatalf("published = %d, want 1", st.Published)
	}
	if st.Attaches != n {
		t.Fatalf("attaches = %d, want %d", st.Attaches, n)
	}
	if st.SharedWaits == 0 {
		t.Fatalf("no session waited on the in-flight warm; not concurrent?")
	}
	// The storage node shipped the base once (one warm) plus per-session
	// chain-open metadata — not once per session.
	if got := s.srv.Stats().BytesRead; got >= 2*size {
		t.Fatalf("storage served %d bytes; looks like more than one warm of %d", got, size)
	}
}

// TestPeerTransfer is the second leg: a second manager pulls the published
// cache wholesale from the first over rblock; the storage node sees zero
// read traffic during the transfer (asserted via counters, not wall clock).
func TestPeerTransfer(t *testing.T) {
	s := newStorageNode(t)
	const size = 4 * mb
	s.addBase(t, "base.img", size, 2)

	mgrA := newManager(t, s, nil)
	leaseA, err := mgrA.Acquire("base.img")
	if err != nil {
		t.Fatalf("warming node A: %v", err)
	}
	key := leaseA.Key()
	leaseA.Release()
	exportAddr, err := mgrA.ServePeers("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ServePeers: %v", err)
	}

	mgrB := newManager(t, s, func(c *cachemgr.Config) { c.Peers = []string{exportAddr} })
	if mgrB.KeyFor("base.img") != key {
		t.Fatalf("key mismatch: %s vs %s", mgrB.KeyFor("base.img"), key)
	}

	storageBefore := s.srv.Stats().BytesRead
	leaseB, err := mgrB.Acquire("base.img")
	if err != nil {
		t.Fatalf("warming node B: %v", err)
	}
	if delta := s.srv.Stats().BytesRead - storageBefore; delta != 0 {
		t.Fatalf("peer transfer touched the storage node: %d bytes read", delta)
	}

	stB := mgrB.Stats()
	if stB.PeerFetches != 1 || stB.ColdWarms != 0 {
		t.Fatalf("node B: peer fetches = %d, cold warms = %d; want 1, 0", stB.PeerFetches, stB.ColdWarms)
	}
	cacheSize, err := os.Stat(filepath.Join(mgrB.Dir(), key))
	if err != nil {
		t.Fatalf("published cache on B: %v", err)
	}
	if stB.PeerFetchBytes < cacheSize.Size() {
		t.Fatalf("peer fetch bytes = %d < cache size %d", stB.PeerFetchBytes, cacheSize.Size())
	}
	expStats, ok := mgrA.ExportStats()
	if !ok {
		t.Fatal("node A not exporting")
	}
	img, ok := expStats.PerImage[key]
	if !ok || img.BytesRead < cacheSize.Size() || img.Opens != 1 {
		t.Fatalf("node A export per-image stats: %+v", img)
	}
	leaseB.Release()

	// Content through B is still correct.
	sess, err := mgrB.Boot("base.img", "vmB")
	if err != nil {
		t.Fatalf("booting on B: %v", err)
	}
	defer sess.Close() //nolint:errcheck
	buf := make([]byte, size)
	if err := backend.ReadFull(sess.Chain, buf, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, s.patterns["base.img"]) {
		t.Fatal("node B served wrong content")
	}
}

// TestPeerFallback: a dead peer degrades to copy-on-read warming from the
// storage node instead of failing the boot.
func TestPeerFallback(t *testing.T) {
	s := newStorageNode(t)
	s.addBase(t, "base.img", mb, 3)
	m := newManager(t, s, func(c *cachemgr.Config) {
		c.Peers = []string{"127.0.0.1:1"} // nothing listens here
	})
	lease, err := m.Acquire("base.img")
	if err != nil {
		t.Fatalf("Acquire with dead peer: %v", err)
	}
	lease.Release()
	st := m.Stats()
	if st.PeerFallbacks != 1 || st.ColdWarms != 1 || st.PeerFetches != 0 {
		t.Fatalf("stats after fallback: %+v", st)
	}
}

// TestLRUEvictionUnderBudget is the third leg: the cache directory stays
// under the configured budget, the LRU cache is evicted, and the evicted
// file is actually deleted.
func TestLRUEvictionUnderBudget(t *testing.T) {
	s := newStorageNode(t)
	for i := 0; i < 3; i++ {
		s.addBase(t, fmt.Sprintf("base%d.img", i), mb, int64(10+i))
	}

	// Measure one published cache to size the budget for exactly two.
	probe := newManager(t, s, nil)
	lease, err := probe.Acquire("base0.img")
	if err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(filepath.Join(probe.Dir(), lease.Key()))
	if err != nil {
		t.Fatal(err)
	}
	lease.Release()
	cacheSize := fi.Size()

	m := newManager(t, s, func(c *cachemgr.Config) { c.Budget = 2*cacheSize + cacheSize/2 })
	var keys []string
	for i := 0; i < 3; i++ {
		lease, err := m.Acquire(fmt.Sprintf("base%d.img", i))
		if err != nil {
			t.Fatalf("warming base%d: %v", i, err)
		}
		keys = append(keys, lease.Key())
		lease.Release()
	}

	st := m.Stats()
	if st.Used > st.Budget {
		t.Fatalf("cache dir over budget: %d > %d", st.Used, st.Budget)
	}
	if st.Evictions == 0 {
		t.Fatal("no evictions under a 2-cache budget with 3 caches")
	}
	if st.Resident != 2 {
		t.Fatalf("resident = %d, want 2", st.Resident)
	}
	// base0 was least recently used: its file must be gone from disk.
	if _, err := os.Stat(filepath.Join(m.Dir(), keys[0])); !os.IsNotExist(err) {
		t.Fatalf("evicted cache file still on disk (err=%v)", err)
	}
	for _, k := range keys[1:] {
		if _, err := os.Stat(filepath.Join(m.Dir(), k)); err != nil {
			t.Fatalf("surviving cache %s: %v", k, err)
		}
	}

	// A leased (pinned) cache must survive a displacement attempt.
	lease1, err := m.Acquire("base1.img")
	if err != nil {
		t.Fatal(err)
	}
	lease2, err := m.Acquire("base2.img")
	if err != nil {
		t.Fatal(err)
	}
	lease0, err := m.Acquire("base0.img") // re-warm, would need an eviction
	if err != nil {
		t.Fatalf("re-acquire with all caches pinned: %v", err)
	}
	for _, l := range []*cachemgr.Lease{lease0, lease1, lease2} {
		if _, err := os.Stat(filepath.Join(m.Dir(), l.Key())); err != nil {
			t.Fatalf("pinned cache %s missing: %v", l.Key(), err)
		}
		l.Release()
	}
}

// TestRecoverySeedsPool: a restarted manager re-attaches to caches published
// by its previous life without re-warming.
func TestRecoverySeedsPool(t *testing.T) {
	s := newStorageNode(t)
	s.addBase(t, "base.img", mb, 4)
	dir := t.TempDir()
	m1 := newManager(t, s, func(c *cachemgr.Config) { c.Dir = dir })
	lease, err := m1.Acquire("base.img")
	if err != nil {
		t.Fatal(err)
	}
	lease.Release()
	if err := m1.Close(); err != nil {
		t.Fatal(err)
	}

	before := s.srv.Stats().BytesRead
	m2 := newManager(t, s, func(c *cachemgr.Config) { c.Dir = dir })
	if m2.Stats().Resident != 1 {
		t.Fatalf("resident after restart = %d, want 1", m2.Stats().Resident)
	}
	lease, err = m2.Acquire("base.img")
	if err != nil {
		t.Fatal(err)
	}
	lease.Release()
	st := m2.Stats()
	if st.ColdWarms != 0 || st.PoolHits == 0 {
		t.Fatalf("restart re-warmed: %+v", st)
	}
	if delta := s.srv.Stats().BytesRead - before; delta != 0 {
		t.Fatalf("restart attach touched storage: %d bytes", delta)
	}
}
