package cachemgr_test

// End-to-end zero-copy: a manager configured with ZeroCopy serves wholesale
// peer pulls of its published caches through the sendfile reply path
// (published caches are immutable OS files — exactly the fast path's
// contract), and boot sessions copy warm reads from the one mapping their
// cache's table set holds. Both are proven by byte identity plus the
// respective effectiveness counters; a fault under the mapping is an error
// of one session, not a crash.

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"vmicache/internal/backend"
	"vmicache/internal/cachemgr"
)

func TestPeerTransferZeroCopy(t *testing.T) {
	s := newStorageNode(t)
	const size = 4 * mb
	s.addBase(t, "base.img", size, 21)

	mgrA := newManager(t, s, func(c *cachemgr.Config) { c.ZeroCopy = true })
	leaseA, err := mgrA.Acquire("base.img")
	if err != nil {
		t.Fatalf("warming node A: %v", err)
	}
	leaseA.Release()
	exportAddr, err := mgrA.ServePeers("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ServePeers: %v", err)
	}

	mgrB := newManager(t, s, func(c *cachemgr.Config) { c.Peers = []string{exportAddr} })
	leaseB, err := mgrB.Acquire("base.img")
	if err != nil {
		t.Fatalf("warming node B: %v", err)
	}
	leaseB.Release()
	if st := mgrB.Stats(); st.PeerFetches != 1 {
		t.Fatalf("peer fetches = %d, want 1", st.PeerFetches)
	}

	// The wholesale pull must have ridden the sendfile path without a single
	// fallback: the only export it opens is the immutable published file.
	expStats, ok := mgrA.ExportStats()
	if !ok {
		t.Fatal("node A not exporting")
	}
	if expStats.ZeroCopySegments == 0 || expStats.ZeroCopyBytes == 0 {
		t.Fatalf("peer pull skipped the zero-copy path: %+v", expStats)
	}
	if expStats.ZeroCopyFallbacks != 0 {
		t.Fatalf("zero-copy fallbacks on a published cache pull: %d", expStats.ZeroCopyFallbacks)
	}

	// Content through B is byte-identical to the base.
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
		t.Fatal("node B served wrong content after zero-copy pull")
	}
}

// TestBootMmapWarm: two sessions of one published cache read it through
// the one mapping of its table set — the writable CoW top never maps — and
// the bytes match the base. The set unmaps once, after it is retired and
// both sessions have closed.
func TestBootMmapWarm(t *testing.T) {
	s := newStorageNode(t)
	const size = 2 * mb
	s.addBase(t, "base.img", size, 22)
	m := newManager(t, s, nil)
	var sessions []*cachemgr.Session
	for _, vm := range []string{"vm0", "vm1"} {
		sess, err := m.Boot("base.img", vm)
		if err != nil {
			t.Fatalf("Boot: %v", err)
		}
		defer sess.Close() //nolint:errcheck // closed below
		readAll(t, sess, s.patterns["base.img"])
		cache := sess.Chain.CacheImage()
		if got, local := cache.Stats().MmapReadBytes.Load(), cache.Stats().LocalBytes.Load(); got != local || got == 0 {
			t.Fatalf("%s: %d of %d local bytes copied from the mapping", vm, got, local)
		}
		if sess.Chain.Top().Stats().MmapReads.Load() != 0 {
			t.Fatal("the writable CoW top read through a mapping")
		}
		sessions = append(sessions, sess)
	}
	set := sessions[0].TableSet()
	if set != sessions[1].TableSet() {
		t.Fatal("two sessions of one cache instance carried different sets")
	}
	if maps, unmaps := set.Mappings(); maps != 1 || unmaps != 0 {
		t.Fatalf("%d maps, %d unmaps with both sessions open; want 1, 0", maps, unmaps)
	}
	if err := m.Invalidate("base.img"); err != nil {
		t.Fatal(err)
	}
	readAll(t, sessions[1], s.patterns["base.img"])
	for i, sess := range sessions {
		if err := sess.Close(); err != nil {
			t.Fatal(err)
		}
		if _, unmaps := set.Mappings(); unmaps != i {
			t.Fatalf("%d unmaps after %d of 2 sessions closed", unmaps, i+1)
		}
	}
}

// TestMappingFaultIsolated truncates one published cache under a live
// session (run with -race): that session's next read is an error, a session
// on another cache keeps reading the right bytes, and the process lives.
func TestMappingFaultIsolated(t *testing.T) {
	s := newStorageNode(t)
	s.addBase(t, "a.img", mb, 31)
	s.addBase(t, "b.img", mb, 32)
	dir := t.TempDir()
	m := newManager(t, s, func(cfg *cachemgr.Config) { cfg.Dir = dir })
	a, err := m.Boot("a.img", "vma")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close() //nolint:errcheck // failing by design
	b, err := m.Boot("b.img", "vmb")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close() //nolint:errcheck // checked below
	readAll(t, a, s.patterns["a.img"])
	readAll(t, b, s.patterns["b.img"])

	path := filepath.Join(dir, m.KeyFor("a.img"))
	if err := os.Chmod(path, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, 4096); err != nil {
		t.Fatal(err)
	}
	if err := readBack(a, s.patterns["a.img"]); err == nil {
		t.Fatal("a session on a truncated cache read without an error")
	}
	readAll(t, b, s.patterns["b.img"])
	if n := b.Chain.CacheImage().Stats().MmapReads.Load(); n == 0 {
		t.Fatal("the other session did not read through its mapping")
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
}
