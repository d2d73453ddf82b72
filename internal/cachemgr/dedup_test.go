package cachemgr_test

import (
	"bytes"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vmicache/internal/backend"
	"vmicache/internal/cachemgr"
	"vmicache/internal/core"
	"vmicache/internal/dedup"
	"vmicache/internal/qcow"
	"vmicache/internal/rblock"
)

// addBaseContent installs a base image with explicit content, so tests can
// build sibling images sharing most of their bytes.
func (s *storageNode) addBaseContent(t *testing.T, name string, content []byte) {
	t.Helper()
	size := int64(len(content))
	f := backend.NewMemFileSize(size)
	if err := backend.WriteFull(f, content, 0); err != nil {
		t.Fatal(err)
	}
	s.store.Remove(name) //nolint:errcheck // may not exist (rebuild case)
	ns := core.NewNamespace("s", s.store)
	if err := core.CreateBase(ns, core.Locator{Store: "s", Name: name}, size, 16,
		qcow.RawSource{R: f, N: size}); err != nil {
		t.Fatalf("CreateBase %s: %v", name, err)
	}
	s.patterns[name] = content
}

// siblings returns v1 plus a copy with the last eighth rewritten — the
// rebuilt-image shape the dedup tier is designed around. Content is random,
// hence incompressible: byte counts measure dedup, not flate.
func siblings(size int) (v1, v2 []byte) {
	v1 = make([]byte, size)
	rand.New(rand.NewSource(42)).Read(v1)
	v2 = append([]byte{}, v1...)
	rand.New(rand.NewSource(43)).Read(v2[size*7/8:])
	return v1, v2
}

// bootAndCheck boots vmID from base and verifies the full image content.
func bootAndCheck(t *testing.T, m *cachemgr.Manager, s *storageNode, base, vmID string) {
	t.Helper()
	sess, err := m.Boot(base, vmID)
	if err != nil {
		t.Fatalf("boot %s: %v", base, err)
	}
	defer sess.Close() //nolint:errcheck
	want := s.patterns[base]
	buf := make([]byte, len(want))
	if err := backend.ReadFull(sess.Chain, buf, 0); err != nil {
		t.Fatalf("read %s: %v", base, err)
	}
	if !bytes.Equal(buf, want) {
		t.Fatalf("%s served wrong content", base)
	}
}

// blobTreeBytes walks <dir>/dedup/packs and sums file sizes — the ground
// truth the pool reservation must match.
func blobTreeBytes(t *testing.T, dir string) int64 {
	t.Helper()
	var total int64
	err := filepath.WalkDir(filepath.Join(dir, "dedup", "packs"), func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		fi, err := d.Info()
		if err != nil {
			return err
		}
		total += fi.Size()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return total
}

// TestDedupSiblingSharingAndAccounting is the eviction-accounting
// regression test: two pinned sibling caches must charge their shared
// chunks against the budget exactly once, the reservation must equal the
// physical blob tree, and unique storage must stay well under 2×.
func TestDedupSiblingSharingAndAccounting(t *testing.T) {
	s := newStorageNode(t)
	v1, v2 := siblings(4 * mb)
	s.addBaseContent(t, "v1.img", v1)
	s.addBaseContent(t, "v2.img", v2)
	m := newManager(t, s, func(c *cachemgr.Config) { c.Dedup = true })

	// Keep both sessions open: both caches pinned while stats are read.
	s1, err := m.Boot("v1.img", "vm1")
	if err != nil {
		t.Fatal(err)
	}
	defer s1.Close() //nolint:errcheck
	oneImage := m.Stats().Dedup.UniqueCompBytes
	s2, err := m.Boot("v2.img", "vm2")
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close() //nolint:errcheck

	st := m.Stats()
	if st.Dedup.Manifests != 2 {
		t.Fatalf("manifests = %d, want 2", st.Dedup.Manifests)
	}
	if st.Dedup.SharedBytes == 0 {
		t.Fatal("sibling caches share no chunks")
	}
	// Storing the sibling must cost roughly its delta, not a second copy.
	if st.Dedup.UniqueCompBytes > oneImage*13/10 {
		t.Fatalf("unique bytes %d > 1.3× one image (%d)", st.Dedup.UniqueCompBytes, oneImage)
	}
	// The budget charge is the physical blob tree, counted once — not the
	// per-cache sum, which would double-charge every shared chunk.
	if st.Reserved != st.Dedup.UniqueCompBytes {
		t.Fatalf("reserved %d != unique bytes %d", st.Reserved, st.Dedup.UniqueCompBytes)
	}
	if disk := blobTreeBytes(t, m.Dir()); st.Reserved != disk {
		t.Fatalf("reserved %d != blob tree on disk %d", st.Reserved, disk)
	}
}

// TestDedupRehydrate loses the published cache file (as eviction or a crash
// would) but keeps the dedup tier: the next acquire must rebuild the cache
// from local blobs without a cold warm or peer fetch.
func TestDedupRehydrate(t *testing.T) {
	s := newStorageNode(t)
	const size = 4 * mb
	s.addBase(t, "base.img", size, 7)
	dir := t.TempDir()
	mk := func() *cachemgr.Manager {
		return newManager(t, s, func(c *cachemgr.Config) {
			c.Dir = dir
			c.Dedup = true
		})
	}
	m := mk()
	bootAndCheck(t, m, s, "base.img", "vm1")
	key := m.KeyFor("base.img")
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, key)); err != nil {
		t.Fatal(err)
	}

	m2 := mk()
	bootAndCheck(t, m2, s, "base.img", "vm2")
	st := m2.Stats()
	if st.DedupRehydrations != 1 {
		t.Fatalf("rehydrations = %d, want 1", st.DedupRehydrations)
	}
	if st.ColdWarms != 0 || st.PeerFetches != 0 || st.DedupDeltaWarms != 0 {
		t.Fatalf("rehydration touched the network: %+v", st)
	}
	if st.DedupImageHashes != 1 {
		t.Fatalf("rehydration hashed the whole image %d times, want 1", st.DedupImageHashes)
	}
}

// TestDedupRehydrateCorruptBlob poisons a blob under a surviving manifest:
// rehydration must detect it, drop the manifest, and fall back to a cold
// warm that still serves correct content.
func TestDedupRehydrateCorruptBlob(t *testing.T) {
	s := newStorageNode(t)
	const size = 2 * mb
	s.addBase(t, "base.img", size, 8)
	dir := t.TempDir()
	mk := func() *cachemgr.Manager {
		return newManager(t, s, func(c *cachemgr.Config) {
			c.Dir = dir
			c.Dedup = true
		})
	}
	m := mk()
	bootAndCheck(t, m, s, "base.img", "vm1")
	key := m.KeyFor("base.img")
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, key)); err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the middle of the pack: inside some blob's record.
	packs, err := filepath.Glob(filepath.Join(dir, "dedup", "packs", "*.pk"))
	if err != nil || len(packs) != 1 {
		t.Fatalf("want one pack to corrupt, found %v (%v)", packs, err)
	}
	b, err := os.ReadFile(packs[0])
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xFF
	if err := os.WriteFile(packs[0], b, 0o644); err != nil {
		t.Fatal(err)
	}

	m2 := mk()
	bootAndCheck(t, m2, s, "base.img", "vm2")
	st := m2.Stats()
	if st.DedupRehydrations != 0 {
		t.Fatal("corrupt blob rehydrated")
	}
	if st.ColdWarms != 1 {
		t.Fatalf("cold warms = %d, want 1 (fallback)", st.ColdWarms)
	}
}

// TestDedupRehydrateCorruptResident rehydrates v2 on a node whose resident v1
// cache holds a bad byte in a chunk v2 shares: the materialization fails its
// checksum and names v1, v1 leaves the pool, and the second attempt rebuilds
// v2 from the packs, with no network.
func TestDedupRehydrateCorruptResident(t *testing.T) {
	s := newStorageNode(t)
	v1, v2 := siblings(2 * mb)
	s.addBaseContent(t, "v1.img", v1)
	s.addBaseContent(t, "v2.img", v2)
	dir := t.TempDir()
	mk := func() *cachemgr.Manager {
		return newManager(t, s, func(c *cachemgr.Config) { c.Dir, c.Dedup = dir, true })
	}
	m := mk()
	bootAndCheck(t, m, s, "v1.img", "vm1")
	bootAndCheck(t, m, s, "v2.img", "vm2")
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	v2Path := filepath.Join(dir, m.KeyFor("v2.img"))
	shared := make(map[dedup.Key]bool)
	for _, e := range fileManifest(t, v2Path).Entries {
		shared[e.Hash] = true
	}
	if err := os.Remove(v2Path); err != nil {
		t.Fatal(err)
	}
	v1Path := filepath.Join(dir, m.KeyFor("v1.img"))
	var off int64
	for _, e := range fileManifest(t, v1Path).Entries {
		if shared[e.Hash] && off > 0 {
			break
		}
		off += int64(e.Len)
	}
	flipByte(t, v1Path, off+100)

	m2 := mk()
	bootAndCheck(t, m2, s, "v2.img", "vm3")
	st := m2.Stats()
	if st.DedupRehydrations != 1 || st.ColdWarms != 0 || st.DroppedCorrupt != 1 {
		t.Fatalf("v2 was not rebuilt from the packs past the corrupt v1: %+v", st)
	}
	if _, err := os.Stat(v1Path); !os.IsNotExist(err) {
		t.Fatalf("v1's corrupt file is still there: %v", err)
	}
}

// TestDedupDeltaWarm stands up two dedup nodes: A warms two sibling images
// from storage, B pulls both manifest-first from A. The first pull moves the
// whole image (as chunks); the second must reuse B's local chunks and move
// only about the siblings' delta.
func TestDedupDeltaWarm(t *testing.T) {
	s := newStorageNode(t)
	const size = 4 * mb
	v1, v2 := siblings(size)
	s.addBaseContent(t, "v1.img", v1)
	s.addBaseContent(t, "v2.img", v2)

	a := newManager(t, s, func(c *cachemgr.Config) { c.Dedup = true })
	bootAndCheck(t, a, s, "v1.img", "a1")
	bootAndCheck(t, a, s, "v2.img", "a2")
	addr, err := a.ServePeers("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	b := newManager(t, s, func(c *cachemgr.Config) {
		c.Dedup = true
		c.Peers = []string{addr}
	})
	bootAndCheck(t, b, s, "v1.img", "b1")
	st1 := b.Stats()
	if st1.DedupDeltaWarms != 1 {
		t.Fatalf("delta warms after v1 = %d, want 1", st1.DedupDeltaWarms)
	}
	if st1.PeerFetches != 0 || st1.ColdWarms != 0 {
		t.Fatalf("v1 warm took the wrong path: %+v", st1)
	}

	bootAndCheck(t, b, s, "v2.img", "b2")
	st2 := b.Stats()
	if st2.DedupDeltaWarms != 2 {
		t.Fatalf("delta warms after v2 = %d, want 2", st2.DedupDeltaWarms)
	}
	wire2 := st2.DedupDeltaBytes - st1.DedupDeltaBytes
	if st2.DedupReusedBytes <= st1.DedupReusedBytes {
		t.Fatal("v2 warm reused no local chunks")
	}
	// v2 differs from v1 in its last eighth; the second transfer must move
	// about that much, not the whole image. The bound leaves room for
	// chunks straddling the delta boundary and container metadata.
	delta := int64(size / 8)
	if limit := delta*12/10 + 256<<10; wire2 > limit {
		t.Fatalf("v2 delta warm moved %d bytes, want <= %d (delta %d)", wire2, limit, delta)
	}
	if wire2 >= st1.DedupDeltaBytes/2 {
		t.Fatalf("v2 moved %d bytes, not much better than the full %d", wire2, st1.DedupDeltaBytes)
	}
}

// TestDedupInvalidate rebuilds a base image: Invalidate must retire the old
// cache, the next boot must serve the new content, and the re-publication
// must store only the chunks that changed.
func TestDedupInvalidate(t *testing.T) {
	s := newStorageNode(t)
	const size = 4 * mb
	v1, v2 := siblings(size)
	s.addBaseContent(t, "base.img", v1)
	m := newManager(t, s, func(c *cachemgr.Config) { c.Dedup = true })

	bootAndCheck(t, m, s, "base.img", "vm1")
	before := m.Stats().Dedup

	s.addBaseContent(t, "base.img", v2) // the rebuild
	if err := m.Invalidate("base.img"); err != nil {
		t.Fatal(err)
	}
	bootAndCheck(t, m, s, "base.img", "vm2")
	after := m.Stats().Dedup
	if after.Manifests != 1 {
		t.Fatalf("manifests = %d, want 1 (retired manifest not dropped)", after.Manifests)
	}
	// Peak storage during the overlap is bounded by sharing: had the
	// retired manifest not kept its chunks alive, the rebuilt image would
	// re-store everything; had it shared nothing, unique bytes would have
	// doubled. Post-drop, the old-only chunks must be gone again.
	if after.UniqueCompBytes > before.UniqueCompBytes*13/10 {
		t.Fatalf("rebuild did not share chunks: %d -> %d unique bytes",
			before.UniqueCompBytes, after.UniqueCompBytes)
	}
	if disk := blobTreeBytes(t, m.Dir()); disk != after.UniqueCompBytes {
		t.Fatalf("blob tree %d != accounted unique bytes %d", disk, after.UniqueCompBytes)
	}
}

// TestDedupManifestShedding squeezes the budget until the blob reservation
// alone cannot fit: manifests of evicted caches must be shed rather than
// wedging the pool over budget forever.
func TestDedupManifestShedding(t *testing.T) {
	s := newStorageNode(t)
	const size = 2 * mb
	s.addBase(t, "a.img", size, 21)
	s.addBase(t, "b.img", size, 22)
	// Budget fits one cache file plus its blobs, with headroom, but not
	// two caches' worth of both.
	m := newManager(t, s, func(c *cachemgr.Config) {
		c.Dedup = true
		c.Budget = 5 * mb
	})
	bootAndCheck(t, m, s, "a.img", "vm1")
	bootAndCheck(t, m, s, "b.img", "vm2")
	st := m.Stats()
	if st.Budget > 0 && st.Used+st.Reserved > st.Budget {
		t.Fatalf("pool wedged over budget: used %d + reserved %d > %d",
			st.Used, st.Reserved, st.Budget)
	}
	if got := st.Dedup.Manifests; got != 1 {
		t.Fatalf("manifests = %d, want 1 (evicted cache's manifest shed)", got)
	}
	// The surviving manifest must belong to the resident cache.
	if st.Resident != 1 {
		t.Fatalf("resident = %d, want 1", st.Resident)
	}
}

// TestDedupDisabledUntouched double-checks the default path: no dedup
// directory, no reservation, zero dedup stats.
func TestDedupDisabledUntouched(t *testing.T) {
	s := newStorageNode(t)
	s.addBase(t, "base.img", 1*mb, 30)
	m := newManager(t, s, nil)
	bootAndCheck(t, m, s, "base.img", "vm1")
	st := m.Stats()
	if st.Reserved != 0 || st.Dedup.Manifests != 0 {
		t.Fatalf("dedup active without Config.Dedup: %+v", st)
	}
	if _, err := os.Stat(filepath.Join(m.Dir(), "dedup")); !os.IsNotExist(err) {
		t.Fatalf("dedup directory created: %v", err)
	}
	if out := st.String(); strings.Contains(out, "dedup:") {
		t.Fatalf("stats mention dedup: %s", out)
	}
}

// TestDedupPeerExportGating makes sure peers only see manifests of caches
// this node could also serve wholesale (published and resident).
func TestDedupPeerExportGating(t *testing.T) {
	s := newStorageNode(t)
	s.addBase(t, "base.img", 1*mb, 31)
	m := newManager(t, s, func(c *cachemgr.Config) { c.Dedup = true })
	bootAndCheck(t, m, s, "base.img", "vm1")
	addr, err := m.ServePeers("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := rblock.Dial(addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close() //nolint:errcheck
	key := m.KeyFor("base.img")
	if _, err := c.FetchManifest(key); err != nil {
		t.Fatalf("resident manifest: %v", err)
	}
	if _, err := c.FetchManifest(m.KeyFor("ghost.img")); err == nil {
		t.Fatal("non-resident manifest served")
	}
	if _, err := c.FetchChunkBatch([][rblock.HashLen]byte{{1, 2, 3}}); err == nil {
		t.Fatal("unknown chunk served")
	}
}
