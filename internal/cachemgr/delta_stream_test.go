package cachemgr_test

import (
	"bytes"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"vmicache/internal/backend"
	"vmicache/internal/cachemgr"
	"vmicache/internal/dedup"
	"vmicache/internal/rblock"
)

// relayPeer is a -dedup peer that relays an honest peer's manifests and
// chunks, so a test can corrupt either on the way or die part-way through.
type relayPeer struct {
	up        *rblock.Client
	srv       *rblock.Server
	addr      string
	manifests atomic.Int64
	chunks    atomic.Int64
	manifest  func(enc []byte) []byte
	chunk     func(n int64, comp []byte) []byte // n counts the chunks served, from 1
}

func newRelayPeer(t *testing.T, upstream string) *relayPeer {
	t.Helper()
	up, err := rblock.Dial(upstream, 0)
	if err != nil {
		t.Fatal(err)
	}
	p := &relayPeer{up: up}
	p.srv = rblock.NewServer(backend.NewMemStore(), rblock.ServerOpts{Chunks: p})
	if p.addr, err = p.srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		p.srv.Close() //nolint:errcheck
		up.Close()    //nolint:errcheck
	})
	return p
}

func (p *relayPeer) EncodedManifest(name string) ([]byte, error) {
	enc, err := p.up.FetchManifest(name)
	if err != nil {
		return nil, err
	}
	p.manifests.Add(1)
	enc = append([]byte(nil), enc...)
	if p.manifest != nil {
		enc = p.manifest(enc)
	}
	return enc, nil
}

func (p *relayPeer) ChunkBlob(hash [rblock.HashLen]byte) ([]byte, error) {
	blobs, err := p.up.FetchChunkBatch([][rblock.HashLen]byte{hash})
	if err != nil {
		return nil, err
	}
	comp := blobs[0]
	if n := p.chunks.Add(1); p.chunk != nil {
		comp = p.chunk(n, comp)
	}
	return comp, nil
}

// deltaRig is the set-up the failure tests share: peer A holds v2, node B
// holds v1 (warmed before it knew any peer) and is reopened with peers.
type deltaRig struct {
	s     *storageNode
	aAddr string
	bDir  string
}

func newDeltaRig(t *testing.T) *deltaRig {
	t.Helper()
	r := &deltaRig{s: newStorageNode(t), bDir: t.TempDir()}
	v1, v2 := siblings(4 * mb)
	r.s.addBaseContent(t, "v1.img", v1)
	r.s.addBaseContent(t, "v2.img", v2)
	a := newManager(t, r.s, func(c *cachemgr.Config) { c.Dedup = true })
	bootAndCheck(t, a, r.s, "v2.img", "a1")
	var err error
	if r.aAddr, err = a.ServePeers("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	b := newManager(t, r.s, func(c *cachemgr.Config) { c.Dir, c.Dedup = r.bDir, true })
	bootAndCheck(t, b, r.s, "v1.img", "b1")
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	return r
}

// node reopens B with the given peers.
func (r *deltaRig) node(t *testing.T, peers ...string) *cachemgr.Manager {
	return newManager(t, r.s, func(c *cachemgr.Config) { c.Dir, c.Dedup, c.Peers = r.bDir, true, peers })
}

// checkFellBack asserts a failed delta warm left nothing behind on B — no
// temp image, no stage hold, v1's manifest and chunks still whole — and that
// v2 was served by a later source.
func (r *deltaRig) checkFellBack(t *testing.T, b *cachemgr.Manager) cachemgr.Stats {
	t.Helper()
	st := b.Stats()
	if st.DedupDeltaWarms != 0 {
		t.Fatalf("the delta warm succeeded: %+v", st)
	}
	if st.Dedup.Staged != 0 {
		t.Fatalf("%d stage holds left behind", st.Dedup.Staged)
	}
	if tmps, _ := filepath.Glob(filepath.Join(r.bDir, "*.tmp")); len(tmps) != 0 {
		t.Fatalf("temp images left behind: %v", tmps)
	}
	if st.Dedup.Manifests != 2 {
		t.Fatalf("manifests = %d, want v1's and v2's", st.Dedup.Manifests)
	}
	// v1's chunks survived the failed warm's releases: it rehydrates.
	if err := os.Remove(filepath.Join(r.bDir, b.KeyFor("v1.img"))); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	b2 := r.node(t)
	bootAndCheck(t, b2, r.s, "v1.img", "b3")
	if st2 := b2.Stats(); st2.DedupRehydrations != 1 {
		t.Fatalf("v1 did not rehydrate after the failed warm: %+v", st2)
	}
	return st
}

// TestDeltaWarmPeerDiesMidFetch kills the only peer while chunks are on the
// wire and local chunks are materializing: the warm fails promptly, cleans
// up, and the boot is served by copy-on-read.
func TestDeltaWarmPeerDiesMidFetch(t *testing.T) {
	r := newDeltaRig(t)
	p := newRelayPeer(t, r.aAddr)
	p.chunk = func(n int64, comp []byte) []byte {
		if n == 5 {
			go p.srv.Close() //nolint:errcheck
		}
		return comp
	}
	b := r.node(t, p.addr)
	bootAndCheck(t, b, r.s, "v2.img", "b2")
	if p.chunks.Load() < 5 {
		t.Fatalf("peer served %d chunks, never died", p.chunks.Load())
	}
	if st := r.checkFellBack(t, b); st.ColdWarms != 1 || st.PeerFallbacks != 1 {
		t.Fatalf("fallback took the wrong path: %+v", st)
	}
}

// TestDeltaWarmCorruptChunkOnWire flips a byte in one fetched blob: it is
// refused on arrival, the warm fails, and the next source (the honest peer,
// wholesale) serves the boot.
func TestDeltaWarmCorruptChunkOnWire(t *testing.T) {
	r := newDeltaRig(t)
	p := newRelayPeer(t, r.aAddr)
	p.chunk = func(n int64, comp []byte) []byte {
		if n == 3 {
			comp[len(comp)/2] ^= 0xFF
		}
		return comp
	}
	b := r.node(t, p.addr, r.aAddr)
	bootAndCheck(t, b, r.s, "v2.img", "b2")
	if p.chunks.Load() < 3 {
		t.Fatalf("relay served %d chunks, none corrupted", p.chunks.Load())
	}
	if st := r.checkFellBack(t, b); st.PeerFetches != 1 || st.ColdWarms != 0 {
		t.Fatalf("fallback took the wrong path: %+v", st)
	}
}

// peerManifest fetches key's manifest from the peer at addr.
func peerManifest(t *testing.T, addr, key string) *dedup.Manifest {
	t.Helper()
	up, err := rblock.Dial(addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer up.Close() //nolint:errcheck
	enc, err := up.FetchManifest(key)
	if err != nil {
		t.Fatal(err)
	}
	man, err := dedup.DecodeManifest(enc)
	if err != nil {
		t.Fatal(err)
	}
	return man
}

// fileManifest builds the manifest of the file at path, as its publication
// did.
func fileManifest(t *testing.T, path string) *dedup.Manifest {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close() //nolint:errcheck // read-only handle
	fi, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	man, err := dedup.BuildParallel(f, fi.Size(), dedup.BuildOpts{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return man
}

// removeV1 deletes v1's published file from B's directory while B is closed:
// its chunks are then only in the packs.
func (r *deltaRig) removeV1(t *testing.T) {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(r.bDir, "v1.img-*.vmic"))
	if err != nil || len(files) != 1 {
		t.Fatalf("want v1's one published file, found %v (%v)", files, err)
	}
	if err := os.Remove(files[0]); err != nil {
		t.Fatal(err)
	}
}

// TestDeltaWarmCorruptLocalBlob damages, behind B's store, a blob of v1 that
// v2 shares, while its record is indexed; v1's cache file is gone, so the pack
// is the chunk's only local source. The first v2 warm trips over it: the
// image fails its checksum, the blob is taken out of the index and the boot
// falls back to the peer wholesale, with correct bytes. That publication lands
// the good chunk again, so a later delta warm that needs it succeeds instead of
// falling back once more.
func TestDeltaWarmCorruptLocalBlob(t *testing.T) {
	r := newDeltaRig(t)
	r.removeV1(t)
	b := r.node(t, r.aAddr)
	corruptPackedBlob(t, r.bDir, peerManifest(t, r.aAddr, b.KeyFor("v2.img")))

	bootAndCheck(t, b, r.s, "v2.img", "b2")
	if st := b.Stats(); st.DedupDeltaWarms != 0 || st.PeerFetches != 1 || st.ColdWarms != 0 {
		t.Fatalf("the first v2 warm did not fall back to the peer: %+v", st)
	}
	if err := b.Invalidate("v2.img"); err != nil {
		t.Fatal(err)
	}
	bootAndCheck(t, b, r.s, "v2.img", "b3")
	st := b.Stats()
	if st.DedupDeltaWarms != 1 || st.PeerFetches != 1 || st.ColdWarms != 0 {
		t.Fatalf("the later warm fell back again: %+v", st)
	}
	if st.Dedup.Staged != 0 {
		t.Fatalf("%d stage holds left behind", st.Dedup.Staged)
	}
}

// corruptPackedBlob flips one byte of the payload of the first of man's
// blobs that a pack under dir holds, behind the open store's back: past the
// record header, the raw length and the first stored block's header, so the
// blob still inflates.
func corruptPackedBlob(t *testing.T, dir string, man *dedup.Manifest) {
	t.Helper()
	packs, err := filepath.Glob(filepath.Join(dir, "dedup", "packs", "*.pk"))
	if err != nil || len(packs) != 1 {
		t.Fatalf("want one pack, found %v (%v)", packs, err)
	}
	path := packs[0]
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range man.Entries {
		i := bytes.Index(b, e.Hash[:])
		if i < 0 {
			continue
		}
		at := int64(i + len(e.Hash) + 8 + 8 + 64)
		f, err := os.OpenFile(path, os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close() //nolint:errcheck // test scratch
		if _, err := f.WriteAt([]byte{b[at] ^ 0xFF}, at); err != nil {
			t.Fatal(err)
		}
		return
	}
	t.Fatalf("no blob of the manifest is in %s", path)
}

// TestDeltaWarmLyingManifest serves a manifest whose checksum does not match
// its (honest) chunks: every chunk verifies, the image does not, nothing is
// published from it and the next source serves the boot.
func TestDeltaWarmLyingManifest(t *testing.T) {
	r := newDeltaRig(t)
	p := newRelayPeer(t, r.aAddr)
	p.manifest = func(enc []byte) []byte { enc[16] ^= 1; return enc } // first checksum byte
	b := r.node(t, p.addr, r.aAddr)
	bootAndCheck(t, b, r.s, "v2.img", "b2")
	if p.chunks.Load() == 0 {
		t.Fatal("the lying peer's chunks were never fetched")
	}
	if st := r.checkFellBack(t, b); st.PeerFetches != 1 || st.ColdWarms != 0 {
		t.Fatalf("fallback took the wrong path: %+v", st)
	}
}

// TestDeltaWarmRefusesOversizedImage: a manifest describing more bytes than
// the node's whole budget is refused before a chunk is fetched, not after the
// transfer when publish cannot keep the file.
func TestDeltaWarmRefusesOversizedImage(t *testing.T) {
	r := newDeltaRig(t)
	p := newRelayPeer(t, r.aAddr)
	b := newManager(t, r.s, func(c *cachemgr.Config) {
		c.Dedup, c.Peers, c.Budget = true, []string{p.addr}, 1*mb
	})
	if sess, err := b.Boot("v2.img", "b2"); err == nil {
		sess.Close() //nolint:errcheck
		t.Fatal("a 4 MiB image booted on a 1 MiB node")
	}
	if p.manifests.Load() == 0 || p.chunks.Load() != 0 {
		t.Fatalf("peer served %d manifests and %d chunks, want the manifest only", p.manifests.Load(), p.chunks.Load())
	}
}

// TestDeltaWarmHandoff pins where a delta warm's bytes come from. With v1's
// cache resident, the fetched chunks are inflated once, on arrival, and every
// other entry is copied raw out of v1's file: no chunk a resident cache holds
// is inflated. With the budget forced to nothing every fetched chunk is
// decoded a second time from the store instead; and with v1's file gone every
// local chunk is inflated from the packs. All three publish byte-identical
// files.
func TestDeltaWarmHandoff(t *testing.T) {
	r := newDeltaRig(t)
	var published [][]byte
	for _, tc := range []struct {
		budget   int64
		resident bool
	}{{-1, true}, {0, true}, {0, false}} {
		dir := t.TempDir()
		seed := newManager(t, r.s, func(c *cachemgr.Config) { c.Dir, c.Dedup = dir, true })
		bootAndCheck(t, seed, r.s, "v1.img", "n1")
		if err := seed.Close(); err != nil {
			t.Fatal(err)
		}
		v1Path := filepath.Join(dir, seed.KeyFor("v1.img"))
		held := make(map[dedup.Key]bool)
		for _, e := range fileManifest(t, v1Path).Entries {
			held[e.Hash] = true
		}
		if !tc.resident {
			if err := os.Remove(v1Path); err != nil {
				t.Fatal(err)
			}
		}
		if tc.budget >= 0 {
			cachemgr.SetDeltaHandoffBudget(t, tc.budget)
		}
		n := newManager(t, r.s, func(c *cachemgr.Config) { c.Dir, c.Dedup, c.Peers = dir, true, []string{r.aAddr} })
		bootAndCheck(t, n, r.s, "v2.img", "n2")
		st := n.Stats()
		man := peerManifest(t, r.aAddr, n.KeyFor("v2.img"))
		var copied int64
		for _, e := range man.Entries {
			if held[e.Hash] {
				copied += int64(e.Len)
			}
		}
		entries, fetched := int64(len(man.Entries)), st.Dedup.Writes
		if st.DedupDeltaWarms != 1 || fetched == 0 || fetched >= entries {
			t.Fatalf("%+v: not a delta warm of some chunks: %d fetched of %d (%+v)", tc, fetched, entries, st)
		}
		want := fetched // inflated on arrival
		if tc.budget == 0 {
			want += fetched // and again from the store
		}
		if !tc.resident {
			copied = 0
			want += entries - fetched
		}
		if st.Dedup.Decodes != want {
			t.Errorf("%+v: %d chunks inflated for %d entries, %d of them fetched; want %d",
				tc, st.Dedup.Decodes, entries, fetched, want)
		}
		if st.Dedup.ResidentBytes != copied {
			t.Errorf("%+v: %d bytes copied from v1's file, want %d", tc, st.Dedup.ResidentBytes, copied)
		}
		// Only what crossed the wire is hashed chunk by chunk; the local
		// chunks are covered by the whole-image checksum.
		if st.Dedup.Hashes != fetched {
			t.Errorf("%+v: %d per-chunk hashes for %d fetched chunks", tc, st.Dedup.Hashes, fetched)
		}
		b, err := os.ReadFile(filepath.Join(dir, n.KeyFor("v2.img")))
		if err != nil {
			t.Fatal(err)
		}
		published = append(published, b)
	}
	for _, b := range published[1:] {
		if !bytes.Equal(published[0], b) {
			t.Fatal("the published file depends on the hand-off budget or the resident cache")
		}
	}
}

// flipByte inverts the byte at off of the (read-only) file at path.
func flipByte(t *testing.T, path string, off int64) {
	t.Helper()
	if err := os.Chmod(path, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close() //nolint:errcheck // test scratch
	var c [1]byte
	if _, err := f.ReadAt(c[:], off); err != nil {
		t.Fatal(err)
	}
	c[0] ^= 0xFF
	if _, err := f.WriteAt(c[:], off); err != nil {
		t.Fatal(err)
	}
}

// TestDeltaWarmCorruptResident flips a byte of v1's resident cache file in a
// chunk v2 shares. The v2 delta warm fails its checksum, its re-check finds
// v1's chunk bad and drops v1 from the pool, as recovery drops a corrupt
// cache, and the boot falls back to the peer wholesale. The packs are whole,
// so the next v1 Acquire rebuilds v1 from them.
func TestDeltaWarmCorruptResident(t *testing.T) {
	r := newDeltaRig(t)
	b := r.node(t, r.aAddr)
	v1Path := filepath.Join(r.bDir, b.KeyFor("v1.img"))
	v2 := make(map[dedup.Key]bool)
	for _, e := range peerManifest(t, r.aAddr, b.KeyFor("v2.img")).Entries {
		v2[e.Hash] = true
	}
	v1 := fileManifest(t, v1Path)
	var off int64
	for _, e := range v1.Entries[:len(v1.Entries)/2] {
		off += int64(e.Len)
	}
	for _, e := range v1.Entries[len(v1.Entries)/2:] {
		if v2[e.Hash] {
			break
		}
		off += int64(e.Len)
	}
	flipByte(t, v1Path, off+100)

	bootAndCheck(t, b, r.s, "v2.img", "b2")
	st := b.Stats()
	if st.DedupDeltaWarms != 0 || st.PeerFetches != 1 || st.ColdWarms != 0 {
		t.Fatalf("the v2 warm did not fall back to the peer: %+v", st)
	}
	if _, resident := b.TableSets(); st.DroppedCorrupt != 1 || len(resident) != 1 || resident[0] != b.KeyFor("v2.img") {
		t.Fatalf("v1 was not dropped: %d dropped, resident %v", st.DroppedCorrupt, resident)
	}
	if _, err := os.Stat(v1Path); !os.IsNotExist(err) {
		t.Fatalf("v1's corrupt file is still there: %v", err)
	}
	bootAndCheck(t, b, r.s, "v1.img", "b3")
	if st := b.Stats(); st.DedupRehydrations != 1 || st.ColdWarms != 0 {
		t.Fatalf("v1 was not rebuilt from the packs: %+v", st)
	}
}

// TestDeltaWarmResidentUnlinked invalidates v1 — its file unlinked, its
// manifest retired — while v2's delta warm is copying chunks out of v1's
// file. The warm holds the file open, so it still publishes correct bytes.
func TestDeltaWarmResidentUnlinked(t *testing.T) {
	r := newDeltaRig(t)
	b := r.node(t, r.aAddr)
	invalidated := make(chan error, 1)
	cachemgr.SetOpenResident(t, func(string) {
		go func() { invalidated <- b.Invalidate("v1.img") }()
	})
	bootAndCheck(t, b, r.s, "v2.img", "b2")
	if err := <-invalidated; err != nil {
		t.Fatal(err)
	}
	st := b.Stats()
	if st.DedupDeltaWarms != 1 || st.Dedup.ResidentBytes == 0 {
		t.Fatalf("v2 was not delta-warmed out of v1's file: %+v", st)
	}
	if _, err := os.Stat(filepath.Join(r.bDir, b.KeyFor("v1.img"))); !os.IsNotExist(err) {
		t.Fatalf("v1 was not invalidated: %v", err)
	}
}
