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
	p.srv = rblock.NewServer(backend.NewMemStore(), rblock.ServerOpts{ReadOnly: true, Chunks: p})
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

func (p *relayPeer) ChunkBlob(hash [rblock.HashLen]byte) ([]byte, int64, error) {
	comp, rawLen, err := p.up.FetchChunk(hash)
	if err != nil {
		return nil, 0, err
	}
	comp = append([]byte(nil), comp...)
	if n := p.chunks.Add(1); p.chunk != nil {
		comp = p.chunk(n, comp)
	}
	return comp, rawLen, nil
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

// TestDeltaWarmHandoff pins the hand-off: a delta warm inflates each manifest
// entry exactly once — the fetched chunks on arrival, the local ones on decode
// — and with the budget forced to nothing every fetched chunk is decoded a
// second time from the store instead, into a byte-identical published file.
func TestDeltaWarmHandoff(t *testing.T) {
	r := newDeltaRig(t)
	up, err := rblock.Dial(r.aAddr, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer up.Close() //nolint:errcheck
	var published [][]byte
	for _, budget := range []int64{-1, 0} {
		dir := t.TempDir()
		seed := newManager(t, r.s, func(c *cachemgr.Config) { c.Dir, c.Dedup = dir, true })
		bootAndCheck(t, seed, r.s, "v1.img", "n1")
		if err := seed.Close(); err != nil {
			t.Fatal(err)
		}
		if budget >= 0 {
			cachemgr.SetDeltaHandoffBudget(t, budget)
		}
		n := newManager(t, r.s, func(c *cachemgr.Config) { c.Dir, c.Dedup, c.Peers = dir, true, []string{r.aAddr} })
		bootAndCheck(t, n, r.s, "v2.img", "n2")
		st := n.Stats()
		enc, err := up.FetchManifest(n.KeyFor("v2.img"))
		if err != nil {
			t.Fatal(err)
		}
		man, err := dedup.DecodeManifest(enc)
		if err != nil {
			t.Fatal(err)
		}
		entries, fetched := int64(len(man.Entries)), st.Dedup.Writes
		if st.DedupDeltaWarms != 1 || fetched == 0 || fetched >= entries {
			t.Fatalf("budget %d: not a delta warm of some chunks: %d fetched of %d (%+v)", budget, fetched, entries, st)
		}
		want := entries
		if budget == 0 {
			want += fetched
		}
		if st.Dedup.Decodes != want {
			t.Errorf("budget %d: %d chunks inflated for %d entries, %d of them fetched; want %d",
				budget, st.Dedup.Decodes, entries, fetched, want)
		}
		b, err := os.ReadFile(filepath.Join(dir, n.KeyFor("v2.img")))
		if err != nil {
			t.Fatal(err)
		}
		published = append(published, b)
	}
	if !bytes.Equal(published[0], published[1]) {
		t.Fatal("the published file depends on the hand-off budget")
	}
}
