package cachemgr_test

import (
	"crypto/sha256"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"vmicache/internal/cachemgr"
)

// TestDeltaWarmSyncBudget pins what a delta warm costs in durability work and
// hashing, the way TestProfileWarmSyscallBudget pins the cold warm's writes.
// Node B warms three images from peer A — one with every chunk missing, one
// with an eighth missing, one with half missing. The store's fsyncs per warm
// must be the same small constant whatever the number of chunks landed (one
// for the pack, one for the pack directory when the pack is new, two for the
// manifest; the cache file adds its own two: the materialized temp and the
// rename's directory — six in all, budget eight), each landed chunk must be
// one container write, and the whole image must be hashed exactly once.
func TestDeltaWarmSyncBudget(t *testing.T) {
	s := newStorageNode(t)
	const size = 4 * mb
	v1, v2 := siblings(size)
	v3 := append([]byte{}, v1...)
	rand.New(rand.NewSource(44)).Read(v3[size/2:])
	images := []string{"v1.img", "v2.img", "v3.img"}
	for i, content := range [][]byte{v1, v2, v3} {
		s.addBaseContent(t, images[i], content)
	}

	a := newManager(t, s, func(c *cachemgr.Config) { c.Dedup = true })
	for i, name := range images {
		bootAndCheck(t, a, s, name, "a"+string(rune('0'+i)))
	}
	addr, err := a.ServePeers("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	b := newManager(t, s, func(c *cachemgr.Config) {
		c.Dedup = true
		c.Peers = []string{addr}
	})

	var landed []int64
	prev := b.Stats()
	for i, name := range images {
		bootAndCheck(t, b, s, name, "b"+string(rune('0'+i)))
		st := b.Stats()
		if got := st.DedupDeltaWarms - prev.DedupDeltaWarms; got != 1 {
			t.Fatalf("%s: %d delta warms, want 1 (%+v)", name, got, st)
		}
		syncs := st.Dedup.Syncs - prev.Dedup.Syncs
		writes := st.Dedup.Writes - prev.Dedup.Writes
		want := int64(3)
		if i == 0 {
			want = 4 // the pack is new: its directory entry is synced once
		}
		if syncs != want {
			t.Errorf("%s: store issued %d fsyncs for %d landed chunks, want %d", name, syncs, writes, want)
		}
		if blobs := int64(st.Dedup.Blobs - prev.Dedup.Blobs); writes != blobs || writes == 0 {
			t.Errorf("%s: %d container writes for %d new blobs", name, writes, blobs)
		}
		if got := st.DedupImageHashes - prev.DedupImageHashes; got != 1 {
			t.Errorf("%s: whole image hashed %d times, want 1", name, got)
		}
		landed = append(landed, writes)
		prev = st
	}
	// The three warms must differ enough in size for "constant" to mean
	// something.
	if landed[0] < 4*landed[1] || landed[2] < 2*landed[1] {
		t.Fatalf("landed chunks %v: the warms are too alike to show independence", landed)
	}
	t.Logf("chunks landed per warm %v, store fsyncs %d", landed, prev.Dedup.Syncs)
}

// TestDeltaWarmLeavesLinkedStoreIntact replays bench/e2e's node template:
// a node directory holding v1's cache and packs is hard-linked, and the copy
// delta-warms v2. Sealed packs are never written, so every file of the
// template must still hold the bytes it held, and the template must still
// serve v1.
func TestDeltaWarmLeavesLinkedStoreIntact(t *testing.T) {
	s := newStorageNode(t)
	v1, v2 := siblings(2 * mb)
	s.addBaseContent(t, "v1.img", v1)
	s.addBaseContent(t, "v2.img", v2)
	a := newManager(t, s, func(c *cachemgr.Config) { c.Dedup = true })
	bootAndCheck(t, a, s, "v2.img", "a1")
	addr, err := a.ServePeers("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	template := t.TempDir()
	tm := newManager(t, s, func(c *cachemgr.Config) { c.Dir, c.Dedup = template, true })
	bootAndCheck(t, tm, s, "v1.img", "t1")
	if err := tm.Close(); err != nil {
		t.Fatal(err)
	}
	digest := func() map[string][sha256.Size]byte {
		out := make(map[string][sha256.Size]byte)
		err := filepath.WalkDir(template, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			b, err := os.ReadFile(path)
			out[path] = sha256.Sum256(b)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	before := digest()

	node := filepath.Join(t.TempDir(), "node")
	err = filepath.WalkDir(template, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(template, path)
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(node, rel), 0o755)
		}
		return os.Link(path, filepath.Join(node, rel))
	})
	if err != nil {
		t.Fatal(err)
	}
	n := newManager(t, s, func(c *cachemgr.Config) {
		c.Dir, c.Dedup, c.Peers = node, true, []string{addr}
	})
	bootAndCheck(t, n, s, "v2.img", "n1")
	if st := n.Stats(); st.DedupDeltaWarms != 1 || st.DedupReusedBytes == 0 || st.ColdWarms != 0 {
		t.Fatalf("linked node did not delta-warm v2 on top of v1's chunks: %+v", st)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}

	after := digest()
	if len(after) != len(before) {
		t.Fatalf("template has %d files, had %d", len(after), len(before))
	}
	for path, sum := range before {
		if after[path] != sum {
			t.Fatalf("%s changed through the hard-linked node", path)
		}
	}
	tm2 := newManager(t, s, func(c *cachemgr.Config) { c.Dir, c.Dedup = template, true })
	bootAndCheck(t, tm2, s, "v1.img", "t2")
	if st := tm2.Stats(); st.ColdWarms+st.DedupRehydrations+st.DedupDeltaWarms != 0 {
		t.Fatalf("template had to warm v1 again: %+v", st)
	}
}
