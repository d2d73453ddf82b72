package dedup

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// putImage builds data's manifest into s, putting every blob, and commits
// it under name, releasing the stage holds at the end — the full publisher
// protocol.
func putImage(t *testing.T, s *BlobStore, name string, data []byte) *Manifest {
	t.Helper()
	var held []Key
	defer func() { s.Release(held) }()
	m, err := Build(bytes.NewReader(data), int64(len(data)), func(e Entry, raw []byte) error {
		if err := s.Put(e.Hash, raw); err != nil {
			return err
		}
		held = append(held, e.Hash)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(name, m); err != nil {
		t.Fatal(err)
	}
	return m
}

// readImage reassembles a manifest's content from the store.
func readImage(t *testing.T, s *BlobStore, m *Manifest) []byte {
	t.Helper()
	var out []byte
	for _, e := range m.Entries {
		raw, err := s.ReadBlob(e.Hash)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, raw...)
	}
	return out
}

// blobFile reports where blob k's wire bytes sit: the pack file and the
// offset of the payload inside it. Tests use it to damage a blob behind the
// store's back.
func blobFile(t testing.TB, s *BlobStore, k Key) (path string, off int64, wireLen int) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	loc, ok := s.blobs[k]
	if !ok {
		t.Fatalf("blob %v not in the store", k)
	}
	return filepath.Join(s.packDir(), packName(loc.p.seq)), loc.off + recHdrLen, int(loc.wireLen)
}

// corruptBlob flips one byte in the middle of blob k's compressed payload
// on disk (the trailing bytes are only the flate end marker, which a
// length-bounded read never re-checks).
func corruptBlob(t testing.TB, s *BlobStore, k Key) {
	t.Helper()
	path, off, n := blobFile(t, s, k)
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close() //nolint:errcheck // test scratch
	at := off + blobHdrLen + int64(n-blobHdrLen)/2
	var b [1]byte
	if _, err := f.ReadAt(b[:], at); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xFF
	if _, err := f.WriteAt(b[:], at); err != nil {
		t.Fatal(err)
	}
}

// packBytes sums the sizes of the files under the store's packs directory.
func packBytes(t testing.TB, dir string) int64 {
	t.Helper()
	ents, err := os.ReadDir(filepath.Join(dir, packDirName))
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, de := range ents {
		fi, err := de.Info()
		if err != nil {
			t.Fatal(err)
		}
		total += fi.Size()
	}
	return total
}

func TestBlobStoreRoundTrip(t *testing.T) {
	s, err := OpenBlobStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	data := randBytes(1, 2<<20)
	m := putImage(t, s, "img-a", data)
	if got := readImage(t, s, m); !bytes.Equal(got, data) {
		t.Fatal("reassembled image differs")
	}
	st := s.Stats()
	if st.Manifests != 1 || st.LogicalBytes != int64(len(data)) {
		t.Fatalf("stats: %+v", st)
	}
	if st.UniqueRawBytes != int64(len(data)) {
		t.Fatalf("unique raw %d, want %d", st.UniqueRawBytes, len(data))
	}
}

func TestBlobStoreSiblingSharing(t *testing.T) {
	s, err := OpenBlobStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// v2 = v1 with the last 1/8 rewritten — sibling images.
	v1 := randBytes(10, 4<<20)
	v2 := append(append([]byte{}, v1[:len(v1)*7/8]...), randBytes(11, len(v1)/8)...)
	putImage(t, s, "v1", v1)
	putImage(t, s, "v2", v2)
	st := s.Stats()
	if st.SharedBytes == 0 {
		t.Fatal("siblings share nothing")
	}
	// Unique storage must be well under the 2× of storing both outright.
	if st.UniqueRawBytes > int64(len(v1))*13/10 {
		t.Fatalf("unique raw %d > 1.3× one image (%d)", st.UniqueRawBytes, len(v1))
	}
	// Dropping v2 must keep every v1 chunk readable.
	if err := s.Drop("v2"); err != nil {
		t.Fatal(err)
	}
	m1, ok := s.Manifest("v1")
	if !ok {
		t.Fatal("v1 manifest gone")
	}
	if got := readImage(t, s, m1); !bytes.Equal(got, v1) {
		t.Fatal("v1 damaged by dropping v2")
	}
	// Dropping v1 too must empty the store, on disk as well.
	if err := s.Drop("v1"); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Blobs != 0 || st.LogicalBytes != 0 || st.UniqueCompBytes != 0 || packBytes(t, s.dir) != 0 {
		t.Fatalf("store not empty after dropping all: %+v", st)
	}
}

// TestCommitReplaceSharedChunks covers checksum invalidation: committing a
// rebuilt image under the same name must keep chunks shared across the two
// versions and GC only those that left.
func TestCommitReplaceSharedChunks(t *testing.T) {
	s, err := OpenBlobStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	v1 := randBytes(20, 2<<20)
	v2 := append(append([]byte{}, v1[:1<<20]...), randBytes(21, 1<<20)...)
	m1 := putImage(t, s, "img", v1)
	m2 := putImage(t, s, "img", v2)
	if m1.Checksum == m2.Checksum {
		t.Fatal("rebuilt image has same checksum")
	}
	if got := readImage(t, s, m2); !bytes.Equal(got, v2) {
		t.Fatal("replacement image differs")
	}
	// Old-only chunks must be gone from disk; shared ones must remain.
	old := make(map[Key]bool)
	for _, e := range m2.Entries {
		old[e.Hash] = true
	}
	for _, e := range m1.Entries {
		if old[e.Hash] {
			continue
		}
		if s.Has(e.Hash) {
			t.Fatalf("old-only chunk %v survived replacement", e.Hash)
		}
		if _, _, err := s.ReadCompressed(e.Hash); !errors.Is(err, ErrNoBlob) {
			t.Fatalf("old-only blob still served: %v", err)
		}
	}
	if st := s.Stats(); st.Manifests != 1 || st.LogicalBytes != int64(len(v2)) {
		t.Fatalf("stats after replace: %+v", st)
	}
}

func TestCorruptBlobDetection(t *testing.T) {
	s, err := OpenBlobStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	data := randBytes(5, 64<<10)
	m := putImage(t, s, "img", data)
	k := m.Entries[0].Hash

	corruptBlob(t, s, k)
	if _, err := s.ReadBlob(k); !errors.Is(err, ErrCorruptBlob) {
		t.Fatalf("corrupt payload: err = %v", err)
	}

	// A wrong-content blob that still inflates must fail the hash check.
	other := Key(sha256.Sum256([]byte("not the content")))
	raw, err := s.ReadBlob(m.Entries[len(m.Entries)-1].Hash)
	if err != nil {
		t.Fatal(err)
	}
	comp, _, err := s.ReadCompressed(m.Entries[len(m.Entries)-1].Hash)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeBlob(other, comp); !errors.Is(err, ErrCorruptBlob) {
		t.Fatalf("hash mismatch: err = %v", err)
	}
	if got, err := DecodeBlob(m.Entries[len(m.Entries)-1].Hash, comp); err != nil || !bytes.Equal(got, raw) {
		t.Fatalf("good blob rejected: %v", err)
	}
	if _, err := s.ReadBlob(Key{1, 2, 3}); !errors.Is(err, ErrNoBlob) {
		t.Fatalf("missing blob: err = %v", err)
	}
}

// TestOpenSweepsOrphans simulates a crash between blob landing and manifest
// commit: a reopened store must neither index nor serve the unreferenced
// records, must unlink a pack that holds nothing else, must delete stray
// and torn files, and must keep everything a manifest references.
func TestOpenSweepsOrphans(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenBlobStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	data := randBytes(6, 1<<20)
	m := putImage(t, s, "live", data)

	// Orphans: a blob with no manifest (the crash window) behind the live
	// image's records, a stray tmp, a torn manifest, a stranger among the
	// packs.
	orphan := randBytes(7, 8<<10)
	ok := Key(sha256.Sum256(orphan))
	if err := s.Put(ok, orphan); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(dir, "manifests", "torn.vmm.tmp")
	if err := os.WriteFile(tmp, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	torn := filepath.Join(dir, "manifests", "torn.vmm")
	if err := os.WriteFile(torn, []byte("garbage manifest"), 0o644); err != nil {
		t.Fatal(err)
	}
	stray := filepath.Join(dir, packDirName, "00000001.pk.tmp")
	if err := os.WriteFile(stray, []byte("stranger"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenBlobStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Has(ok) {
		t.Fatal("orphan blob survived reopen")
	}
	if _, _, err := s2.ReadCompressed(ok); !errors.Is(err, ErrNoBlob) {
		t.Fatalf("orphan blob served after reopen: %v", err)
	}
	for _, p := range []string{tmp, torn, stray} {
		if _, err := os.Stat(p); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("%s survived sweep", p)
		}
	}
	m2, okm := s2.Manifest("live")
	if !okm || m2.Checksum != m.Checksum {
		t.Fatal("live manifest lost on reopen")
	}
	if got := readImage(t, s2, m2); !bytes.Equal(got, data) {
		t.Fatal("live image damaged by sweep")
	}

	// A second crashed publication lands in a pack of its own (the first is
	// sealed now): with nothing live in it, the next open unlinks the file.
	if err := s2.Put(ok, orphan); err != nil {
		t.Fatal(err)
	}
	orphanPack, _, _ := blobFile(t, s2, ok)
	s3, err := OpenBlobStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(orphanPack); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("pack of orphans survived sweep: %v", err)
	}
	if st := s3.Stats(); st.Packs != 1 || st.UniqueCompBytes != packBytes(t, dir) {
		t.Fatalf("after sweep: %+v, %d bytes of packs on disk", st, packBytes(t, dir))
	}
	if got := readImage(t, s3, m2); !bytes.Equal(got, data) {
		t.Fatal("live image damaged by the pack sweep")
	}
}

// TestConcurrentPublishEvict hammers refcount GC: goroutines publishing
// sibling images (sharing most chunks) race goroutines dropping them.
// Run under -race; the invariant checked at the end is that fully-dropped
// names free their private chunks while survivors stay readable.
func TestConcurrentPublishEvict(t *testing.T) {
	s, err := OpenBlobStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	shared := randBytes(100, 512<<10)
	images := make([][]byte, 8)
	for i := range images {
		images[i] = append(append([]byte{}, shared...), randBytes(int64(200+i), 128<<10)...)
	}
	var wg sync.WaitGroup
	for round := 0; round < 3; round++ {
		for i := range images {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				name := fmt.Sprintf("img-%d", i)
				var held []Key
				m, err := Build(bytes.NewReader(images[i]), int64(len(images[i])), func(e Entry, raw []byte) error {
					if err := s.Put(e.Hash, raw); err != nil {
						return err
					}
					held = append(held, e.Hash)
					return nil
				})
				if err != nil {
					s.Release(held)
					t.Error(err)
					return
				}
				err = s.Commit(name, m)
				s.Release(held)
				if err != nil {
					t.Error(err)
					return
				}
				if i%2 == 1 {
					if err := s.Drop(name); err != nil {
						t.Error(err)
					}
				}
			}(i)
		}
		wg.Wait()
	}
	// Survivors (even i) must reassemble; dropped names must be gone.
	for i := range images {
		name := fmt.Sprintf("img-%d", i)
		m, ok := s.Manifest(name)
		if i%2 == 1 {
			if ok {
				t.Fatalf("%s not dropped", name)
			}
			continue
		}
		if !ok {
			t.Fatalf("%s missing", name)
		}
		if got := readImage(t, s, m); !bytes.Equal(got, images[i]) {
			t.Fatalf("%s damaged by concurrent churn", name)
		}
	}
	if st := s.Stats(); st.SharedBytes == 0 {
		t.Fatal("survivors share no chunks")
	}
}

// Has reports whether the store holds a blob for k (referenced or staged).
func (s *BlobStore) Has(k Key) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.blobs[k]
	return ok
}

// Put stages the blob for k (raw chunk bytes): compress and append to the
// active pack — skipped entirely when the blob already exists, which is the
// dedup. A successful Put takes one stage hold on k that pins it against
// GC until the publisher calls Release, closing the window where a racing
// eviction could free a chunk between a publisher's existence check and
// its manifest commit. Callers record each held key and Release them all
// (after Commit, or on failure) — typically in a defer.
func (s *BlobStore) Put(k Key, raw []byte) error {
	if s.Stage(k) {
		return nil
	}
	buf := compBufPool.Get().(*bytes.Buffer)
	defer compBufPool.Put(buf)
	if err := encodeWireBlob(buf, raw); err != nil {
		return err
	}
	return s.land(k, buf.Bytes())
}

// PutCompressed stages an already-compressed wire blob (an OpChunkBatch
// record): the blob is decoded and hash-verified first, in a pooled buffer,
// so a corrupt transfer surfaces as ErrCorruptBlob and never lands on disk.
// Takes a stage hold exactly like Put.
func (s *BlobStore) PutCompressed(k Key, comp []byte) error {
	raw, _, err := s.putVerified(k, comp)
	if raw != nil {
		putChunkBuf(raw)
	}
	return err
}
