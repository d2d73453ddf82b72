package dedup

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"vmicache/internal/backend"
)

// cloneTree reproduces src under dst, hard-linking files when link is set
// (the bench's node template) and copying them otherwise.
func cloneTree(t testing.TB, dst, src string, link bool) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, de fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		to := filepath.Join(dst, rel)
		if de.IsDir() {
			return os.MkdirAll(to, 0o755)
		}
		if link {
			return os.Link(path, to)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(to, b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// treeDigest maps every file under dir to the hash of its bytes.
func treeDigest(t testing.TB, dir string) map[string][sha256.Size]byte {
	t.Helper()
	out := make(map[string][sha256.Size]byte)
	err := filepath.WalkDir(dir, func(path string, de fs.DirEntry, err error) error {
		if err != nil || de.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		out[rel] = sha256.Sum256(b)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// materialized returns the image man describes, read out of s.
func materialized(s *BlobStore, man *Manifest) ([]byte, error) {
	out := backend.NewMemFileSize(man.Length)
	if err := Materialize(out, man, s, 2); err != nil {
		return nil, err
	}
	got := make([]byte, man.Length)
	return got, backend.ReadFull(out, got, 0)
}

// TestFlushFailureKeepsStoreDirty: a pack fsync that fails must leave the
// landed blobs un-synced in the store's books, so the Commit it failed — and
// any later one — cannot publish a manifest over them until a flush has
// really succeeded.
func TestFlushFailureKeepsStoreDirty(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenBlobStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("injected fsync failure")
	var packSyncs int
	failing := true
	s.sync = func(f *os.File) error {
		if filepath.Ext(f.Name()) == packSuffix {
			packSyncs++
			if failing {
				return boom
			}
		}
		return f.Sync()
	}
	data := randBytes(31, 256<<10)
	var held []Key
	defer func() { s.Release(held) }()
	m, err := Build(bytes.NewReader(data), int64(len(data)), func(e Entry, raw []byte) error {
		held = append(held, e.Hash)
		return s.Put(e.Hash, raw)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := s.Commit("img", m); !errors.Is(err, boom) {
			t.Fatalf("commit %d over a failed flush: err = %v", i, err)
		}
	}
	if packSyncs != 2 {
		t.Fatalf("pack fsynced %d times over two failed commits, want 2 (the failure was forgotten)", packSyncs)
	}
	if _, ok := s.Manifest("img"); ok {
		t.Fatal("manifest indexed although its blobs never became durable")
	}
	if ents, _ := os.ReadDir(filepath.Join(dir, "manifests")); len(ents) != 0 {
		t.Fatalf("manifest directory not empty after failed commits: %v", ents)
	}
	if err := s.Flush(); !errors.Is(err, boom) {
		t.Fatalf("flush after failure: err = %v", err)
	}
	failing = false
	if err := s.Commit("img", m); err != nil {
		t.Fatal(err)
	}
	if packSyncs != 4 {
		t.Fatalf("pack fsynced %d times, want 4: the commit that succeeded must have synced it", packSyncs)
	}
	s2, err := OpenBlobStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := materialized(s2, m); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("image after recovery from the failed flush: %v", err)
	}
}

// TestLegacyImport builds the pre-pack layout by hand — blobs/<hh>/<hex>.z
// beside a manifest — and opens it: referenced blobs move into a pack, the
// tree goes, orphans and temp files go with it, and a second open finds
// nothing left to import.
func TestLegacyImport(t *testing.T) {
	dir := t.TempDir()
	data := randBytes(41, 512<<10)
	var buf bytes.Buffer
	writeLegacy := func(k Key, raw []byte) {
		if err := encodeWireBlob(&buf, raw); err != nil {
			t.Fatal(err)
		}
		h := hex.EncodeToString(k[:])
		sub := filepath.Join(dir, "blobs", h[:2])
		if err := os.MkdirAll(sub, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(sub, h+".z"), buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	m, err := Build(bytes.NewReader(data), int64(len(data)), func(e Entry, raw []byte) error {
		writeLegacy(e.Hash, raw)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	orphan := randBytes(42, 8<<10)
	writeLegacy(Key(sha256.Sum256(orphan)), orphan)
	if err := os.MkdirAll(filepath.Join(dir, "blobs", "00"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "blobs", "00", "junk.z.123.tmp"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, "manifests"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "manifests", "img"+manifestSuffix), m.Encode(), 0o644); err != nil {
		t.Fatal(err)
	}

	for round := 0; round < 2; round++ {
		s, err := OpenBlobStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(filepath.Join(dir, "blobs")); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("round %d: legacy tree survived the import: %v", round, err)
		}
		man, ok := s.Manifest("img")
		if !ok {
			t.Fatalf("round %d: manifest lost", round)
		}
		if got, err := materialized(s, man); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("round %d: imported image: %v", round, err)
		}
		if s.Has(Key(sha256.Sum256(orphan))) {
			t.Fatalf("round %d: unreferenced legacy blob imported", round)
		}
		st := s.Stats()
		if st.Packs != 1 || st.UniqueCompBytes != packBytes(t, dir) {
			t.Fatalf("round %d: %+v, %d bytes of packs on disk", round, st, packBytes(t, dir))
		}
		if round == 0 && st.Syncs != 2 {
			t.Fatalf("import issued %d fsyncs, want 2 (pack, directory)", st.Syncs)
		}
		if round == 1 && st.Writes != 0 {
			t.Fatalf("second open appended %d records", st.Writes)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPackCrashPoints enumerates what a crash can leave of the active pack.
// One image is committed (its records fsynced), a second image's blobs are
// appended behind it, and the pack is then cut at every record boundary of
// that tail and at a byte inside every header and payload, with and without
// garbage written past the cut. However the tail looks, the reopened store
// must serve the committed image intact, index nothing of the uncommitted
// one it cannot prove whole, and fail — not invent bytes — when asked to
// materialize a manifest whose chunks the cut took.
func TestPackCrashPoints(t *testing.T) {
	master := t.TempDir()
	s, err := OpenBlobStore(master)
	if err != nil {
		t.Fatal(err)
	}
	v1 := randBytes(51, 192<<10)
	v2 := append(append([]byte{}, v1[:64<<10]...), randBytes(52, 128<<10)...)
	m1 := putImage(t, s, "v1", v1)
	durable := s.Stats().UniqueCompBytes // v1's commit fsynced this prefix

	// v2's private blobs land behind it; remember each record's extent.
	type extent struct{ off, end int64 }
	var tail []extent
	var held []Key
	m2, err := Build(bytes.NewReader(v2), int64(len(v2)), func(e Entry, raw []byte) error {
		held = append(held, e.Hash)
		if err := s.Put(e.Hash, raw); err != nil {
			return err
		}
		_, off, n := blobFile(t, s, e.Hash)
		if off-recHdrLen >= durable {
			tail = append(tail, extent{off - recHdrLen, off + int64(n)})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tail) < 4 {
		t.Fatalf("only %d tail records; the image pair does not exercise the scan", len(tail))
	}
	packPath, _, _ := blobFile(t, s, held[len(held)-1])
	packRel, _ := filepath.Rel(master, packPath)
	s.Release(held)
	m2only := make(map[Key]bool)
	for _, e := range m2.Entries {
		m2only[e.Hash] = true
	}
	for _, e := range m1.Entries {
		delete(m2only, e.Hash)
	}

	var cuts []int64
	for _, x := range tail {
		cuts = append(cuts, x.off, x.off+recHdrLen/2, x.off+recHdrLen+(x.end-x.off-recHdrLen)/2)
	}
	cuts = append(cuts, tail[len(tail)-1].end)
	garbage := randBytes(53, 3*recHdrLen)

	for _, committed := range []bool{false, true} {
		for _, cut := range cuts {
			for _, junk := range [][]byte{nil, garbage, make([]byte, 4096)} {
				dir := t.TempDir()
				cloneTree(t, dir, master, false)
				pack := filepath.Join(dir, packRel)
				if err := os.Truncate(pack, cut); err != nil {
					t.Fatal(err)
				}
				if junk != nil {
					f, err := os.OpenFile(pack, os.O_WRONLY|os.O_APPEND, 0)
					if err != nil {
						t.Fatal(err)
					}
					f.Write(junk) //nolint:errcheck // test scratch
					f.Close()     //nolint:errcheck // test scratch
				}
				if committed {
					// The disk lied about v2's flush: its manifest is there,
					// part of its blobs is not.
					if err := os.WriteFile(filepath.Join(dir, "manifests", "v2"+manifestSuffix), m2.Encode(), 0o644); err != nil {
						t.Fatal(err)
					}
				}
				s2, err := OpenBlobStore(dir)
				if err != nil {
					t.Fatalf("cut %d: %v", cut, err)
				}
				got, err := materialized(s2, m1)
				if err != nil || !bytes.Equal(got, v1) {
					t.Fatalf("cut %d committed=%v: committed image lost a chunk: %v", cut, committed, err)
				}
				whole := 0
				for _, x := range tail {
					if x.end <= cut {
						whole++
					}
				}
				indexed := 0
				for k := range m2only {
					if s2.Has(k) {
						indexed++
					}
				}
				switch {
				case !committed && indexed != 0:
					t.Fatalf("cut %d: %d orphan records indexed", cut, indexed)
				case committed && indexed != whole:
					t.Fatalf("cut %d: %d tail records indexed, %d are whole", cut, indexed, whole)
				}
				got, err = materialized(s2, m2)
				if whole == len(tail) && committed {
					if err != nil || !bytes.Equal(got, v2) {
						t.Fatalf("cut %d: whole tail, committed manifest, but v2 does not materialize: %v", cut, err)
					}
				} else if err == nil {
					t.Fatalf("cut %d committed=%v: v2 materialized although %d of %d tail records are missing",
						cut, committed, len(tail)-whole, len(tail))
				}
				s2.Close() //nolint:errcheck // test scratch
			}
		}
	}
}

// packOf renders records as a pack file image.
func packOf(recs ...[]byte) []byte {
	out := []byte(packMagic)
	for i, wire := range recs {
		out = append(out, appendRecord(nil, Key(sha256.Sum256([]byte{byte(i)})), wire)...)
	}
	return out
}

// FuzzPackScan feeds the record scanner arbitrary bytes. It must not panic
// or over-allocate, must report a prefix inside the input, and the records
// it visits must be exactly that prefix: contiguous, CRC-clean, re-encodable
// byte for byte — so nothing beyond the first malformed record is ever seen.
func FuzzPackScan(f *testing.F) {
	var a, b bytes.Buffer
	// Small seeds: the engine minimizes every interesting input byte by byte.
	encodeWireBlob(&a, bytes.Repeat([]byte("vmi"), 40)) //nolint:errcheck // seed
	encodeWireBlob(&b, randBytes(61, 90))               //nolint:errcheck // seed
	good := packOf(a.Bytes(), b.Bytes(), a.Bytes())
	f.Add(good)
	f.Add(good[:len(good)-7])                             // torn payload
	f.Add(good[:packHdrLen+recHdrLen/2])                  // torn header
	f.Add(append(append([]byte{}, good...), 0, 0, 0, 0))  // zeros past the end
	f.Add(append([]byte(packMagic), make([]byte, 64)...)) // preallocated, never written
	f.Add([]byte("VMPK\x00\x00\x00\x02 a later version"))
	f.Add([]byte{})
	flipped := append([]byte{}, good...)
	flipped[packHdrLen+recHdrLen+20] ^= 1
	f.Add(flipped)
	huge := append([]byte{}, good...)
	copy(huge[packHdrLen+sha256.Size:], []byte{0xFF, 0xFF, 0xFF, 0xFF}) // 4 GiB length field
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		rebuilt := []byte(packMagic)
		valid, err := scanPack(bytes.NewReader(data), func(k Key, off int64, wire []byte) {
			if off != int64(len(rebuilt)) {
				t.Fatalf("record at %d, previous ended at %d", off, len(rebuilt))
			}
			rebuilt = append(rebuilt, appendRecord(nil, k, wire)...)
		})
		if err != nil {
			t.Fatalf("in-memory scan failed: %v", err)
		}
		if valid == 0 {
			rebuilt = nil // not a pack at all
		}
		if valid != int64(len(rebuilt)) || valid > int64(len(data)) || !bytes.Equal(rebuilt, data[:valid]) {
			t.Fatalf("scan reported %d valid bytes of %d, visited records rebuild %d", valid, len(data), len(rebuilt))
		}
	})
}

// errAfter fails reads past limit with a non-EOF error.
type errAfter struct {
	r     io.Reader
	limit int
}

func (e *errAfter) Read(p []byte) (int, error) {
	if e.limit <= 0 {
		return 0, errors.New("injected read failure")
	}
	if len(p) > e.limit {
		p = p[:e.limit]
	}
	n, err := e.r.Read(p)
	e.limit -= n
	return n, err
}

// TestPackScanReportsIOErrors: a failing disk is an error, not an early end
// of pack — otherwise live records behind it would be taken for dead.
func TestPackScanReportsIOErrors(t *testing.T) {
	var a bytes.Buffer
	if err := encodeWireBlob(&a, randBytes(62, 6000)); err != nil {
		t.Fatal(err)
	}
	img := packOf(a.Bytes(), a.Bytes())
	for _, limit := range []int{3, packHdrLen + 10, packHdrLen + recHdrLen + 100} {
		if _, err := scanPack(&errAfter{r: bytes.NewReader(img), limit: limit}, func(Key, int64, []byte) {}); err == nil {
			t.Fatalf("read failure after %d bytes swallowed", limit)
		}
	}
}

// TestSealedPacksImmutable hard-links a store, then works the copy hard —
// a sibling publication, drops, a copy-forward, a pack unlink — and checks
// that every file of the original is still there, byte for byte, and that
// the original still opens and serves. A pack found at Open is never
// written or truncated, only read or unlinked, which is what keeps a
// hard-linked template (bench/e2e's linkTree) or a snapshot safe.
func TestSealedPacksImmutable(t *testing.T) {
	orig := t.TempDir()
	s, err := OpenBlobStore(orig)
	if err != nil {
		t.Fatal(err)
	}
	keep := randBytes(71, 128<<10)
	v1 := append(append([]byte{}, keep...), randBytes(72, 512<<10)...)
	m1 := putImage(t, s, "v1", v1)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	before := treeDigest(t, orig)

	work := filepath.Join(t.TempDir(), "copy")
	cloneTree(t, work, orig, true)

	c, err := OpenBlobStore(work)
	if err != nil {
		t.Fatal(err)
	}
	v2 := append(append([]byte{}, keep...), randBytes(73, 256<<10)...)
	m2 := putImage(t, c, "v2", v2) // shares keep with v1, lands the rest in a new pack
	if err := c.Drop("v1"); err != nil {
		t.Fatal(err)
	}
	// v1's pack is now four-fifths dead in the copy: its live records were
	// copied forward and the copy's link to it removed.
	if st := c.Stats(); st.Packs != 1 {
		t.Fatalf("copy holds %d packs after the drop, want 1 (sealed pack not compacted)", st.Packs)
	}
	if got, err := materialized(c, m2); err != nil || !bytes.Equal(got, v2) {
		t.Fatalf("v2 in the copy after compaction: %v", err)
	}
	if err := c.Drop("v2"); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Packs != 0 || st.UniqueCompBytes != 0 || packBytes(t, work) != 0 {
		t.Fatalf("copy not empty after dropping everything: %+v", st)
	}
	c.Close() //nolint:errcheck // test scratch

	after := treeDigest(t, orig)
	if len(after) != len(before) {
		t.Fatalf("original has %d files, had %d", len(after), len(before))
	}
	for rel, sum := range before {
		if after[rel] != sum {
			t.Fatalf("%s of the original changed through its hard-linked copy", rel)
		}
	}
	s2, err := OpenBlobStore(orig)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := materialized(s2, m1); err != nil || !bytes.Equal(got, v1) {
		t.Fatalf("original after the copy's churn: %v", err)
	}
}

// TestPackCompaction drops manifests until a sealed pack is more than half
// dead: its live blobs must move and stay readable — also to a reader that
// is materializing them while they move — physical bytes must shrink, and
// the store's accounting must equal the bytes on disk at every step.
func TestPackCompaction(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenBlobStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	imgs := make([][]byte, 4)
	mans := make([]*Manifest, 4)
	for i := range imgs {
		imgs[i] = randBytes(int64(80+i), 256<<10)
		mans[i] = putImage(t, s, fmt.Sprintf("img-%d", i), imgs[i])
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, err = OpenBlobStore(dir) // the pack is sealed now
	if err != nil {
		t.Fatal(err)
	}
	check := func(step string, live ...int) {
		t.Helper()
		if st := s.Stats(); st.UniqueCompBytes != packBytes(t, dir) {
			t.Fatalf("%s: accounted %d bytes, %d on disk", step, st.UniqueCompBytes, packBytes(t, dir))
		}
		for _, i := range live {
			if got, err := materialized(s, mans[i]); err != nil || !bytes.Equal(got, imgs[i]) {
				t.Fatalf("%s: img-%d: %v", step, i, err)
			}
		}
	}
	full := s.Stats().UniqueCompBytes
	sealed, _, _ := blobFile(t, s, mans[3].Entries[0].Hash)

	// A reader of the survivor runs across the whole episode: a pack retired
	// between its index lookup and its pread must cost a retry, not an error.
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if got, err := materialized(s, mans[3]); err != nil || !bytes.Equal(got, imgs[3]) {
				t.Errorf("reader during compaction: %v", err)
				return
			}
		}
	}()

	if err := s.Drop("img-0"); err != nil {
		t.Fatal(err)
	}
	check("a quarter dead", 1, 2, 3)
	if got := s.Stats().UniqueCompBytes; got != full {
		t.Fatalf("a pack a quarter dead was rewritten: %d -> %d bytes", full, got)
	}
	for _, name := range []string{"img-1", "img-2"} {
		if err := s.Drop(name); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	<-readerDone
	check("three quarters dead", 3)
	st := s.Stats()
	if st.UniqueCompBytes > full/3 || st.Packs != 1 {
		t.Fatalf("pack three quarters dead not compacted: %d of %d bytes, %d packs", st.UniqueCompBytes, full, st.Packs)
	}
	if _, err := os.Stat(sealed); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("compacted pack still on disk: %v", err)
	}
	// The copies were flushed before the old pack went: a crash now loses
	// nothing.
	s2, err := OpenBlobStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := materialized(s2, mans[3]); err != nil || !bytes.Equal(got, imgs[3]) {
		t.Fatalf("survivor after reopen: %v", err)
	}
}

// TestCompactionDropsDamagedRecord: a pack holding one record that fails
// its CRC still retires once its sibling dies — the live records are copied
// forward from the index, and the damaged one leaves the index as dead
// space instead of pinning the pack for every later reclaim.
func TestCompactionDropsDamagedRecord(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenBlobStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	small := randBytes(90, 64<<10)
	manSmall := putImage(t, s, "small", small)
	putImage(t, s, "big", randBytes(91, 512<<10))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, err = OpenBlobStore(dir) // the shared pack is sealed now
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close() //nolint:errcheck // test teardown
	damaged := manSmall.Entries[0].Hash
	corruptBlob(t, s, damaged)
	shared, _, _ := blobFile(t, s, damaged)

	if err := s.Drop("big"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(shared); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("the pack with a damaged record was not retired: %v", err)
	}
	if s.Has(damaged) {
		t.Fatal("the damaged record is still indexed")
	}
	if st := s.Stats(); st.UniqueCompBytes != packBytes(t, dir) {
		t.Fatalf("accounted %d bytes, %d on disk", st.UniqueCompBytes, packBytes(t, dir))
	}
	off := int64(manSmall.Entries[0].Len)
	for _, e := range manSmall.Entries[1:] {
		if raw, err := s.ReadBlob(e.Hash); e.Hash != damaged && (err != nil || !bytes.Equal(raw, small[off:off+int64(e.Len)])) {
			t.Fatalf("a live record did not survive the copy-forward: %v", err)
		}
		off += int64(e.Len)
	}
}

// TestStoreClose: Close is idempotent, releases every pack descriptor and
// leaves a store that refuses work instead of misbehaving.
func TestStoreClose(t *testing.T) {
	s, err := OpenBlobStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	data := randBytes(91, 128<<10)
	m := putImage(t, s, "img", data)
	s.mu.Lock()
	files := make([]*os.File, 0, len(s.packs))
	for _, p := range s.packs {
		files = append(files, p.f)
	}
	s.mu.Unlock()
	for i := 0; i < 2; i++ {
		if err := s.Close(); err != nil {
			t.Fatalf("close %d: %v", i, err)
		}
	}
	if len(files) == 0 {
		t.Fatal("no pack was open")
	}
	for _, f := range files {
		if _, err := f.Stat(); !errors.Is(err, os.ErrClosed) {
			t.Fatalf("pack descriptor %s still open after Close: %v", f.Name(), err)
		}
	}
	k := m.Entries[0].Hash
	if _, err := s.ReadBlob(k); !errors.Is(err, ErrClosed) {
		t.Fatalf("read after close: %v", err)
	}
	if err := s.Put(Key{1}, []byte("late")); !errors.Is(err, ErrClosed) {
		t.Fatalf("put after close: %v", err)
	}
	if s.Stage(k) {
		t.Fatal("stage after close succeeded")
	}
	if err := s.Commit("late", m); !errors.Is(err, ErrClosed) {
		t.Fatalf("commit after close: %v", err)
	}
	if _, err := materialized(s, m); !errors.Is(err, ErrClosed) {
		t.Fatalf("materialize after close: %v", err)
	}
}

// TestPutCompressedReusesBuffers: landing a fetched chunk verifies it in a
// pooled buffer — the raw bytes are not kept, so they must not be allocated
// per chunk (≈ 1.9 MB of garbage per delta warm before).
func TestPutCompressedReusesBuffers(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries at random under the race detector")
	}
	s, err := OpenBlobStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	raw := randBytes(95, 32<<10)
	k := Key(sha256.Sum256(raw))
	var buf bytes.Buffer
	if err := encodeWireBlob(&buf, raw); err != nil {
		t.Fatal(err)
	}
	put := func() {
		if err := s.PutCompressed(k, buf.Bytes()); err != nil {
			t.Fatal(err)
		}
	}
	put() // lands the blob and warms the pools
	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		put()
	}
	runtime.ReadMemStats(&after)
	if perOp := (after.TotalAlloc - before.TotalAlloc) / runs; perOp > uint64(len(raw))/8 {
		t.Fatalf("PutCompressed allocates %d B per %d B chunk", perOp, len(raw))
	}
}
