package qcow

// Tests for the zero-copy serve support (zerocopy.go): the PlainExtents
// export contract (byte-identity against the copy path, plus the full
// fallback matrix — writable image, memory-backed container, compressed
// cluster, partially-valid sub-cluster, unallocated run, out-of-range), and
// the table set's mapping (byte-identity with pread, fallback past the
// mapping and off it, lifetime, faults).

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"vmicache/internal/backend"
	"vmicache/internal/zerocopy"
)

// newOSImage creates a standalone image in a temp directory, fills it with a
// deterministic pattern via plain guest writes, and reopens it read-only on
// an os-backed container — the publication shape the zero-copy path serves.
func newOSImage(t *testing.T, size int64, clusterBits int, seed int64) (*Image, []byte) {
	t.Helper()
	path, pat := newOSImageFile(t, size, clusterBits, seed)
	ri := openOS(t, path, nil)
	t.Cleanup(func() { ri.Close() }) //nolint:errcheck // test teardown
	return ri, pat
}

// newOSImageFile writes newOSImage's file and returns its path and content.
func newOSImageFile(t *testing.T, size int64, clusterBits int, seed int64) (string, []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "img.qcow")
	f, err := backend.CreateOSFile(path)
	if err != nil {
		t.Fatal(err)
	}
	img, err := Create(f, CreateOpts{Size: size, ClusterBits: clusterBits})
	if err != nil {
		t.Fatal(err)
	}
	pat := make([]byte, size)
	rand.New(rand.NewSource(seed)).Read(pat)
	if err := backend.WriteFull(img, pat, 0); err != nil {
		t.Fatal(err)
	}
	if err := img.Close(); err != nil {
		t.Fatal(err)
	}
	return path, pat
}

// openOS opens the image file at path read-only, attached to set if non-nil.
func openOS(t *testing.T, path string, set *Tables) *Image {
	t.Helper()
	ro, err := backend.OpenOSFile(path, true)
	if err != nil {
		t.Fatal(err)
	}
	img, err := Open(ro, OpenOpts{ReadOnly: true, Tables: set})
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// readExtents materialises exported extents with plain preads — the exact
// I/O a sendfile would issue — so tests can compare against the copy path.
func readExtents(t *testing.T, exts []zerocopy.FileExtent) []byte {
	t.Helper()
	var out []byte
	for _, e := range exts {
		buf := make([]byte, e.Len)
		if _, err := e.F.ReadAt(buf, e.Off); err != nil {
			t.Fatalf("extent pread: %v", err)
		}
		out = append(out, buf...)
	}
	return out
}

// TestPlainExtentsByteIdentity proves the extent export describes exactly
// the bytes the copy path returns, across aligned, misaligned, and
// EOF-adjacent ranges, and that sequential fills coalesce physically.
func TestPlainExtentsByteIdentity(t *testing.T) {
	const size = 2 * testMB
	img, pat := newOSImage(t, size, 12, 61) // 4 KiB clusters: many extents
	cases := []struct{ off, n int64 }{
		{0, 4096},
		{777, 100001},
		{size - 9000, 9000},
		{0, size},
	}
	for _, tc := range cases {
		exts, ok := img.PlainExtents(tc.off, tc.n, nil)
		if !ok {
			t.Fatalf("PlainExtents(%d, %d): not exportable", tc.off, tc.n)
		}
		var total int64
		for _, e := range exts {
			total += e.Len
		}
		if total != tc.n {
			t.Fatalf("PlainExtents(%d, %d): extents cover %d bytes", tc.off, tc.n, total)
		}
		if got := readExtents(t, exts); !bytes.Equal(got, pat[tc.off:tc.off+tc.n]) {
			t.Fatalf("PlainExtents(%d, %d): extent bytes differ from copy path", tc.off, tc.n)
		}
	}
	// Sequential fill allocates physically in order, so the whole disk
	// should coalesce into one run — the sendfile best case.
	exts, ok := img.PlainExtents(0, size, nil)
	if !ok || len(exts) != 1 {
		t.Fatalf("full-image export: ok=%v extents=%d, want 1 coalesced run", ok, len(exts))
	}
	if img.Stats().ZeroCopyExports.Load() == 0 {
		t.Fatal("zero-copy export counter not advanced")
	}
	// dst reuse: appended extents must not clobber what the caller had.
	pre := []zerocopy.FileExtent{{Off: 1, Len: 2}}
	exts, ok = img.PlainExtents(0, 4096, pre)
	if !ok || len(exts) < 2 || exts[0].Off != 1 || exts[0].Len != 2 {
		t.Fatalf("dst prefix clobbered: %+v ok=%v", exts, ok)
	}
}

// TestPlainExtentsFallbackMatrix drives every condition that must refuse the
// export and push the caller to the copy path.
func TestPlainExtentsFallbackMatrix(t *testing.T) {
	const size = 8 * 64 << 10

	t.Run("writable image", func(t *testing.T) {
		img, _ := newTestImage(t, size, 16)
		defer img.Close()
		if _, ok := img.PlainExtents(0, 4096, nil); ok {
			t.Fatal("writable image exported extents")
		}
	})

	t.Run("memory-backed container", func(t *testing.T) {
		img, _ := newTestImage(t, size, 16)
		buf := make([]byte, size)
		if err := backend.WriteFull(img, buf, 0); err != nil {
			t.Fatal(err)
		}
		snap := snapshot(t, img.f)
		img.Close() //nolint:errcheck
		ro, err := Open(snap, OpenOpts{ReadOnly: true})
		if err != nil {
			t.Fatal(err)
		}
		defer ro.Close()
		if _, ok := ro.PlainExtents(0, 4096, nil); ok {
			t.Fatal("MemFile-backed image exported extents")
		}
	})

	t.Run("compressed and unallocated runs", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "img.qcow")
		f, err := backend.CreateOSFile(path)
		if err != nil {
			t.Fatal(err)
		}
		img, err := Create(f, CreateOpts{Size: size, ClusterBits: 16})
		if err != nil {
			t.Fatal(err)
		}
		cs := img.ClusterSize()
		rnd := rand.New(rand.NewSource(67))
		d := make([]byte, cs)
		// Clusters 0,1 raw; cluster 2 compressed; cluster 3 raw; 4.. unallocated.
		for _, vc := range []int64{0, 1, 3} {
			rnd.Read(d)
			if err := backend.WriteFull(img, d, vc*cs); err != nil {
				t.Fatal(err)
			}
		}
		// Must be compressible: incompressible blobs are stored raw, which
		// would defeat the fallback this subtest exists to exercise.
		for i := range d {
			d[i] = byte(i / 64)
		}
		if err := img.WriteCompressedCluster(2, d); err != nil {
			t.Fatal(err)
		}
		if err := img.Close(); err != nil {
			t.Fatal(err)
		}
		rof, err := backend.OpenOSFile(path, true)
		if err != nil {
			t.Fatal(err)
		}
		ro, err := Open(rof, OpenOpts{ReadOnly: true})
		if err != nil {
			t.Fatal(err)
		}
		defer ro.Close()

		if exts, ok := ro.PlainExtents(0, 2*cs, nil); !ok || len(exts) == 0 {
			t.Fatal("pure raw range refused")
		}
		if _, ok := ro.PlainExtents(0, 3*cs, nil); ok {
			t.Fatal("range containing a compressed cluster exported")
		}
		if _, ok := ro.PlainExtents(2*cs, 100, nil); ok {
			t.Fatal("compressed cluster exported")
		}
		if _, ok := ro.PlainExtents(4*cs, cs, nil); ok {
			t.Fatal("unallocated (zero-reading) cluster exported")
		}
		if _, ok := ro.PlainExtents(3*cs, 2*cs, nil); ok {
			t.Fatal("raw+unallocated straddle exported")
		}
		// Range checks.
		if _, ok := ro.PlainExtents(-1, cs, nil); ok {
			t.Fatal("negative offset exported")
		}
		if _, ok := ro.PlainExtents(0, 0, nil); ok {
			t.Fatal("empty range exported")
		}
		if _, ok := ro.PlainExtents(size-10, 20, nil); ok {
			t.Fatal("past-EOF range exported")
		}
	})

	t.Run("partial subcluster", func(t *testing.T) {
		base, _ := newPatternedBase(t, size, 73)
		path := filepath.Join(t.TempDir(), "sub.qcow")
		f, err := backend.CreateOSFile(path)
		if err != nil {
			t.Fatal(err)
		}
		img := newSubCache(t, f, size, 8*size, RawSource{R: base, N: size})
		cs := img.ClusterSize()
		// Cluster 1: partial 4 KiB fill. Cluster 2: full fill.
		small := make([]byte, 4096)
		if err := backend.ReadFull(img, small, cs); err != nil {
			t.Fatal(err)
		}
		full := make([]byte, cs)
		if err := backend.ReadFull(img, full, 2*cs); err != nil {
			t.Fatal(err)
		}
		if err := img.Close(); err != nil {
			t.Fatal(err)
		}
		rof, err := backend.OpenOSFile(path, true)
		if err != nil {
			t.Fatal(err)
		}
		ro, err := Open(rof, OpenOpts{ReadOnly: true})
		if err != nil {
			t.Fatal(err)
		}
		defer ro.Close()
		if _, ok := ro.PlainExtents(cs, 4096, nil); ok {
			t.Fatal("partially-valid sub-cluster exported")
		}
		if exts, ok := ro.PlainExtents(2*cs, cs, nil); !ok || len(exts) != 1 {
			t.Fatalf("fully-valid cluster refused: ok=%v exts=%d", ok, len(exts))
		}
	})
}

// TestMmapWarmRead: images attached to a set copy their raw extents out of
// the set's one mapping and return exactly what a pread-only open of the
// same file returns, at aligned, misaligned and end-of-disk ranges.
func TestMmapWarmRead(t *testing.T) {
	const size = testMB
	path, pat := newOSImageFile(t, size, 9, 79)
	set := NewTables()
	plain := openOS(t, path, nil)
	defer plain.Close() //nolint:errcheck // read-only
	var imgs []*Image
	for i := 0; i < 2; i++ {
		img := openOS(t, path, set)
		defer img.Close() //nolint:errcheck // read-only
		imgs = append(imgs, img)
	}
	if maps, _ := set.Mappings(); maps != 0 {
		t.Fatalf("opens mapped the file %d times before any read", maps)
	}
	for _, tc := range []struct{ off, n int64 }{{0, size}, {513, 100000}, {size - 10, 10}, {4096, 512}} {
		want := make([]byte, tc.n)
		if err := backend.ReadFull(plain, want, tc.off); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, pat[tc.off:tc.off+tc.n]) {
			t.Fatalf("pread (%d, %d) mismatch", tc.off, tc.n)
		}
		for i, img := range imgs {
			got := make([]byte, tc.n)
			if err := backend.ReadFull(img, got, tc.off); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("image %d: mapped read (%d, %d) differs from pread", i, tc.off, tc.n)
			}
		}
	}
	for i, img := range imgs {
		if img.Stats().MmapReadBytes.Load() == 0 {
			t.Fatalf("image %d: reads did not go through the mapping", i)
		}
	}
	if plain.Stats().MmapReads.Load() != 0 {
		t.Fatal("an image without a set read through a mapping")
	}
	if maps, unmaps := set.Mappings(); maps != 1 || unmaps != 0 {
		t.Fatalf("two images reading: %d maps, %d unmaps; want 1, 0", maps, unmaps)
	}
}

// TestMmapGates: writable images, images of a non-os container and
// extents the mapping does not cover read with pread, and still right.
func TestMmapGates(t *testing.T) {
	t.Run("writable and memory-backed", func(t *testing.T) {
		img, mem := newTestImage(t, testMB, 16)
		pat := make([]byte, testMB)
		rand.New(rand.NewSource(5)).Read(pat)
		if err := backend.WriteFull(img, pat, 0); err != nil {
			t.Fatal(err)
		}
		set := NewTables()
		for _, ro := range []bool{false, true} {
			re, err := Open(snapshot(t, mem), OpenOpts{ReadOnly: ro, Tables: set})
			if err != nil {
				t.Fatal(err)
			}
			got := make([]byte, testMB)
			if err := backend.ReadFull(re, got, 0); err != nil || !bytes.Equal(got, pat) {
				t.Fatalf("read-only=%v: %v or wrong bytes", ro, err)
			}
			if re.Stats().MmapReads.Load() != 0 {
				t.Fatalf("read-only=%v: read through a mapping", ro)
			}
			re.Close() //nolint:errcheck // test
		}
		img.Close() //nolint:errcheck // test
		if maps, _ := set.Mappings(); maps != 0 {
			t.Fatalf("a memory file was mapped %d times", maps)
		}
	})
	t.Run("past the mapping", func(t *testing.T) {
		// Clusters 0 and 100 written; cluster 100's L2 table (the second)
		// exists but the set has not decoded it when the mapping is made.
		path := filepath.Join(t.TempDir(), "img.qcow")
		f, err := backend.CreateOSFile(path)
		if err != nil {
			t.Fatal(err)
		}
		img, err := Create(f, CreateOpts{Size: testMB, ClusterBits: 9})
		if err != nil {
			t.Fatal(err)
		}
		c0, c100, c101 := bytes.Repeat([]byte{1}, 512), bytes.Repeat([]byte{2}, 512), bytes.Repeat([]byte{3}, 512)
		for _, w := range []struct {
			b  []byte
			vc int64
		}{{c0, 0}, {c100, 100}} {
			if err := backend.WriteFull(img, w.b, w.vc*512); err != nil {
				t.Fatal(err)
			}
		}
		if err := img.Close(); err != nil {
			t.Fatal(err)
		}
		set := NewTables()
		ro := openOS(t, path, set)
		defer ro.Close() //nolint:errcheck // read-only
		got := make([]byte, 512)
		if err := backend.ReadFull(ro, got, 0); err != nil || !bytes.Equal(got, c0) {
			t.Fatalf("cluster 0: %v", err)
		}
		// The file grows past the mapping: cluster 101 lands at its end.
		wf, err := backend.OpenOSFile(path, false)
		if err != nil {
			t.Fatal(err)
		}
		w, err := Open(wf, OpenOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if err := backend.WriteFull(w, c101, 101*512); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		before := ro.Stats().MmapReads.Load()
		if err := backend.ReadFull(ro, got, 101*512); err != nil || !bytes.Equal(got, c101) {
			t.Fatalf("cluster past the mapping: %v", err)
		}
		if ro.Stats().MmapReads.Load() != before {
			t.Fatal("an extent past the mapping was copied from it")
		}
		if err := backend.ReadFull(ro, got, 100*512); err != nil || !bytes.Equal(got, c100) {
			t.Fatalf("cluster 100: %v", err)
		}
		if ro.Stats().MmapReads.Load() != before+1 {
			t.Fatal("an extent inside the mapping was not copied from it")
		}
	})
}

// TestMappingLifetime: a set maps its file on the first raw read through an
// attached image, never on attach alone, and unmaps once — after it is
// retired and its last attached image has closed, in either order.
func TestMappingLifetime(t *testing.T) {
	path, _ := newOSImageFile(t, 256<<10, 9, 89)
	buf := make([]byte, 4096)
	expect := func(t *testing.T, set *Tables, maps, unmaps int) {
		t.Helper()
		if m, u := set.Mappings(); m != maps || u != unmaps {
			t.Fatalf("%d maps, %d unmaps; want %d, %d", m, u, maps, unmaps)
		}
	}
	t.Run("attached only", func(t *testing.T) {
		set := NewTables()
		img := openOS(t, path, set)
		img.Close() //nolint:errcheck // read-only
		set.Retire()
		expect(t, set, 0, 0)
	})
	t.Run("retired before the last close", func(t *testing.T) {
		set := NewTables()
		a, b := openOS(t, path, set), openOS(t, path, set)
		for _, img := range []*Image{a, b} {
			if err := backend.ReadFull(img, buf, 0); err != nil {
				t.Fatal(err)
			}
		}
		expect(t, set, 1, 0)
		set.Retire()
		a.Close() //nolint:errcheck // read-only
		expect(t, set, 1, 0)
		if err := backend.ReadFull(b, buf, 8192); err != nil {
			t.Fatal(err)
		}
		if late := openOS(t, path, set); late.tables != nil {
			t.Fatal("an open attached to a retired set")
		} else {
			late.Close() //nolint:errcheck // read-only
		}
		expect(t, set, 1, 0)
		b.Close() //nolint:errcheck // read-only
		expect(t, set, 1, 1)
	})
	t.Run("closed before retirement", func(t *testing.T) {
		set := NewTables()
		img := openOS(t, path, set)
		if err := backend.ReadFull(img, buf, 0); err != nil {
			t.Fatal(err)
		}
		img.Close() //nolint:errcheck // read-only
		expect(t, set, 1, 0)
		img = openOS(t, path, set) // the mapping outlives a gap in users
		if err := backend.ReadFull(img, buf, 4096); err != nil {
			t.Fatal(err)
		}
		img.Close() //nolint:errcheck // read-only
		expect(t, set, 1, 0)
		set.Retire()
		expect(t, set, 1, 1)
	})
}

// TestMmapCloseRace runs readers on two images of one set while the set
// is retired and the images close; under -race this pins that the mapping
// goes only after every attached image has drained its reads.
func TestMmapCloseRace(t *testing.T) {
	const size = testMB
	path, pat := newOSImageFile(t, size, 12, 83)
	set := NewTables()
	imgs := []*Image{openOS(t, path, set), openOS(t, path, set)}
	var wg sync.WaitGroup
	start := make(chan struct{})
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func(img *Image, seed int64) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(seed))
			buf := make([]byte, 32<<10)
			<-start
			for i := 0; i < 200; i++ {
				off := rnd.Int63n(size - int64(len(buf)))
				if err := backend.ReadFull(img, buf, off); err != nil {
					return // ErrClosed once Close lands: expected
				}
				if !bytes.Equal(buf, pat[off:off+int64(len(buf))]) {
					panic("mapping race: data mismatch")
				}
			}
		}(imgs[r%2], int64(r))
	}
	close(start)
	set.Retire()
	imgs[0].Close() //nolint:errcheck // racing with readers by design
	imgs[1].Close() //nolint:errcheck // racing with readers by design
	wg.Wait()
	if maps, unmaps := set.Mappings(); unmaps != maps || maps > 1 {
		t.Fatalf("%d maps, %d unmaps after every image closed", maps, unmaps)
	}
}

// TestMappedReadPastEOF: an L2 slot pointing past the end of a read-only
// file fails the read with the same error on an image attached to a set as
// on one reading with pread.
func TestMappedReadPastEOF(t *testing.T) {
	path, _ := newOSImageFile(t, 256<<10, 9, 97)
	probe := openOS(t, path, nil)
	slot := int64(probe.l1[0]&entryOffsetMask) + 3*l2EntrySize // cluster 3
	probe.Close()                                              //nolint:errcheck // read-only
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	wf, err := backend.OpenOSFile(path, false)
	if err != nil {
		t.Fatal(err)
	}
	put64(t, wf, slot, uint64(st.Size()+64<<10)|entryCopied)
	wf.Close() //nolint:errcheck // test
	read := func(set *Tables) error {
		img := openOS(t, path, set)
		defer img.Close() //nolint:errcheck // read-only
		buf := make([]byte, 512)
		if err := backend.ReadFull(img, buf, 0); err != nil {
			t.Fatalf("cluster 0: %v", err)
		}
		return backend.ReadFull(img, buf, 3*512)
	}
	want := read(nil)
	set := NewTables()
	got := read(set)
	if want == nil || got == nil || got.Error() != want.Error() || !errors.Is(got, io.ErrUnexpectedEOF) {
		t.Fatalf("read past EOF: %v with a set, %v with pread", got, want)
	}
	if maps, _ := set.Mappings(); maps != 1 {
		t.Fatalf("%d maps", maps)
	}
}

// TestMappedReadFault truncates the file under an image reading through the
// set's mapping: the copy faults, and the read fails with the error pread
// meets instead of killing the process.
func TestMappedReadFault(t *testing.T) {
	path, pat := newOSImageFile(t, 256<<10, 9, 101)
	set := NewTables()
	img := openOS(t, path, set)
	defer img.Close() //nolint:errcheck // read-only
	buf := make([]byte, 64<<10)
	if err := backend.ReadFull(img, buf, 0); err != nil || !bytes.Equal(buf, pat[:len(buf)]) {
		t.Fatalf("before the truncation: %v", err)
	}
	if err := os.Truncate(path, 8192); err != nil {
		t.Fatal(err)
	}
	before := img.Stats().MmapReads.Load()
	if err := backend.ReadFull(img, buf, 0); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("read of a truncated file: %v, want io.ErrUnexpectedEOF", err)
	}
	if img.Stats().MmapReads.Load() != before {
		t.Fatal("a faulting copy was counted as a mapped read")
	}
}
