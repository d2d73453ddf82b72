package qcow

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"vmicache/internal/backend"
)

const testMB = 1 << 20

// newTestImage creates a standalone image on a fresh memory file.
func newTestImage(t *testing.T, size int64, clusterBits int) (*Image, *backend.MemFile) {
	t.Helper()
	f := backend.NewMemFile()
	img, err := Create(f, CreateOpts{Size: size, ClusterBits: clusterBits})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	return img, f
}

func TestCreateOpenRoundTrip(t *testing.T) {
	f := backend.NewMemFile()
	img, err := Create(f, CreateOpts{
		Size:        64 * testMB,
		ClusterBits: 16,
		BackingFile: "base.qcow",
	})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if img.Size() != 64*testMB || img.ClusterSize() != 64<<10 {
		t.Fatalf("geometry: size=%d cluster=%d", img.Size(), img.ClusterSize())
	}
	snap := snapshot(t, f)
	if err := img.Close(); err != nil {
		t.Fatal(err)
	}

	got, err := Open(snap, OpenOpts{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	h := *got.hdr
	if h.Size != 64*testMB || h.ClusterBits != 16 {
		t.Fatalf("header: %+v", h)
	}
	if h.BackingFile != "base.qcow" || got.BackingName() != "base.qcow" {
		t.Fatalf("backing name: %q", h.BackingFile)
	}
	if got.IsCache() {
		t.Fatal("plain image reported as cache")
	}
}

// snapshot clones the content of a backend.File into a new MemFile; closing
// an image releases its MemFile, so reopen tests snapshot first.
func snapshot(t *testing.T, f backend.File) *backend.MemFile {
	t.Helper()
	sz, err := f.Size()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, sz)
	if sz > 0 {
		if err := backend.ReadFull(f, buf, 0); err != nil {
			t.Fatal(err)
		}
	}
	out := backend.NewMemFile()
	if err := backend.WriteFull(out, buf, 0); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestCreateValidation(t *testing.T) {
	f := backend.NewMemFile()
	if _, err := Create(f, CreateOpts{Size: 0}); !errors.Is(err, ErrBadSize) {
		t.Fatalf("zero size: %v", err)
	}
	if _, err := Create(f, CreateOpts{Size: testMB, ClusterBits: 5}); !errors.Is(err, ErrBadClusterBits) {
		t.Fatalf("tiny clusters: %v", err)
	}
	if _, err := Create(f, CreateOpts{Size: testMB, ClusterBits: 25}); !errors.Is(err, ErrBadClusterBits) {
		t.Fatalf("huge clusters: %v", err)
	}
	// Backing name too large for a 512-byte first cluster.
	long := make([]byte, 600)
	for i := range long {
		long[i] = 'x'
	}
	_, err := Create(backend.NewMemFile(), CreateOpts{
		Size: testMB, ClusterBits: 9, BackingFile: string(long),
	})
	if !errors.Is(err, ErrBackingNameSize) {
		t.Fatalf("long backing name: %v", err)
	}
	// Cache quota smaller than initial metadata.
	_, err = Create(backend.NewMemFile(), CreateOpts{
		Size: testMB, ClusterBits: 16, CacheQuota: 1,
	})
	if !errors.Is(err, ErrQuotaTooSmall) {
		t.Fatalf("tiny quota: %v", err)
	}
}

func TestOpenRejectsGarbage(t *testing.T) {
	f := backend.NewMemFile()
	if _, err := Open(f, OpenOpts{}); err == nil {
		t.Fatal("opened empty file")
	}
	if err := backend.WriteFull(f, bytes.Repeat([]byte{0x42}, 4096), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(f, OpenOpts{}); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("garbage: %v", err)
	}
}

func TestStandaloneReadsZero(t *testing.T) {
	img, _ := newTestImage(t, 4*testMB, 12)
	buf := make([]byte, 8192)
	for i := range buf {
		buf[i] = 0xee
	}
	if err := backend.ReadFull(img, buf, 12345); err != nil {
		t.Fatal(err)
	}
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("byte %d = %#x, want 0", i, b)
		}
	}
}

func TestWriteReadRoundTripCrossCluster(t *testing.T) {
	img, _ := newTestImage(t, 4*testMB, 12) // 4 KiB clusters
	rnd := rand.New(rand.NewSource(1))
	data := make([]byte, 3*4096+555) // spans 4+ clusters, unaligned
	rnd.Read(data)
	off := int64(4096 - 100)
	if err := backend.WriteFull(img, data, off); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := backend.ReadFull(img, got, off); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip mismatch")
	}
	// Neighbouring bytes must still be zero.
	edge := make([]byte, 100)
	if err := backend.ReadFull(img, edge, off-100); err != nil {
		t.Fatal(err)
	}
	for _, b := range edge {
		if b != 0 {
			t.Fatal("write spilled before start")
		}
	}
}

func TestReadAtEOFSemantics(t *testing.T) {
	img, _ := newTestImage(t, 1000, 9) // unaligned virtual size
	buf := make([]byte, 2000)
	n, err := img.ReadAt(buf, 0)
	if n != 1000 || err != io.EOF {
		t.Fatalf("read past end: n=%d err=%v", n, err)
	}
	if _, err := img.ReadAt(buf, 1000); err != io.EOF {
		t.Fatalf("read at end: %v", err)
	}
	if _, err := img.ReadAt(buf, -5); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("negative: %v", err)
	}
	if _, err := img.WriteAt(buf, 0); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("write past end: %v", err)
	}
}

func TestUnalignedVirtualSizeTailCluster(t *testing.T) {
	img, _ := newTestImage(t, 5000, 12) // two clusters, second partial
	data := bytes.Repeat([]byte{7}, 5000)
	if err := backend.WriteFull(img, data, 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 5000)
	if err := backend.ReadFull(img, got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("tail cluster mismatch")
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	f := backend.NewMemFile()
	img, err := Create(f, CreateOpts{Size: 8 * testMB, ClusterBits: 13})
	if err != nil {
		t.Fatal(err)
	}
	rnd := rand.New(rand.NewSource(2))
	data := make([]byte, 100<<10)
	rnd.Read(data)
	if err := backend.WriteFull(img, data, 777777); err != nil {
		t.Fatal(err)
	}
	if err := img.Sync(); err != nil {
		t.Fatal(err)
	}
	snap := snapshot(t, f)
	if err := img.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(snap, OpenOpts{})
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := backend.ReadFull(re, got, 777777); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("data lost across reopen")
	}
	res, err := re.Check()
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("check after reopen: %s", res)
	}
}

func TestCoWReadPassthroughGranularity(t *testing.T) {
	// Base contains a pattern; CoW reads must fetch only the requested
	// bytes (on-demand transfer), not whole clusters.
	base := backend.NewMemFileSize(4 * testMB)
	pat := make([]byte, 4*testMB)
	for i := range pat {
		pat[i] = byte(i * 7)
	}
	if err := backend.WriteFull(base, pat, 0); err != nil {
		t.Fatal(err)
	}
	cnt := &backend.Counters{}
	counted := backend.NewCountingFile(base, cnt)

	img, _ := newTestImage(t, 4*testMB, 16)
	img.SetBacking(RawSource{R: counted, N: 4 * testMB})

	buf := make([]byte, 100)
	if err := backend.ReadFull(img, buf, 50000); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, pat[50000:50100]) {
		t.Fatal("passthrough data mismatch")
	}
	if got := cnt.ReadBytes.Load(); got != 100 {
		t.Fatalf("backing traffic = %d, want exactly 100 (request granularity)", got)
	}
	if got := img.Stats().BackingBytes.Load(); got != 100 {
		t.Fatalf("stats backing bytes = %d", got)
	}
}

func TestCoWWriteFillsPartialCluster(t *testing.T) {
	base := backend.NewMemFileSize(testMB)
	pat := bytes.Repeat([]byte{0xAB}, testMB)
	if err := backend.WriteFull(base, pat, 0); err != nil {
		t.Fatal(err)
	}
	img, _ := newTestImage(t, testMB, 12) // 4 KiB clusters
	img.SetBacking(RawSource{R: base, N: testMB})

	// Partial-cluster write: the rest of the cluster must come from base.
	if err := backend.WriteFull(img, []byte{1, 2, 3}, 8192+100); err != nil {
		t.Fatal(err)
	}
	if img.Stats().CowFillBytes.Load() != 4096 {
		t.Fatalf("cow fill bytes = %d", img.Stats().CowFillBytes.Load())
	}
	got := make([]byte, 4096)
	if err := backend.ReadFull(img, got, 8192); err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte{0xAB}, 4096)
	copy(want[100:], []byte{1, 2, 3})
	if !bytes.Equal(got, want) {
		t.Fatal("CoW merge mismatch")
	}
	if ok, _ := img.Allocated(8192); !ok {
		t.Fatal("cluster not allocated after write")
	}
	if ok, _ := img.Allocated(0); ok {
		t.Fatal("untouched cluster allocated")
	}
}

func TestCoWFullClusterWriteSkipsFill(t *testing.T) {
	base := backend.NewMemFileSize(testMB)
	img, _ := newTestImage(t, testMB, 12)
	cnt := &backend.Counters{}
	counted := backend.NewCountingFile(base, cnt)
	img.SetBacking(RawSource{R: counted, N: testMB})
	full := bytes.Repeat([]byte{9}, 4096)
	if err := backend.WriteFull(img, full, 4096); err != nil {
		t.Fatal(err)
	}
	if cnt.ReadBytes.Load() != 0 {
		t.Fatal("full-cluster write fetched from base")
	}
}

func TestWriteInPlaceSecondTime(t *testing.T) {
	img, _ := newTestImage(t, testMB, 12)
	if err := backend.WriteFull(img, []byte("one"), 100); err != nil {
		t.Fatal(err)
	}
	before, _ := img.AllocatedDataClusters()
	if err := backend.WriteFull(img, []byte("two"), 100); err != nil {
		t.Fatal(err)
	}
	after, _ := img.AllocatedDataClusters()
	if before != after {
		t.Fatalf("rewrite allocated a new cluster: %d -> %d", before, after)
	}
	got := make([]byte, 3)
	if err := backend.ReadFull(img, got, 100); err != nil {
		t.Fatal(err)
	}
	if string(got) != "two" {
		t.Fatalf("got %q", got)
	}
}

func TestReadOnlyRejectsWrites(t *testing.T) {
	f := backend.NewMemFile()
	img, err := Create(f, CreateOpts{Size: testMB, ClusterBits: 12})
	if err != nil {
		t.Fatal(err)
	}
	if err := backend.WriteFull(img, []byte("x"), 0); err != nil {
		t.Fatal(err)
	}
	snap := snapshot(t, f)
	img.Close() //nolint:errcheck

	ro, err := Open(snap, OpenOpts{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ro.WriteAt([]byte("y"), 0); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("write on RO image: %v", err)
	}
	buf := make([]byte, 1)
	if err := backend.ReadFull(ro, buf, 0); err != nil || buf[0] != 'x' {
		t.Fatalf("RO read: %v %q", err, buf)
	}
}

func TestClosedImageOps(t *testing.T) {
	img, _ := newTestImage(t, testMB, 12)
	if err := img.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := img.ReadAt(make([]byte, 1), 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("read after close: %v", err)
	}
	if _, err := img.WriteAt(make([]byte, 1), 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("write after close: %v", err)
	}
	if err := img.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("double close: %v", err)
	}
	if err := img.Sync(); !errors.Is(err, ErrClosed) {
		t.Fatalf("sync after close: %v", err)
	}
}

func TestCheckDetectsCorruptRefcount(t *testing.T) {
	img, f := newTestImage(t, testMB, 12)
	if err := backend.WriteFull(img, []byte("data"), 0); err != nil {
		t.Fatal(err)
	}
	res, err := img.Check()
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("fresh image not OK: %s", res)
	}
	// Zero the refcount of the header cluster (cluster 0), a count below
	// its one reference: refblock 0 lives right after the refcount table.
	// A count above it would be a leak, which Check allows.
	h := *img.hdr
	rbOff := int64(h.RefTableOffset) + int64(h.RefTableClusters)*img.ClusterSize()
	if err := backend.WriteFull(f, []byte{0, 0}, rbOff); err != nil {
		t.Fatal(err)
	}
	res, err = img.Check()
	if err != nil {
		t.Fatal(err)
	}
	if res.OK() {
		t.Fatal("check missed corrupted refcount")
	}
}

func TestMapExtents(t *testing.T) {
	img, _ := newTestImage(t, 16*4096, 12)
	// Allocate clusters 1,2 and 5.
	if err := backend.WriteFull(img, bytes.Repeat([]byte{1}, 2*4096), 4096); err != nil {
		t.Fatal(err)
	}
	if err := backend.WriteFull(img, []byte{2}, 5*4096); err != nil {
		t.Fatal(err)
	}
	ext, err := img.Map()
	if err != nil {
		t.Fatal(err)
	}
	// Expect: hole[0,4096) alloc[4096,3*4096) hole alloc[5*4096,6*4096) hole.
	if len(ext) != 5 {
		t.Fatalf("extents = %d: %+v", len(ext), ext)
	}
	if ext[0].Allocated || ext[0].Length != 4096 {
		t.Fatalf("extent 0: %+v", ext[0])
	}
	if !ext[1].Allocated || ext[1].Start != 4096 || ext[1].Length != 2*4096 {
		t.Fatalf("extent 1: %+v", ext[1])
	}
	if !ext[3].Allocated || ext[3].Start != 5*4096 {
		t.Fatalf("extent 3: %+v", ext[3])
	}
	var total int64
	for _, e := range ext {
		total += e.Length
	}
	if total != img.Size() {
		t.Fatalf("extents cover %d of %d", total, img.Size())
	}
}

func TestInfoReportsGeometry(t *testing.T) {
	img, _ := newTestImage(t, testMB, 12)
	if err := backend.WriteFull(img, []byte("z"), 0); err != nil {
		t.Fatal(err)
	}
	in, err := img.Info()
	if err != nil {
		t.Fatal(err)
	}
	if in.VirtualSize != testMB || in.ClusterSize != 4096 || in.DataClusters != 1 {
		t.Fatalf("info: %+v", in)
	}
	if in.IsCache {
		t.Fatal("plain image flagged as cache")
	}
	if s := in.String(); s == "" {
		t.Fatal("empty info render")
	}
}

func TestRefTableGrowthRelocation(t *testing.T) {
	img, _ := newTestImage(t, testMB, 9)
	before := int64(img.hdr.RefTableClusters)
	// Force a relocation directly (natural growth needs very large
	// images thanks to the creation margin).
	if err := img.growRefTable(int64(len(img.refTable)) + 10); err != nil {
		t.Fatalf("growRefTable: %v", err)
	}
	after := int64(img.hdr.RefTableClusters)
	if after <= before {
		t.Fatalf("table did not grow: %d -> %d", before, after)
	}
	// Everything must still check out, with the old table clusters freed
	// (they are neither errors nor leaks after explicit zeroing).
	res, err := img.Check()
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("check after growth: %s\n%s", res, img.debugString())
	}
	// And the image must still work.
	if err := backend.WriteFull(img, []byte("post-growth"), 5000); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 11)
	if err := backend.ReadFull(img, got, 5000); err != nil {
		t.Fatal(err)
	}
	if string(got) != "post-growth" {
		t.Fatal("data mismatch after growth")
	}
}

func TestL2CacheEvictionPreservesCorrectness(t *testing.T) {
	img, _ := newTestImage(t, 8*testMB, 9) // 512 B clusters: many L2 tables
	img.l2c = newL2Cache(2)                // brutal eviction pressure
	rnd := rand.New(rand.NewSource(5))
	type w struct {
		off  int64
		data []byte
	}
	var writes []w
	for i := 0; i < 200; i++ {
		d := make([]byte, 512)
		rnd.Read(d)
		off := rnd.Int63n(8*testMB - 512)
		writes = append(writes, w{off, d})
		if err := backend.WriteFull(img, d, off); err != nil {
			t.Fatal(err)
		}
	}
	// Later writes may overlap earlier ones; replay onto a reference.
	ref := make([]byte, 8*testMB)
	for _, wr := range writes {
		copy(ref[wr.off:], wr.data)
	}
	buf := make([]byte, 512)
	for _, wr := range writes {
		if err := backend.ReadFull(img, buf, wr.off); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, ref[wr.off:wr.off+512]) {
			t.Fatalf("mismatch at %d under L2 eviction", wr.off)
		}
	}
	if img.stats.L2CacheMisses.Load() == 0 {
		t.Fatal("expected L2 cache misses under eviction pressure")
	}
}

func TestRawSourcePadding(t *testing.T) {
	mf := backend.NewMemFileSize(100)
	if err := backend.WriteFull(mf, bytes.Repeat([]byte{5}, 100), 0); err != nil {
		t.Fatal(err)
	}
	rs := RawSource{R: mf, N: 100}
	buf := make([]byte, 50)
	if _, err := rs.ReadAt(buf, 80); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if buf[i] != 5 {
			t.Fatal("data before pad wrong")
		}
	}
	for i := 20; i < 50; i++ {
		if buf[i] != 0 {
			t.Fatal("pad not zero")
		}
	}
	if _, err := rs.ReadAt(buf, 200); err != nil {
		t.Fatal(err)
	}
	for _, b := range buf {
		if b != 0 {
			t.Fatal("fully-past-end read not zero")
		}
	}
	if rs.Size() != 100 {
		t.Fatal("RawSource size")
	}
}

// Property-style test: random guest writes then reads against a reference
// buffer, over a chain with a patterned base, followed by a metadata check.
func TestRandomOpsMatchReference(t *testing.T) {
	const size = 2 * testMB
	basePat := make([]byte, size)
	rnd := rand.New(rand.NewSource(11))
	rnd.Read(basePat)
	base := backend.NewMemFileSize(size)
	if err := backend.WriteFull(base, basePat, 0); err != nil {
		t.Fatal(err)
	}

	for _, cb := range []int{9, 12, 16} {
		img, _ := newTestImage(t, size, cb)
		img.SetBacking(RawSource{R: base, N: size})
		ref := make([]byte, size)
		copy(ref, basePat)

		for i := 0; i < 300; i++ {
			off := rnd.Int63n(size - 1)
			n := rnd.Int63n(20000) + 1
			if off+n > size {
				n = size - off
			}
			if rnd.Intn(2) == 0 {
				d := make([]byte, n)
				rnd.Read(d)
				if err := backend.WriteFull(img, d, off); err != nil {
					t.Fatalf("cb=%d write: %v", cb, err)
				}
				copy(ref[off:], d)
			} else {
				got := make([]byte, n)
				if err := backend.ReadFull(img, got, off); err != nil {
					t.Fatalf("cb=%d read: %v", cb, err)
				}
				if !bytes.Equal(got, ref[off:off+n]) {
					t.Fatalf("cb=%d mismatch at %d+%d", cb, off, n)
				}
			}
		}
		res, err := img.Check()
		if err != nil {
			t.Fatal(err)
		}
		if !res.OK() {
			t.Fatalf("cb=%d check: %s", cb, res)
		}
	}
}

// Allocated reports whether the cluster containing virtual offset off is
// materialised in this image (not deferring to backing).
func (img *Image) Allocated(off int64) (bool, error) {
	img.mu.RLock()
	defer img.mu.RUnlock()
	if img.closed {
		return false, ErrClosed
	}
	if off < 0 || off >= int64(img.hdr.Size) {
		return false, ErrOutOfRange
	}
	m, err := img.lookup(off / img.ly.clusterSize)
	if err != nil {
		return false, err
	}
	return m.dataOff != 0, nil
}

// CompressionStats reports (clusters, compressedBytes) written compressed.
func (img *Image) CompressionStats() (int64, int64) {
	return img.stats.CompressedClusters.Load(), img.stats.CompressedBytes.Load()
}

// debugString summarises allocator state for error messages.
func (img *Image) debugString() string {
	return fmt.Sprintf("clusters=%d used=%dB l1=%d refTableEntries=%d",
		img.nextFree, img.usedBytes(), len(img.l1), len(img.refTable))
}
