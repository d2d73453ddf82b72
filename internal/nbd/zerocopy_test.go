package nbd

// Tests for the NBD sendfile extent path: byte-identity of zero-copy reads
// against the image content, fallback to the copy path for ranges the extent
// export refuses (compressed clusters, unallocated runs) and for devices
// without extent support — all behind a real fixed-newstyle client over TCP.

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"testing"

	"vmicache/internal/backend"
	"vmicache/internal/qcow"
	"vmicache/internal/zerocopy"
)

// PlainExtents forwards extent export through the chainDevice adapter, the
// same surfacing cmd/nbdserve's device wrapper performs.
func (d chainDevice) PlainExtents(off, n int64, dst []zerocopy.FileExtent) ([]zerocopy.FileExtent, bool) {
	return d.img.PlainExtents(off, n, dst)
}

// newPublishedImage builds an os-backed read-only qcow image: the shape of a
// published cache that nbdserve exports after warming.
func newPublishedImage(t *testing.T, size int64, clusterBits int, seed int64) (*qcow.Image, []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "pub.qcow")
	f, err := backend.CreateOSFile(path)
	if err != nil {
		t.Fatal(err)
	}
	img, err := qcow.Create(f, qcow.CreateOpts{Size: size, ClusterBits: clusterBits})
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
	rof, err := backend.OpenOSFile(path, true)
	if err != nil {
		t.Fatal(err)
	}
	ro, err := qcow.Open(rof, qcow.OpenOpts{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ro.Close() }) //nolint:errcheck
	return ro, pat
}

// TestNBDZeroCopyRead serves a fully-raw published image read-only, which
// takes the extent path, and proves byte-identity across request shapes.
func TestNBDZeroCopyRead(t *testing.T) {
	const size = 2 << 20
	img, pat := newPublishedImage(t, size, 12, 89)
	srv, addr := newTestServer(t)
	srv.AddExport(Export{Name: "pub", Device: chainDevice{img}, ReadOnly: true})

	c, err := Dial(addr, "pub")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close() //nolint:errcheck
	if !c.readOnly {
		t.Fatal("export not read-only")
	}
	for _, tc := range []struct{ off, n int64 }{
		{0, 4096},
		{777, 100001},
		{size - 8192, 8192},
		{0, 1 << 20},
	} {
		buf := make([]byte, tc.n)
		if _, err := c.ReadAt(buf, tc.off); err != nil {
			t.Fatalf("read (%d,%d): %v", tc.off, tc.n, err)
		}
		if !bytes.Equal(buf, pat[tc.off:tc.off+tc.n]) {
			t.Fatalf("read (%d,%d): mismatch", tc.off, tc.n)
		}
	}
	if srv.ZeroCopySegments.Load() == 0 || srv.ZeroCopyBytes.Load() == 0 {
		t.Fatalf("extent path never engaged: segments=%d", srv.ZeroCopySegments.Load())
	}
	if srv.ZeroCopyFallbacks.Load() != 0 {
		t.Fatalf("unexpected fallbacks on a fully-raw image: %d", srv.ZeroCopyFallbacks.Load())
	}
}

// TestNBDZeroCopyFallback mixes raw, compressed, and unallocated clusters:
// every read must stay byte-correct, with raw ranges on the extent path and
// the rest falling back.
func TestNBDZeroCopyFallback(t *testing.T) {
	const cs = 64 << 10
	const size = 8 * cs
	path := filepath.Join(t.TempDir(), "mix.qcow")
	f, err := backend.CreateOSFile(path)
	if err != nil {
		t.Fatal(err)
	}
	img, err := qcow.Create(f, qcow.CreateOpts{Size: size, ClusterBits: 16})
	if err != nil {
		t.Fatal(err)
	}
	ref := make([]byte, size)
	rnd := rand.New(rand.NewSource(97))
	d := make([]byte, cs)
	for _, vc := range []int64{0, 1, 3} { // raw clusters
		rnd.Read(d)
		if err := backend.WriteFull(img, d, vc*cs); err != nil {
			t.Fatal(err)
		}
		copy(ref[vc*cs:], d)
	}
	for i := range d { // compressible content for cluster 2
		d[i] = byte(i / 32)
	}
	if err := img.WriteCompressedCluster(2, d); err != nil {
		t.Fatal(err)
	}
	copy(ref[2*cs:], d)
	// Clusters 4..7 stay unallocated: read as zeros (no backing).
	if err := img.Close(); err != nil {
		t.Fatal(err)
	}
	rof, err := backend.OpenOSFile(path, true)
	if err != nil {
		t.Fatal(err)
	}
	ro, err := qcow.Open(rof, qcow.OpenOpts{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ro.Close() }) //nolint:errcheck

	srv, addr := newTestServer(t)
	srv.AddExport(Export{Name: "mix", Device: chainDevice{ro}, ReadOnly: true})
	c, err := Dial(addr, "mix")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close() //nolint:errcheck

	// Pure raw range: extent path.
	buf := make([]byte, 2*cs)
	if _, err := c.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, ref[:2*cs]) {
		t.Fatal("raw range mismatch")
	}
	zcAfterRaw := srv.ZeroCopySegments.Load()
	if zcAfterRaw == 0 {
		t.Fatal("raw range skipped the extent path")
	}
	// Whole image: crosses compressed and unallocated, must fall back.
	all := make([]byte, size)
	if _, err := c.ReadAt(all, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(all, ref) {
		t.Fatal("mixed read mismatch")
	}
	if srv.ZeroCopyFallbacks.Load() == 0 {
		t.Fatal("mixed range did not fall back")
	}
}

// TestNBDZeroCopyNonExtentDevice exports, read-only, a device that cannot
// export extents: everything must serve via the copy path, each read counted
// as a fallback.
func TestNBDZeroCopyNonExtentDevice(t *testing.T) {
	srv, addr := newTestServer(t)
	mf := backend.NewMemFileSize(256 << 10)
	seed := bytes.Repeat([]byte{0x3C}, 256<<10)
	if err := backend.WriteFull(mf, seed, 0); err != nil {
		t.Fatal(err)
	}
	srv.AddExport(Export{Name: "mem", Device: memDevice{mf, 256 << 10}, ReadOnly: true})
	c, err := Dial(addr, "mem")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close() //nolint:errcheck
	got := make([]byte, 256<<10)
	if _, err := c.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, seed) {
		t.Fatal("copy-path read mismatch")
	}
	if srv.ZeroCopySegments.Load() != 0 {
		t.Fatal("non-extent device claimed zero-copy")
	}
	if srv.ZeroCopyFallbacks.Load() == 0 {
		t.Fatal("copy-path reads of a read-only export were not counted as fallbacks")
	}
}
