package qcow

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"vmicache/internal/backend"
)

// Format-stability tests: the on-disk layout is a compatibility contract
// (images written today must open tomorrow). These tests pin the byte-level
// positions of the header fields and the cache extension, so accidental
// layout changes fail loudly.

func TestGoldenHeaderLayout(t *testing.T) {
	f := backend.NewMemFile()
	img, err := Create(f, CreateOpts{
		Size:        8 << 20,
		ClusterBits: 12,
		BackingFile: "base.img",
		CacheQuota:  4 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := img.Sync(); err != nil {
		t.Fatal(err)
	}
	raw := make([]byte, 4096)
	if err := backend.ReadFull(f, raw, 0); err != nil {
		t.Fatal(err)
	}
	be := binary.BigEndian

	// Fixed header fields at their QCOW2 v3 offsets.
	if got := be.Uint32(raw[0:]); got != 0x514649fb {
		t.Fatalf("magic = %#x", got)
	}
	if got := be.Uint32(raw[4:]); got != 3 {
		t.Fatalf("version = %d", got)
	}
	if got := be.Uint32(raw[20:]); got != 12 {
		t.Fatalf("cluster_bits = %d", got)
	}
	if got := be.Uint64(raw[24:]); got != 8<<20 {
		t.Fatalf("size = %d", got)
	}
	if got := be.Uint32(raw[96:]); got != 4 {
		t.Fatalf("refcount_order = %d", got)
	}
	if got := be.Uint32(raw[100:]); got != 104 {
		t.Fatalf("header_length = %d", got)
	}

	// Cache extension: first extension, type 0xcac4e0f1, 16-byte payload
	// (quota, used) at offset 104.
	if got := be.Uint32(raw[104:]); got != 0xcac4e0f1 {
		t.Fatalf("cache ext type = %#x", got)
	}
	if got := be.Uint32(raw[108:]); got != 16 {
		t.Fatalf("cache ext length = %d", got)
	}
	if got := be.Uint64(raw[112:]); got != 4<<20 {
		t.Fatalf("cache quota = %d", got)
	}
	if got := be.Uint64(raw[120:]); got == 0 {
		t.Fatal("cache used = 0")
	}
	// End-of-extensions marker after the padded cache extension.
	if got := be.Uint32(raw[128:]); got != 0 {
		t.Fatalf("end marker = %#x", got)
	}

	// Backing name: offset/size fields point inside cluster 0.
	bfOff := be.Uint64(raw[8:])
	bfLen := be.Uint32(raw[16:])
	if bfOff == 0 || bfLen != 8 {
		t.Fatalf("backing fields: off=%d len=%d", bfOff, bfLen)
	}
	if got := string(raw[bfOff : bfOff+uint64(bfLen)]); got != "base.img" {
		t.Fatalf("backing name = %q", got)
	}
}

func TestGoldenLayoutOffsets(t *testing.T) {
	// Creation layout: header | refcount table | first refblock | L1.
	f := backend.NewMemFile()
	img, err := Create(f, CreateOpts{Size: 8 << 20, ClusterBits: 12})
	if err != nil {
		t.Fatal(err)
	}
	h := img.Header()
	cs := int64(4096)
	if int64(h.RefTableOffset) != cs {
		t.Fatalf("refcount table at %d, want %d", h.RefTableOffset, cs)
	}
	l1Expected := int64(h.RefTableOffset) + int64(h.RefTableClusters)*cs + cs
	if int64(h.L1TableOffset) != l1Expected {
		t.Fatalf("L1 at %d, want %d", h.L1TableOffset, l1Expected)
	}
	// An image created with identical options is byte-identical
	// (deterministic creation).
	f2 := backend.NewMemFile()
	if _, err := Create(f2, CreateOpts{Size: 8 << 20, ClusterBits: 12}); err != nil {
		t.Fatal(err)
	}
	s1, _ := f.Size()
	s2, _ := f2.Size()
	if s1 != s2 {
		t.Fatalf("sizes differ: %d vs %d", s1, s2)
	}
	a := make([]byte, s1)
	b := make([]byte, s2)
	if err := backend.ReadFull(f, a, 0); err != nil {
		t.Fatal(err)
	}
	if err := backend.ReadFull(f2, b, 0); err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("creation not deterministic at byte %d", i)
		}
	}
}

// createLog records what Create asks of its container: each write's offset
// and whether it held a non-zero byte, and the truncates.
type createLog struct {
	backend.File
	writes    []int64
	zeroOnly  []int64
	truncates int
}

func (f *createLog) WriteAt(p []byte, off int64) (int, error) {
	f.writes = append(f.writes, off)
	if !slices.ContainsFunc(p, func(b byte) bool { return b != 0 }) {
		f.zeroOnly = append(f.zeroOnly, off)
	}
	return f.File.WriteAt(p, off)
}

func (f *createLog) Truncate(n int64) error {
	f.truncates++
	return f.File.Truncate(n)
}

// TestCreateWrites pins Create's container I/O and its bytes: one truncate
// and at most four writes of non-zero data at every cluster size, a result
// that passes Check, and a file identical, after Close, to the one the
// write-per-refcount-entry Create produced (SHA-256 of each).
func TestCreateWrites(t *testing.T) {
	golden := map[[2]int64]string{
		{9, 0}:         "7a64efdf467aa7c5c250a5eca2adb09507757464129421d9093c6ff3ff6195e3",
		{9, 64 << 20}:  "b825c1e54b31ad38c750123a2754fe7d7d976c68710fd1e3dbd774094fba434f",
		{12, 0}:        "841e37453a951b0979daa54d99232f48e6eb688544d978ff72b65f05bb680be5",
		{12, 64 << 20}: "31c65f8325d9047ed15c21b5b4bc98b18706dc85de873914b1ab16a1dc93b572",
		{16, 0}:        "9e99d5baac41dd06449a69328aa2e6cd4862e2ae3271e7c8efdab863f898a517",
		{16, 64 << 20}: "b8463153e45345f0ded6af3e76c7fbcc46a06221629ec19f1de9332b90086246",
		{21, 0}:        "87d983e2c59984ed4d32ea03b7af7673693e1adeb12cb211da4964e5f43b613f",
		{21, 64 << 20}: "64624799ad19e4a6d6bdde9be8e62c800d67c563cc871348d33bc62d94e49a5d",
	}
	dir := t.TempDir()
	st, err := backend.NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, cb := range []int64{9, 12, 16, 21} {
		for _, quota := range []int64{0, 64 << 20} {
			t.Run(fmt.Sprintf("bits_%d_quota_%d", cb, quota), func(t *testing.T) {
				name := fmt.Sprintf("c%d-%d.img", cb, quota)
				f, err := st.Create(name)
				if err != nil {
					t.Fatal(err)
				}
				log := &createLog{File: f}
				img, err := Create(log, CreateOpts{
					Size: 1 << 30, ClusterBits: int(cb), BackingFile: "base.img", CacheQuota: quota,
				})
				if err != nil {
					t.Fatal(err)
				}
				if log.truncates != 1 || len(log.writes) > 4 || len(log.zeroOnly) > 0 {
					t.Errorf("Create issued %d truncates and %d writes (at %v; zero-only at %v), want 1 and at most 4, none zero-only",
						log.truncates, len(log.writes), log.writes, log.zeroOnly)
				}
				res, err := img.Check()
				if err != nil || !res.OK() {
					t.Fatalf("Check: %v %v", err, res)
				}
				if err := img.Close(); err != nil {
					t.Fatal(err)
				}
				b, err := os.ReadFile(filepath.Join(dir, name))
				if err != nil {
					t.Fatal(err)
				}
				if got := fmt.Sprintf("%x", sha256.Sum256(b)); got != golden[[2]int64{cb, quota}] {
					t.Errorf("container of %d B hashes to %s, want %s", len(b), got, golden[[2]int64{cb, quota}])
				}
			})
		}
	}
}
