package qcow

import (
	"errors"
	"testing"

	"vmicache/internal/backend"
)

// chunkValidBits decodes a bitmap into a per-chunk bool slice.
func chunkValidBits(bits []byte, nchunks int64) []bool {
	out := make([]bool, nchunks)
	for c := int64(0); c < nchunks; c++ {
		out[c] = bits[c>>3]&(1<<(c&7)) != 0
	}
	return out
}

func TestValidChunkBitmapWholeClusters(t *testing.T) {
	const size = 8 * ChunkSize // 8 clusters of one chunk each
	base, _ := newPatternedBase(t, size, 31)
	cache := newCache(t, size, 8*testMB, ChunkBits, RawSource{R: base, N: size})
	defer cache.Close()

	// Cold: every chunk invalid.
	bits, err := cache.ValidChunkBitmap()
	if err != nil {
		t.Fatal(err)
	}
	for c, v := range chunkValidBits(bits, 8) {
		if v {
			t.Fatalf("cold cache advertises chunk %d", c)
		}
	}

	// Fill clusters 2 and 5 through copy-on-read.
	buf := make([]byte, 4096)
	for _, vc := range []int64{2, 5} {
		if err := backend.ReadFull(cache, buf, vc*ChunkSize); err != nil {
			t.Fatal(err)
		}
	}
	bits, err = cache.ValidChunkBitmap()
	if err != nil {
		t.Fatal(err)
	}
	for c, v := range chunkValidBits(bits, 8) {
		want := c == 2 || c == 5
		if v != want {
			t.Fatalf("chunk %d valid=%v, want %v", c, v, want)
		}
	}
}

// A chunk smaller than a cluster inherits the cluster's validity; a chunk
// larger than a cluster requires every cluster it covers.
func TestValidChunkBitmapClusterSizes(t *testing.T) {
	const size = 4 * ChunkSize
	base, _ := newPatternedBase(t, size, 33)
	buf := make([]byte, 4096)

	big := newCache(t, size, 8*testMB, ChunkBits+1, RawSource{R: base, N: size})
	defer big.Close()
	if err := backend.ReadFull(big, buf, 2*ChunkSize); err != nil {
		t.Fatal(err)
	}
	bits, err := big.ValidChunkBitmap()
	if err != nil {
		t.Fatal(err)
	}
	if v := chunkValidBits(bits, 4); v[0] || v[1] || !v[2] || !v[3] {
		t.Fatalf("half-cluster chunks = %v, want chunks 2+3 (cluster 1)", v)
	}

	small := newCache(t, size, 8*testMB, 12, RawSource{R: base, N: size})
	defer small.Close()
	if err := backend.ReadFull(small, buf, ChunkSize); err != nil {
		t.Fatal(err)
	}
	bits, _ = small.ValidChunkBitmap()
	if v := chunkValidBits(bits, 4); v[1] {
		t.Fatal("chunk valid with one of its 16 clusters warm")
	}
	if err := backend.ReadFull(small, make([]byte, ChunkSize), ChunkSize); err != nil {
		t.Fatal(err)
	}
	bits, _ = small.ValidChunkBitmap()
	if v := chunkValidBits(bits, 4); !v[1] || v[0] || v[2] || v[3] {
		t.Fatalf("16-cluster chunks = %v, want only chunk 1", v)
	}
}

func TestRangeLocallyValid(t *testing.T) {
	const size = 8 * 4096
	base, _ := newPatternedBase(t, size, 35)
	cache := newCache(t, size, 8*testMB, 12, RawSource{R: base, N: size})
	defer cache.Close()

	buf := make([]byte, 4096)
	if err := backend.ReadFull(cache, buf, 2*4096); err != nil {
		t.Fatal(err)
	}
	if !cache.RangeLocallyValid(2*4096, 4096) {
		t.Fatal("filled cluster not locally valid")
	}
	if !cache.RangeLocallyValid(2*4096+100, 200) {
		t.Fatal("sub-range of a filled cluster not locally valid")
	}
	if cache.RangeLocallyValid(3*4096, 4096) {
		t.Fatal("cold cluster locally valid")
	}
	if cache.RangeLocallyValid(2*4096, 2*4096) {
		t.Fatal("range straddling a cold cluster locally valid")
	}
	if cache.RangeLocallyValid(-1, 10) || cache.RangeLocallyValid(size-10, 20) {
		t.Fatal("out-of-bounds range locally valid")
	}
	if !cache.RangeLocallyValid(0, 0) {
		t.Fatal("empty range should be trivially valid")
	}
}

func TestValidChunkBitmapErrors(t *testing.T) {
	const size = 4096
	base, _ := newPatternedBase(t, size, 37)
	cache := newCache(t, size, 8*testMB, 12, RawSource{R: base, N: size})

	cache.Close()
	if _, err := cache.ValidChunkBitmap(); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed image: %v", err)
	}
	if cache.RangeLocallyValid(0, 100) {
		t.Fatal("closed image range valid")
	}
}

// A tail chunk past a short last cluster must be coverable, and the bitmap's
// padding bits stay zero so Count-style summaries are exact.
func TestValidChunkBitmapTailPadding(t *testing.T) {
	const size = 9*ChunkSize + 100 // 10 chunks, the last short
	base, _ := newPatternedBase(t, size, 39)
	cache := newCache(t, size, 8*testMB, 12, RawSource{R: base, N: size})
	defer cache.Close()

	buf := make([]byte, 100)
	if err := backend.ReadFull(cache, buf, 9*ChunkSize); err != nil {
		t.Fatal(err)
	}
	bits, err := cache.ValidChunkBitmap()
	if err != nil {
		t.Fatal(err)
	}
	v := chunkValidBits(bits, 10)
	if !v[9] {
		t.Fatal("short tail chunk not valid after its cluster filled")
	}
	for c := 0; c < 9; c++ {
		if v[c] {
			t.Fatalf("chunk %d unexpectedly valid", c)
		}
	}
	// Padding bits beyond chunk 9 (bits 10-15 of byte 1) must be zero.
	if bits[1]&^0b11 != 0 {
		t.Fatalf("padding bits set: %08b", bits[1])
	}
}
