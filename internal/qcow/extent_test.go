package qcow

// Correctness tests for the run-level extent translation introduced with the
// batched data path: single large requests that cross L2 table boundaries,
// interleave every extent kind, truncate at EOF, and hammer the sharded L2
// cache from many readers at once (run under -race by make check).

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"testing"

	"vmicache/internal/backend"
)

// TestExtentReadSpansL2Tables issues single reads that cross many L2 table
// boundaries. With 512 B clusters one L2 table holds 64 entries and covers
// only 32 KiB, so a 1 MiB request translates through 32 different tables —
// the old per-cluster loop's worst case and the extent path's best.
func TestExtentReadSpansL2Tables(t *testing.T) {
	base, pat := newPatternedBase(t, testMB, 31)
	cache := newCache(t, testMB, testMB, 9, RawSource{R: base, N: testMB})
	defer cache.Close()

	buf := make([]byte, testMB)
	// Cold: the whole image in one request (fills every cluster).
	if err := backend.ReadFull(cache, buf, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, pat) {
		t.Fatal("cold spanning read mismatch")
	}
	// Warm: again, now served purely from the cache's raw clusters.
	for i := range buf {
		buf[i] = 0
	}
	if err := backend.ReadFull(cache, buf, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, pat) {
		t.Fatal("warm spanning read mismatch")
	}
	// Misaligned reads straddling L2 table boundaries (32 KiB coverage).
	for _, off := range []int64{32<<10 - 300, 3*32<<10 - 1, 17 * 1000} {
		span := int64(80 << 10)
		got := make([]byte, span)
		if err := backend.ReadFull(cache, got, off); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, pat[off:off+span]) {
			t.Fatalf("straddling read at %d mismatch", off)
		}
	}
	if cache.stats.L2CacheHits.Load() == 0 {
		t.Fatal("expected L2 cache hits on the warm pass")
	}
}

// TestExtentMixedKinds reads one request that interleaves raw, compressed,
// unallocated-with-backing, and raw again — each translated to a different
// extent kind — and checks the assembled bytes against a flat reference.
func TestExtentMixedKinds(t *testing.T) {
	const size = 16 * 64 << 10 // 16 clusters of 64 KiB
	base, pat := newPatternedBase(t, size, 37)
	f := backend.NewMemFile()
	img, err := Create(f, CreateOpts{Size: size, ClusterBits: 16, BackingFile: "base"})
	if err != nil {
		t.Fatal(err)
	}
	defer img.Close()
	img.SetBacking(RawSource{R: base, N: size})

	cs := img.ClusterSize()
	ref := append([]byte(nil), pat...)

	// Cluster 1: raw write. Clusters 6-7: adjacent raw writes (coalesce).
	rnd := rand.New(rand.NewSource(99))
	for _, vc := range []int64{1, 6, 7} {
		d := make([]byte, cs)
		rnd.Read(d)
		if err := backend.WriteFull(img, d, vc*cs); err != nil {
			t.Fatal(err)
		}
		copy(ref[vc*cs:], d)
	}
	// Cluster 3: compressed.
	cd := make([]byte, cs)
	rnd.Read(cd)
	if err := img.WriteCompressedCluster(3, cd); err != nil {
		t.Fatal(err)
	}
	copy(ref[3*cs:], cd)
	// Clusters 0, 2, 4, 5, 8.. stay unallocated: served from backing.

	got := make([]byte, size)
	if err := backend.ReadFull(img, got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, ref) {
		t.Fatal("mixed-kind spanning read mismatch")
	}
	// A misaligned request from mid-cluster 0 into mid-cluster 8 crosses
	// every transition point between kinds.
	off, span := cs/2, 8*cs
	sub := make([]byte, span)
	if err := backend.ReadFull(img, sub, off); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sub, ref[off:off+span]) {
		t.Fatal("misaligned mixed-kind read mismatch")
	}
}

// TestExtentEOFTail checks requests whose tail crosses the end of the image:
// the translated extents must stop at EOF, return the short count, and
// surface io.EOF.
func TestExtentEOFTail(t *testing.T) {
	base, pat := newPatternedBase(t, testMB, 47)
	cache := newCache(t, testMB, testMB, 9, RawSource{R: base, N: testMB})
	defer cache.Close()

	// Warm a stretch ending at EOF so the tail mixes raw and unallocated.
	warm := make([]byte, 128<<10)
	if err := backend.ReadFull(cache, warm, testMB-int64(len(warm))); err != nil {
		t.Fatal(err)
	}

	buf := make([]byte, 256<<10)
	off := int64(testMB - 100000)
	n, err := cache.ReadAt(buf, off)
	if err != io.EOF {
		t.Fatalf("err = %v, want io.EOF", err)
	}
	if n != 100000 {
		t.Fatalf("n = %d, want 100000", n)
	}
	if !bytes.Equal(buf[:n], pat[off:]) {
		t.Fatal("EOF tail data mismatch")
	}

	if n, err := cache.ReadAt(buf, testMB); n != 0 || err != io.EOF {
		t.Fatalf("read at EOF: n=%d err=%v", n, err)
	}
	if n, err := cache.ReadAt(buf, testMB+512); n != 0 || err != io.EOF {
		t.Fatalf("read past EOF: n=%d err=%v", n, err)
	}
}

// TestExtentShardedL2Stress hammers a warm cache from 64 readers while a
// deliberately tiny L2 cache forces constant shard evictions and reloads;
// every read is checked against the flat reference pattern. Run under -race
// this exercises the shard locking; the counter cross-check pins the
// invariant that per-shard hit/miss counters decompose the aggregate ones.
func TestExtentShardedL2Stress(t *testing.T) {
	const size = 4 * testMB
	base, pat := newPatternedBase(t, size, 53)
	cache := newCache(t, size, size, 9, RawSource{R: base, N: size})
	defer cache.Close()
	cache.l2c = newL2Cache(4) // per-shard cap 1: brutal eviction pressure

	// Warm everything first so the stress phase is pure translation load.
	warm := make([]byte, size)
	if err := backend.ReadFull(cache, warm, 0); err != nil {
		t.Fatal(err)
	}

	const readers = 64
	iters := 300
	if testing.Short() {
		iters = 50
	}
	var wg sync.WaitGroup
	errc := make(chan error, readers)
	for r := 0; r < readers; r++ {
		rnd := rand.New(rand.NewSource(int64(r)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 96<<10)
			for i := 0; i < iters; i++ {
				span := 512 + rnd.Int63n(int64(len(buf))-512)
				off := rnd.Int63n(size - span)
				b := buf[:span]
				if err := backend.ReadFull(cache, b, off); err != nil {
					errc <- err
					return
				}
				if !bytes.Equal(b, pat[off:off+span]) {
					errc <- fmt.Errorf("data mismatch at offset %d (span %d)", off, span)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	var sh, sm int64
	for i := range cache.l2c.shards {
		sh += cache.l2c.shards[i].hits.Load()
		sm += cache.l2c.shards[i].misses.Load()
	}
	if sm == 0 {
		t.Fatal("expected shard misses under eviction pressure")
	}
	if gh, gm := cache.stats.L2CacheHits.Load(), cache.stats.L2CacheMisses.Load(); sh != gh || sm != gm {
		t.Fatalf("shard counters (%d/%d) != aggregate (%d/%d)", sh, sm, gh, gm)
	}
}
