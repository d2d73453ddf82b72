package qcow

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"sync/atomic"
	"testing"

	"vmicache/internal/backend"
)

// newPatternedBase returns a MemFile of the given size holding a
// deterministic pattern, plus the pattern for reference.
func newPatternedBase(t *testing.T, size int64, seed int64) (*backend.MemFile, []byte) {
	t.Helper()
	pat := make([]byte, size)
	rand.New(rand.NewSource(seed)).Read(pat)
	f := backend.NewMemFileSize(size)
	if err := backend.WriteFull(f, pat, 0); err != nil {
		t.Fatal(err)
	}
	return f, pat
}

func newCache(t *testing.T, size, quota int64, clusterBits int, backing BlockSource) *Image {
	t.Helper()
	f := backend.NewMemFile()
	img, err := Create(f, CreateOpts{
		Size:        size,
		ClusterBits: clusterBits,
		BackingFile: "base",
		CacheQuota:  quota,
	})
	if err != nil {
		t.Fatalf("Create cache: %v", err)
	}
	img.SetBacking(backing)
	return img
}

func TestCacheCopyOnReadFills(t *testing.T) {
	base, pat := newPatternedBase(t, testMB, 21)
	counted := backend.NewCountingFile(base, nil)
	cache := newCache(t, testMB, testMB, 9, RawSource{R: counted, N: testMB})

	buf := make([]byte, 100)
	if err := backend.ReadFull(cache, buf, 5000); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, pat[5000:5100]) {
		t.Fatal("cold read data mismatch")
	}
	// A 100-byte read at offset 5000 sits inside cluster 9 (4608..5120):
	// one full 512-byte fill.
	if got := counted.Counters().ReadBytes.Load(); got != 512 {
		t.Fatalf("cold traffic = %d, want 512 (one 512 B cluster fill)", got)
	}
	if got := cache.Stats().CacheFillOps.Load(); got != 1 {
		t.Fatalf("fills = %d", got)
	}
	// A read straddling a boundary between two cold clusters fills both.
	if err := backend.ReadFull(cache, buf, 20*512-50); err != nil {
		t.Fatal(err)
	}
	if got := counted.Counters().ReadBytes.Load(); got != 512+1024 {
		t.Fatalf("straddling traffic total = %d, want 1536", got)
	}
	// Second read of the same range: warm, zero base traffic.
	counted.Counters().Reset()
	if err := backend.ReadFull(cache, buf, 5000); err != nil {
		t.Fatal(err)
	}
	if got := counted.Counters().ReadBytes.Load(); got != 0 {
		t.Fatalf("warm read hit base: %d bytes", got)
	}
	if got := cache.Stats().LocalBytes.Load(); got != 100 {
		t.Fatalf("local bytes = %d", got)
	}
}

func TestCacheClusterAmplification64K(t *testing.T) {
	// §5.1 / Fig. 9: a cold cache with 64 KiB clusters fetches far more
	// than the guest asked for.
	base, _ := newPatternedBase(t, 4*testMB, 22)
	counted := backend.NewCountingFile(base, nil)
	cache := newCache(t, 4*testMB, 4*testMB, 16, RawSource{R: counted, N: 4 * testMB})

	buf := make([]byte, 512)
	if err := backend.ReadFull(cache, buf, 0); err != nil {
		t.Fatal(err)
	}
	if got := counted.Counters().ReadBytes.Load(); got != 64<<10 {
		t.Fatalf("amplified traffic = %d, want %d", got, 64<<10)
	}
}

// countedSource counts the bytes a backing source serves.
type countedSource struct {
	BlockSource
	bytes atomic.Int64
}

func (c *countedSource) ReadAt(p []byte, off int64) (int, error) {
	c.bytes.Add(int64(len(p)))
	return c.BlockSource.ReadAt(p, off)
}

// TestScatteredColdFootprint replays a boot's sparse first touches — 256
// scattered 4 KiB reads over 32 MiB — against a cold cache. At 512 B clusters
// the base serves exactly the reads' 512 B-aligned cover, each sector once;
// at 64 KiB clusters every miss fetches whole clusters, at least 4× that
// cover: the Fig. 9 amplification that §5.1's 512 B cache cluster removes.
func TestScatteredColdFootprint(t *testing.T) {
	const (
		size    = int64(32 << 20)
		reads   = 256
		readLen = int64(4 << 10)
	)
	offs := make([]int64, reads)
	st := int64(0x5eed)
	for i := range offs {
		st = st*6364136223846793005 + 1442695040888963407 // an LCG: fixed offsets
		off := (st >> 17) % (size - readLen)
		if off < 0 {
			off = -off
		}
		offs[i] = off
	}
	sectors := make(map[int64]bool)
	for _, off := range offs {
		for s := off >> 9; s <= (off+readLen-1)>>9; s++ {
			sectors[s] = true
		}
	}
	cover := int64(len(sectors)) << 9

	for _, cb := range []int{9, 16} {
		src := &countedSource{BlockSource: patSource{n: size}}
		cache := newCache(t, size, 4*size, cb, src)
		got, want := make([]byte, readLen), make([]byte, readLen)
		for _, off := range offs {
			if err := backend.ReadFull(cache, got, off); err != nil {
				t.Fatal(err)
			}
			patSource{n: size}.ReadAt(want, off) //nolint:errcheck // cannot fail
			if !bytes.Equal(got, want) {
				t.Fatalf("%d B clusters: read at %d does not hold base content", 1<<cb, off)
			}
		}
		if err := cache.Close(); err != nil {
			t.Fatal(err)
		}
		pulled := src.bytes.Load()
		t.Logf("%d B clusters: %d bytes from the base, cover %d (%.2f×)", 1<<cb, pulled, cover, float64(pulled)/float64(cover))
		switch {
		case cb == 9 && pulled != cover:
			t.Errorf("512 B clusters pulled %d bytes, want the reads' cover of %d", pulled, cover)
		case cb == 16 && pulled < 4*cover:
			t.Errorf("64 KiB clusters pulled %d bytes, want at least 4× the cover of %d", pulled, cover)
		}
	}
}

// TestCacheTailClusterFill: a virtual size that ends mid-cluster. A cold read
// of the short last cluster fetches only the bytes inside the virtual size,
// lands the cluster, passes Check, and is served again after a reopen with no
// backing at all.
func TestCacheTailClusterFill(t *testing.T) {
	const cs = 64 << 10
	size := int64(3*cs + 10000)
	base, pat := newPatternedBase(t, size, 77)
	counted := backend.NewCountingFile(base, nil)
	mem := backend.NewMemFile()
	img, err := Create(backend.NopClose(mem), CreateOpts{
		Size: size, ClusterBits: 16, BackingFile: "base", CacheQuota: 8 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	img.SetBacking(RawSource{R: counted, N: size})
	tail := make([]byte, 10000)
	if err := backend.ReadFull(img, tail, 3*cs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tail, pat[3*cs:]) {
		t.Fatal("tail read mismatch")
	}
	if got := counted.Counters().ReadBytes.Load(); got != 10000 {
		t.Fatalf("tail fill fetched %d bytes, want the 10000 inside the virtual size", got)
	}
	res, err := img.Check()
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() || res.DataClusters != 1 {
		t.Fatalf("check after the tail fill: %s", res)
	}
	if err := img.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(backend.NopClose(mem), OpenOpts{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close() //nolint:errcheck // read-only
	got := make([]byte, 10100)
	n, err := re.ReadAt(got, 3*cs)
	if n != 10000 || err != io.EOF {
		t.Fatalf("read across the end: n=%d err=%v, want 10000, EOF", n, err)
	}
	if !bytes.Equal(got[:n], pat[3*cs:]) {
		t.Fatal("tail cluster lost across reopen")
	}
}

func TestCacheQuotaSpaceError(t *testing.T) {
	base, pat := newPatternedBase(t, testMB, 23)
	counted := backend.NewCountingFile(base, nil)
	// Quota: initial metadata plus a modest fill budget.
	probe := newCache(t, testMB, testMB, 9, RawSource{R: base, N: testMB})
	initial := probe.UsedBytes()
	quota := initial + 40*512 // room for ~some fills incl. metadata
	cache := newCache(t, testMB, quota, 9, RawSource{R: counted, N: testMB})

	// Read far more than the quota admits.
	buf := make([]byte, 512)
	for i := int64(0); i < 200; i++ {
		if err := backend.ReadFull(cache, buf, i*512); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if !bytes.Equal(buf, pat[i*512:(i+1)*512]) {
			t.Fatalf("data mismatch at cluster %d (cacheFull=%v)", i, cache.CacheFull())
		}
	}
	if !cache.CacheFull() {
		t.Fatal("quota never tripped")
	}
	if cache.Stats().CacheFullEvents.Load() == 0 {
		t.Fatal("no space-error recorded")
	}
	if used := cache.UsedBytes(); used > quota {
		t.Fatalf("cache overshot quota: used=%d quota=%d", used, quota)
	}
	// Reads continue to be served (pass-through) after the space error.
	if err := backend.ReadFull(cache, buf, 150*512); err != nil {
		t.Fatal(err)
	}
	// And fills genuinely stopped: traffic keeps flowing to base.
	before := counted.Counters().ReadBytes.Load()
	if err := backend.ReadFull(cache, buf, 199*512); err != nil {
		t.Fatal(err)
	}
	if counted.Counters().ReadBytes.Load() == before {
		t.Fatal("full cache did not pass read through to base")
	}
	res, err := cache.Check()
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("check after space error: %s", res)
	}
}

func TestCacheImmutableToGuestWrites(t *testing.T) {
	base, _ := newPatternedBase(t, testMB, 24)
	cache := newCache(t, testMB, testMB, 9, RawSource{R: base, N: testMB})
	if _, err := cache.WriteAt([]byte("nope"), 0); !errors.Is(err, ErrCacheImmutable) {
		t.Fatalf("guest write to cache: %v", err)
	}
}

func TestCacheUsedPersistedOnClose(t *testing.T) {
	base, _ := newPatternedBase(t, testMB, 25)
	f := backend.NewMemFile()
	img, err := Create(f, CreateOpts{
		Size: testMB, ClusterBits: 9, BackingFile: "base", CacheQuota: testMB,
	})
	if err != nil {
		t.Fatal(err)
	}
	img.SetBacking(RawSource{R: base, N: testMB})
	buf := make([]byte, 10000)
	if err := backend.ReadFull(img, buf, 0); err != nil {
		t.Fatal(err)
	}
	wantUsed := img.UsedBytes()
	if err := img.Sync(); err != nil { // persists the used field
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
	h := re.Header()
	if !h.HasCacheExt || !h.IsCache() {
		t.Fatal("cache extension lost across reopen")
	}
	if int64(h.CacheUsed) != wantUsed {
		t.Fatalf("persisted used = %d, want %d", h.CacheUsed, wantUsed)
	}
	if int64(h.CacheQuota) != testMB {
		t.Fatalf("persisted quota = %d", h.CacheQuota)
	}
	// Warm data must be served without any backing installed at all.
	got := make([]byte, 10000)
	if err := backend.ReadFull(re, got, 0); err != nil {
		t.Fatalf("warm read without backing: %v", err)
	}
	if !bytes.Equal(got, buf) {
		t.Fatal("warm cache data mismatch after reopen")
	}
}

func TestCacheFullStateResumes(t *testing.T) {
	base, _ := newPatternedBase(t, testMB, 26)
	probe := newCache(t, testMB, testMB, 9, RawSource{R: base, N: testMB})
	initial := probe.UsedBytes()

	f := backend.NewMemFile()
	quota := initial + 20*512
	img, err := Create(f, CreateOpts{
		Size: testMB, ClusterBits: 9, BackingFile: "base", CacheQuota: quota,
	})
	if err != nil {
		t.Fatal(err)
	}
	img.SetBacking(RawSource{R: base, N: testMB})
	buf := make([]byte, 512)
	for i := int64(0); i < 100; i++ {
		if err := backend.ReadFull(img, buf, i*512); err != nil {
			t.Fatal(err)
		}
	}
	if !img.CacheFull() {
		t.Fatal("setup: quota not tripped")
	}
	snap := snapshot(t, f)
	img.Close() //nolint:errcheck

	re, err := Open(snap, OpenOpts{})
	if err != nil {
		t.Fatal(err)
	}
	re.SetBacking(RawSource{R: base, N: testMB})
	if !re.CacheFull() {
		t.Fatal("reopened cache at quota must resume in stopped state")
	}
	fillsBefore := re.Stats().CacheFillOps.Load()
	if err := backend.ReadFull(re, buf, 500*512); err != nil {
		t.Fatal(err)
	}
	if re.Stats().CacheFillOps.Load() != fillsBefore {
		t.Fatal("reopened full cache performed a fill")
	}
}

func TestFullChainBaseCacheCow(t *testing.T) {
	// The paper's deployment chain (Fig. 4): Base <- Cache <- CoW.
	const size = testMB
	baseFile, pat := newPatternedBase(t, size, 27)
	counted := backend.NewCountingFile(baseFile, nil)

	cache := newCache(t, size, size, 9, RawSource{R: counted, N: size})

	cowFile := backend.NewMemFile()
	cow, err := Create(cowFile, CreateOpts{Size: size, ClusterBits: 16, BackingFile: "cache"})
	if err != nil {
		t.Fatal(err)
	}
	cow.SetBacking(cache)

	// Guest reads recurse CoW -> cache -> base, warming the cache.
	buf := make([]byte, 2048)
	if err := backend.ReadFull(cow, buf, 100*512); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, pat[100*512:100*512+2048]) {
		t.Fatal("chain read mismatch")
	}
	if cache.Stats().CacheFillOps.Load() == 0 {
		t.Fatal("cache did not warm through the chain")
	}

	// Guest writes land in the CoW image only. (The CoW partial-cluster
	// fill reads through the cache and may warm it further — with base
	// data — but guest bytes must never appear in the cache.)
	if err := backend.WriteFull(cow, []byte("guest-write"), 100*512); err != nil {
		t.Fatal(err)
	}
	fromCache := make([]byte, 11)
	if err := backend.ReadFull(cache, fromCache, 100*512); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fromCache, pat[100*512:100*512+11]) {
		t.Fatal("guest bytes leaked into the cache image")
	}
	// Read-your-write through the chain.
	got := make([]byte, 11)
	if err := backend.ReadFull(cow, got, 100*512); err != nil {
		t.Fatal(err)
	}
	if string(got) != "guest-write" {
		t.Fatalf("got %q", got)
	}

	// Re-reading previously warmed data must not touch the base.
	counted.Counters().Reset()
	if err := backend.ReadFull(cow, buf[:512], 102*512); err != nil {
		t.Fatal(err)
	}
	if counted.Counters().ReadBytes.Load() != 0 {
		t.Fatal("warm chain read reached the base")
	}
}

func TestWarmCacheEliminatesBaseTraffic(t *testing.T) {
	// Boot twice from the same working set: the second run over a warm
	// cache must produce zero base traffic — the core claim of the paper.
	const size = 2 * testMB
	baseFile, _ := newPatternedBase(t, size, 28)
	counted := backend.NewCountingFile(baseFile, nil)
	cache := newCache(t, size, size, 9, RawSource{R: counted, N: size})

	rnd := rand.New(rand.NewSource(1))
	var offs []int64
	for i := 0; i < 200; i++ {
		offs = append(offs, rnd.Int63n(size-8192))
	}
	buf := make([]byte, 4096)
	for _, off := range offs {
		if err := backend.ReadFull(cache, buf, off); err != nil {
			t.Fatal(err)
		}
	}
	cold := counted.Counters().ReadBytes.Load()
	if cold == 0 {
		t.Fatal("no cold traffic?")
	}
	counted.Counters().Reset()
	for _, off := range offs {
		if err := backend.ReadFull(cache, buf, off); err != nil {
			t.Fatal(err)
		}
	}
	if warm := counted.Counters().ReadBytes.Load(); warm != 0 {
		t.Fatalf("warm pass traffic = %d, want 0 (cold was %d)", warm, cold)
	}
}

func TestCacheReadOnlyOpenServesWarmMisses(t *testing.T) {
	// A warm cache opened read-only (e.g. shared from storage memory)
	// serves hits locally and passes misses through without filling.
	const size = testMB
	baseFile, pat := newPatternedBase(t, size, 29)
	f := backend.NewMemFile()
	img, err := Create(f, CreateOpts{Size: size, ClusterBits: 9, BackingFile: "b", CacheQuota: size})
	if err != nil {
		t.Fatal(err)
	}
	img.SetBacking(RawSource{R: baseFile, N: size})
	warmBuf := make([]byte, 8192)
	if err := backend.ReadFull(img, warmBuf, 0); err != nil {
		t.Fatal(err)
	}
	snap := snapshot(t, f)
	img.Close() //nolint:errcheck

	counted := backend.NewCountingFile(baseFile, nil)
	ro, err := Open(snap, OpenOpts{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	ro.SetBacking(RawSource{R: counted, N: size})

	// Warm hit: no base traffic.
	got := make([]byte, 8192)
	if err := backend.ReadFull(ro, got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pat[:8192]) || counted.Counters().ReadBytes.Load() != 0 {
		t.Fatal("warm RO hit wrong")
	}
	// Miss: pass-through at request granularity, no fill attempted.
	if err := backend.ReadFull(ro, got[:100], 500000); err != nil {
		t.Fatal(err)
	}
	if counted.Counters().ReadBytes.Load() != 100 {
		t.Fatalf("RO miss traffic = %d, want 100", counted.Counters().ReadBytes.Load())
	}
	if ro.Stats().CacheFillOps.Load() != 0 {
		t.Fatal("read-only cache performed a fill")
	}
}

func TestCacheWithLargerQuotaStoresWorkingSet(t *testing.T) {
	// With quota >= working set + metadata, everything fits and the
	// cache never trips (Fig. 10's "warm cache size" measurement).
	const size = testMB
	baseFile, _ := newPatternedBase(t, size, 30)
	cache := newCache(t, size, 2*size, 9, RawSource{R: baseFile, N: size})
	buf := make([]byte, 300<<10)
	if err := backend.ReadFull(cache, buf, 0); err != nil {
		t.Fatal(err)
	}
	if cache.CacheFull() {
		t.Fatal("ample quota tripped")
	}
	in, err := cache.Info()
	if err != nil {
		t.Fatal(err)
	}
	// Used must exceed the working set (metadata overhead) but only
	// modestly at 512 B clusters (< 12 %).
	ws := int64(300 << 10)
	if in.CacheUsed < ws {
		t.Fatalf("used %d < working set %d", in.CacheUsed, ws)
	}
	if in.CacheUsed > ws+ws/8+64<<10 {
		t.Fatalf("metadata overhead implausible: used=%d ws=%d", in.CacheUsed, ws)
	}
}

func TestQuotaNeverOvershoots(t *testing.T) {
	// Property: for a range of small quotas, the cache never exceeds its
	// quota, regardless of access pattern.
	const size = testMB
	baseFile, _ := newPatternedBase(t, size, 31)
	probe := newCache(t, size, size, 9, RawSource{R: baseFile, N: size})
	initial := probe.UsedBytes()

	rnd := rand.New(rand.NewSource(2))
	for trial := 0; trial < 8; trial++ {
		quota := initial + rnd.Int63n(64<<10)
		cache := newCache(t, size, quota, 9, RawSource{R: baseFile, N: size})
		buf := make([]byte, 2048)
		for i := 0; i < 300; i++ {
			off := rnd.Int63n(size - int64(len(buf)))
			if err := backend.ReadFull(cache, buf, off); err != nil {
				t.Fatal(err)
			}
		}
		if used := cache.UsedBytes(); used > quota {
			t.Fatalf("trial %d: used %d > quota %d", trial, used, quota)
		}
		res, err := cache.Check()
		if err != nil {
			t.Fatal(err)
		}
		if !res.OK() {
			t.Fatalf("trial %d: %s", trial, res)
		}
	}
}

func TestRunCoalescingSingleBackingFetch(t *testing.T) {
	// A 24 KiB guest read over a cold 512 B-cluster cache must reach the
	// base as ONE request-granularity fetch (48 clusters), not 48 RPCs.
	base, pat := newPatternedBase(t, testMB, 40)
	counted := backend.NewCountingFile(base, nil)
	cache := newCache(t, testMB, testMB, 9, RawSource{R: counted, N: testMB})

	buf := make([]byte, 24<<10)
	if err := backend.ReadFull(cache, buf, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, pat[:24<<10]) {
		t.Fatal("data mismatch")
	}
	c := counted.Counters()
	if c.ReadOps.Load() != 1 {
		t.Fatalf("backing RPCs = %d, want 1 (coalesced run)", c.ReadOps.Load())
	}
	if c.ReadBytes.Load() != 24<<10 {
		t.Fatalf("traffic = %d, want %d", c.ReadBytes.Load(), 24<<10)
	}
	if cache.Stats().CacheFillOps.Load() != 48 {
		t.Fatalf("fills = %d, want 48 clusters", cache.Stats().CacheFillOps.Load())
	}

	// Re-read with a hole in the middle: allocated clusters split runs.
	counted.Counters().Reset()
	if err := backend.ReadFull(cache, buf[:1024], 30<<10); err != nil { // warm 2 clusters at 30K
		t.Fatal(err)
	}
	counted.Counters().Reset()
	// Read 28K..34K: cold run [28K,30K), warm [30K,31K), cold [31K,34K).
	if err := backend.ReadFull(cache, buf[:6<<10], 28<<10); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf[:6<<10], pat[28<<10:34<<10]) {
		t.Fatal("mixed warm/cold read mismatch")
	}
	if got := counted.Counters().ReadOps.Load(); got != 2 {
		t.Fatalf("mixed read backing RPCs = %d, want 2", got)
	}
	if got := counted.Counters().ReadBytes.Load(); got != 5<<10 {
		t.Fatalf("mixed read traffic = %d, want %d", got, 5<<10)
	}
}

func TestCoWPassthroughCoalesced(t *testing.T) {
	// Plain CoW (no cache): a read spanning several unallocated clusters
	// issues one exact-size backing read.
	base, _ := newPatternedBase(t, testMB, 41)
	counted := backend.NewCountingFile(base, nil)
	f := backend.NewMemFile()
	img, err := Create(f, CreateOpts{Size: testMB, ClusterBits: 12, BackingFile: "b"})
	if err != nil {
		t.Fatal(err)
	}
	img.SetBacking(RawSource{R: counted, N: testMB})
	buf := make([]byte, 20000)
	if err := backend.ReadFull(img, buf, 100); err != nil {
		t.Fatal(err)
	}
	c := counted.Counters()
	if c.ReadOps.Load() != 1 || c.ReadBytes.Load() != 20000 {
		t.Fatalf("passthrough: ops=%d bytes=%d, want 1 op of 20000",
			c.ReadOps.Load(), c.ReadBytes.Load())
	}
}

func TestPartialRunFillAtQuotaBoundary(t *testing.T) {
	// A run that only partly fits fills its prefix, serves the tail by
	// pass-through, and trips the space error — without overshooting.
	base, pat := newPatternedBase(t, testMB, 42)
	probe := newCache(t, testMB, testMB, 9, RawSource{R: base, N: testMB})
	initial := probe.UsedBytes()
	quota := initial + 10*512 // room for well under one 48-cluster run
	cache := newCache(t, testMB, quota, 9, RawSource{R: base, N: testMB})

	buf := make([]byte, 24<<10)
	if err := backend.ReadFull(cache, buf, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, pat[:24<<10]) {
		t.Fatal("data mismatch at quota boundary")
	}
	if !cache.CacheFull() {
		t.Fatal("space error not tripped")
	}
	if cache.UsedBytes() > quota {
		t.Fatalf("overshoot: used=%d quota=%d", cache.UsedBytes(), quota)
	}
	if cache.Stats().CacheFillOps.Load() == 0 {
		t.Fatal("prefix not filled")
	}
	res, err := cache.Check()
	if err != nil || !res.OK() {
		t.Fatalf("check: %v %s", err, res)
	}
}
