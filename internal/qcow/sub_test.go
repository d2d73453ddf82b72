package qcow

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"vmicache/internal/backend"
)

// newSubCache builds a 64 KiB-cluster cache image with the sub-cluster
// extension over the given backing source.
func newSubCache(t *testing.T, f backend.File, size, quota int64, backing BlockSource) *Image {
	t.Helper()
	img, err := Create(f, CreateOpts{
		Size:        size,
		ClusterBits: 16,
		BackingFile: "base",
		CacheQuota:  quota,
		Subclusters: true,
	})
	if err != nil {
		t.Fatalf("Create subcluster cache: %v", err)
	}
	img.SetBacking(backing)
	return img
}

func TestSubclusterCreateOpenRoundtrip(t *testing.T) {
	base, _ := newPatternedBase(t, testMB, 71)
	mem := backend.NewMemFile()
	img := newSubCache(t, backend.NopClose(mem), testMB, 8*testMB, RawSource{R: base, N: testMB})
	hdr := img.Header()
	if !hdr.HasSubExt || hdr.SubBits != SubclusterBits || hdr.SubTableOffset == 0 {
		t.Fatalf("header extension not recorded: %+v", hdr)
	}
	if hdr.IncompatFeatures&IncompatSubclusters == 0 {
		t.Fatal("incompat feature bit not set")
	}
	if err := img.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(mem, OpenOpts{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	if re.sub == nil {
		t.Fatal("sub state not restored on open")
	}
	if got := re.sub.subSize; got != 4096 {
		t.Fatalf("sub size = %d", got)
	}
	info, err := re.Info()
	if err != nil {
		t.Fatal(err)
	}
	if !info.Subclusters || info.SubclusterSize != 4096 {
		t.Fatalf("info: %+v", info)
	}

	// Images without the extension keep whole-cluster semantics.
	plain := newCache(t, testMB, 8*testMB, 16, RawSource{R: base, N: testMB})
	if plain.sub != nil {
		t.Fatal("plain cache unexpectedly has sub state")
	}
	if _, ok := plain.Subclusters(); ok {
		t.Fatal("Subclusters() reported state on a plain image")
	}
}

func TestSubclusterCreateRejects(t *testing.T) {
	if _, err := Create(backend.NewMemFile(), CreateOpts{
		Size: testMB, ClusterBits: 16, Subclusters: true,
	}); !errors.Is(err, ErrSubclusterNotCache) {
		t.Fatalf("non-cache create: %v", err)
	}
	if _, err := Create(backend.NewMemFile(), CreateOpts{
		Size: testMB, ClusterBits: 12, BackingFile: "b", CacheQuota: testMB, Subclusters: true,
	}); !errors.Is(err, ErrSubclusterBits) {
		t.Fatalf("small-cluster create: %v", err)
	}
}

func TestUnknownIncompatFeatureRejected(t *testing.T) {
	mem := backend.NewMemFile()
	img, err := Create(backend.NopClose(mem), CreateOpts{Size: testMB, ClusterBits: 16})
	if err != nil {
		t.Fatal(err)
	}
	if err := img.Close(); err != nil {
		t.Fatal(err)
	}
	// Set an incompat bit this implementation does not understand.
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(1)<<17)
	if err := backend.WriteFull(mem, b[:], 72); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(mem, OpenOpts{}); !errors.Is(err, ErrBadHeader) {
		t.Fatalf("unknown incompat bit accepted: %v", err)
	}
}

func TestSubclusterPartialFillTraffic(t *testing.T) {
	size := int64(4 * testMB)
	base, pat := newPatternedBase(t, size, 72)
	counted := backend.NewCountingFile(base, nil)
	img := newSubCache(t, backend.NewMemFile(), size, 8*size, RawSource{R: counted, N: size})
	defer img.Close()

	// A 4 KiB miss fetches exactly one sub-cluster, not the 64 KiB cluster.
	buf := make([]byte, 4096)
	if err := backend.ReadFull(img, buf, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, pat[:4096]) {
		t.Fatal("cold read data mismatch")
	}
	if got := counted.Counters().ReadBytes.Load(); got != 4096 {
		t.Fatalf("cold traffic = %d, want 4096 (one sub-cluster)", got)
	}
	if got := img.Stats().SubclusterFills.Load(); got != 1 {
		t.Fatalf("subcluster fills = %d", got)
	}

	// An unaligned small read inside the same cluster fetches only its
	// (missing) sub-cluster.
	small := make([]byte, 100)
	if err := backend.ReadFull(img, small, 5000); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(small, pat[5000:5100]) {
		t.Fatal("second read data mismatch")
	}
	if got := counted.Counters().ReadBytes.Load(); got != 8192 {
		t.Fatalf("traffic after second read = %d, want 8192", got)
	}

	// Warm re-read of the valid region: zero base traffic, served locally.
	counted.Counters().Reset()
	if err := backend.ReadFull(img, buf, 0); err != nil {
		t.Fatal(err)
	}
	if got := counted.Counters().ReadBytes.Load(); got != 0 {
		t.Fatalf("warm read hit base: %d bytes", got)
	}
	if img.Stats().SubclusterPartialHits.Load() == 0 {
		t.Fatal("no partial hit recorded")
	}

	// A straddling read across two cold clusters fetches only the
	// sub-clusters it touches from each.
	counted.Counters().Reset()
	straddle := make([]byte, 8192)
	off := int64(2*64<<10 - 4096)
	if err := backend.ReadFull(img, straddle, off); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(straddle, pat[off:off+8192]) {
		t.Fatal("straddling read mismatch")
	}
	if got := counted.Counters().ReadBytes.Load(); got != 8192 {
		t.Fatalf("straddling traffic = %d, want 8192", got)
	}

	res, err := img.Check()
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("check failed: %s", res)
	}
	if res.PartialClusters == 0 {
		t.Fatal("no partial clusters recorded by Check")
	}
}

func TestSubclusterPersistenceAcrossReopen(t *testing.T) {
	size := int64(testMB)
	base, pat := newPatternedBase(t, size, 73)
	mem := backend.NewMemFile()
	img := newSubCache(t, backend.NopClose(mem), size, 8*size, RawSource{R: base, N: size})
	buf := make([]byte, 4096)
	if err := backend.ReadFull(img, buf, 64<<10); err != nil { // cluster 1, sub 0
		t.Fatal(err)
	}
	if err := img.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen without any backing: the valid sub-cluster must be served
	// from the cache, proving the bitmap survived the close.
	re, err := Open(backend.NopClose(mem), OpenOpts{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got := make([]byte, 4096)
	if err := backend.ReadFull(re, got, 64<<10); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pat[64<<10:64<<10+4096]) {
		t.Fatal("persisted sub-cluster data mismatch")
	}
	st, ok := re.Subclusters()
	if !ok || st.PartialClusters != 1 {
		t.Fatalf("subcluster state after reopen: %+v ok=%v", st, ok)
	}
	// The invalid remainder of the cluster reads as zeros (no backing).
	if err := backend.ReadFull(re, got, 64<<10+8192); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, 4096)) {
		t.Fatal("missing sub-cluster did not read as zeros without backing")
	}
}

func TestSubclusterReadOnlyPassThrough(t *testing.T) {
	size := int64(testMB)
	base, pat := newPatternedBase(t, size, 74)
	mem := backend.NewMemFile()
	img := newSubCache(t, backend.NopClose(mem), size, 8*size, RawSource{R: base, N: size})
	buf := make([]byte, 4096)
	if err := backend.ReadFull(img, buf, 0); err != nil {
		t.Fatal(err)
	}
	if err := img.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(backend.NopClose(mem), OpenOpts{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	re.SetBacking(RawSource{R: base, N: size})
	// A read spanning valid and missing sub-clusters of the allocated
	// cluster: valid half from the cache, missing half passed through.
	span := make([]byte, 16384)
	if err := backend.ReadFull(re, span, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(span, pat[:16384]) {
		t.Fatal("read-only mixed read mismatch")
	}
	if re.Stats().BackingBytes.Load() != 16384-4096 {
		t.Fatalf("backing bytes = %d, want %d", re.Stats().BackingBytes.Load(), 16384-4096)
	}
	// Read-only attaches must not fill.
	if st, _ := re.Subclusters(); st.FullClusters != 0 || st.PartialClusters != 1 {
		t.Fatalf("read-only attach filled the cache: %+v", st)
	}
}

func TestSubclusterCompleteAll(t *testing.T) {
	size := int64(testMB)
	base, pat := newPatternedBase(t, size, 75)
	counted := backend.NewCountingFile(base, nil)
	img := newSubCache(t, backend.NewMemFile(), size, 8*size, RawSource{R: counted, N: size})
	defer img.Close()

	buf := make([]byte, 4096)
	for _, off := range []int64{0, 64 << 10, 5 * 64 << 10} {
		if err := backend.ReadFull(img, buf, off); err != nil {
			t.Fatal(err)
		}
	}
	if st, _ := img.Subclusters(); st.PartialClusters != 3 {
		t.Fatalf("partial clusters = %d", st.PartialClusters)
	}
	if err := img.CompleteAll(); err != nil {
		t.Fatal(err)
	}
	st, _ := img.Subclusters()
	if st.PartialClusters != 0 || st.FullClusters != 3 {
		t.Fatalf("after CompleteAll: %+v", st)
	}
	if got := img.Stats().SubclusterCompletions.Load(); got != 3*15 {
		t.Fatalf("completions = %d, want %d", got, 3*15)
	}
	// Completed clusters serve whole-cluster warm reads.
	counted.Counters().Reset()
	whole := make([]byte, 64<<10)
	if err := backend.ReadFull(img, whole, 5*64<<10); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(whole, pat[5*64<<10:6*64<<10]) {
		t.Fatal("completed cluster data mismatch")
	}
	if counted.Counters().ReadBytes.Load() != 0 {
		t.Fatal("completed cluster still hit the base")
	}
	res, err := img.Check()
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() || res.PartialClusters != 0 {
		t.Fatalf("check after CompleteAll: %s", res)
	}
}

func TestSubclusterTailCluster(t *testing.T) {
	// A virtual size that ends mid-cluster and mid-sub-cluster: 3 full
	// 64 KiB clusters plus 10000 bytes.
	size := int64(3*64<<10 + 10000)
	base, pat := newPatternedBase(t, size, 77)
	img := newSubCache(t, backend.NewMemFile(), size, 8<<20, RawSource{R: base, N: size})
	defer img.Close()

	tail := make([]byte, 10000)
	if err := backend.ReadFull(img, tail, 3*64<<10); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tail, pat[3*64<<10:]) {
		t.Fatal("tail read mismatch")
	}
	// The tail cluster covers ceil(10000/4096) = 3 sub-clusters and the
	// request covered them all: the cluster must be full, not partial.
	st, _ := img.Subclusters()
	if st.FullClusters != 1 || st.PartialClusters != 0 {
		t.Fatalf("tail cluster state: %+v", st)
	}
	if err := img.CompleteAll(); err != nil {
		t.Fatal(err)
	}
	res, err := img.Check()
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("tail check: %s", res)
	}
}

func TestSubclusterTornBitmapDetected(t *testing.T) {
	size := int64(testMB)
	base, _ := newPatternedBase(t, size, 78)
	mem := backend.NewMemFile()
	img := newSubCache(t, backend.NopClose(mem), size, 8*size, RawSource{R: base, N: size})
	buf := make([]byte, 4096)
	if err := backend.ReadFull(img, buf, 0); err != nil {
		t.Fatal(err)
	}
	tableOff := int64(img.Header().SubTableOffset)
	if err := img.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear case 1: bits set for a cluster that was never allocated — the
	// state a crash between the bitmap persist and the L2 bind leaves.
	var word [8]byte
	binary.BigEndian.PutUint64(word[:], 0x3)
	if err := backend.WriteFull(mem, word[:], tableOff+7*8); err != nil {
		t.Fatal(err)
	}
	re, err := Open(backend.NopClose(mem), OpenOpts{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := re.Check()
	if err != nil {
		t.Fatal(err)
	}
	if res.OK() {
		t.Fatal("torn bitmap (bits on unallocated cluster) not detected")
	}
	re.Close()
	if _, err := OpenVerified(backend.NopClose(mem), OpenOpts{ReadOnly: true}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("OpenVerified accepted torn image: %v", err)
	}

	// Tear case 2: an allocated cluster whose word was wiped.
	binary.BigEndian.PutUint64(word[:], 0)
	if err := backend.WriteFull(mem, word[:], tableOff+7*8); err != nil {
		t.Fatal(err)
	}
	if err := backend.WriteFull(mem, word[:], tableOff+0*8); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenVerified(backend.NopClose(mem), OpenOpts{ReadOnly: true}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("OpenVerified accepted wiped word: %v", err)
	}
}

func TestSubclusterFillFaultSurfacesCleanly(t *testing.T) {
	size := int64(testMB)
	base, _ := newPatternedBase(t, size, 79)
	inner := backend.NewMemFile()
	faulty := backend.NewFaultyFile(inner)
	img, err := Create(faulty, CreateOpts{
		Size: size, ClusterBits: 16, BackingFile: "b", CacheQuota: 8 * size, Subclusters: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	img.SetBacking(RawSource{R: base, N: size})
	buf := make([]byte, 4096)
	if err := backend.ReadFull(img, buf, 0); err != nil {
		t.Fatal(err)
	}
	faulty.FailWriteAfter(0)
	if _, err := img.ReadAt(buf, 5*64<<10); !errors.Is(err, backend.ErrInjected) {
		t.Fatalf("fill fault not surfaced: %v", err)
	}
	faulty.FailWriteAfter(-1)
	// The image keeps working and its durable metadata stays consistent.
	if err := backend.ReadFull(img, buf, 0); err != nil {
		t.Fatal(err)
	}
	if err := backend.ReadFull(img, buf, 5*64<<10); err != nil {
		t.Fatalf("cache unusable after fault: %v", err)
	}
	res, err := img.Check()
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("metadata corrupt after fill fault: %s", res)
	}
}

// TestSubclusterRaceMissCompletionClose hammers the same clusters with
// concurrent guest misses while CompleteAll passes top them up, then races
// Image.Close against both. Run with -race.
func TestSubclusterRaceMissCompletionClose(t *testing.T) {
	size := int64(2 * testMB)
	base, pat := newPatternedBase(t, size, 80)
	img := newSubCache(t, backend.NewMemFile(), size, 8*size, RawSource{R: base, N: size})

	// completeLoop runs CompleteAll passes until stop closes or the image
	// does; ErrClosed is an accepted outcome of a pass racing Close.
	completeLoop := func(stop <-chan struct{}) <-chan error {
		errc := make(chan error, 1)
		go func() {
			for {
				select {
				case <-stop:
					errc <- nil
					return
				default:
				}
				if err := img.CompleteAll(); err != nil {
					if errors.Is(err, ErrClosed) {
						err = nil
					}
					errc <- err
					return
				}
			}
		}()
		return errc
	}

	const readers = 8
	var wg sync.WaitGroup
	stop := make(chan struct{})
	completed := completeLoop(stop)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			buf := make([]byte, 4096)
			for {
				select {
				case <-stop:
					return
				default:
				}
				off := rng.Int63n(size - int64(len(buf)))
				n, err := img.ReadAt(buf, off)
				if err != nil {
					if errors.Is(err, ErrClosed) {
						return
					}
					t.Errorf("ReadAt(%d): %v", off, err)
					return
				}
				if !bytes.Equal(buf[:n], pat[off:off+int64(n)]) {
					t.Errorf("data mismatch at %d", off)
					return
				}
			}
		}(int64(r) + 100)
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
	if err := <-completed; err != nil {
		t.Fatalf("CompleteAll racing misses: %v", err)
	}
	// A last pass with no guest traffic converges every touched cluster.
	if err := img.CompleteAll(); err != nil {
		t.Fatal(err)
	}
	if st, _ := img.Subclusters(); st.PartialClusters != 0 {
		t.Fatalf("partial clusters after CompleteAll: %+v", st)
	}

	// Re-open the race with Close: readers and a completion pass still in
	// flight when the image shuts down must either finish or observe
	// ErrClosed.
	done := make(chan struct{})
	closed := make(chan struct{})
	completed = completeLoop(closed)
	for r := 0; r < readers; r++ {
		go func(seed int64) {
			defer func() { done <- struct{}{} }()
			rng := rand.New(rand.NewSource(seed))
			buf := make([]byte, 4096)
			for i := 0; i < 200; i++ {
				off := rng.Int63n(size - int64(len(buf)))
				if _, err := img.ReadAt(buf, off); err != nil {
					if errors.Is(err, ErrClosed) {
						return
					}
					t.Errorf("ReadAt during close: %v", err)
					return
				}
			}
		}(int64(r) + 200)
	}
	time.Sleep(5 * time.Millisecond)
	if err := img.Close(); err != nil {
		t.Fatal(err)
	}
	close(closed)
	for r := 0; r < readers; r++ {
		<-done
	}
	if err := <-completed; err != nil {
		t.Fatalf("CompleteAll racing Close: %v", err)
	}
	if err := img.CompleteAll(); !errors.Is(err, ErrClosed) && err != nil {
		t.Fatalf("CompleteAll after close: %v", err)
	}
}
