package qcow_test

// Data-path microbenchmarks for the CI regression gate. They mirror the
// root-package chain benchmarks but register every image on a live metrics
// registry first, pinning the zero-alloc warm-read guarantee WITH
// instrumentation enabled — the property the observability layer must not
// break.

import (
	"fmt"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vmicache/internal/backend"
	"vmicache/internal/metrics"
	"vmicache/internal/qcow"
)

// benchSource is a cheap deterministic backing pattern.
type benchSource struct{ n int64 }

func (s benchSource) ReadAt(p []byte, off int64) (int, error) {
	for i := range p {
		p[i] = byte((off + int64(i)) * 1099511628211)
	}
	return len(p), nil
}

func (s benchSource) Size() int64 { return s.n }

// newChain builds base <- cache <- CoW in memory and registers both images on
// a fresh registry, so the timed path runs with instruments attached: the
// warm-read zero-alloc guarantee is pinned with instrumentation on the hot
// path.
func newChain(b *testing.B) *qcow.Image {
	cow, _ := newChainSource(b, benchSource{n: 64 << 20})
	return cow
}

func newChainSource(b *testing.B, src qcow.BlockSource) (*qcow.Image, *qcow.Image) {
	b.Helper()
	size := src.Size()
	cache, err := qcow.Create(backend.NewMemFile(), qcow.CreateOpts{
		Size: size, ClusterBits: 9, BackingFile: "b", CacheQuota: size,
	})
	if err != nil {
		b.Fatal(err)
	}
	cache.SetBacking(src)
	cow, err := qcow.Create(backend.NewMemFile(), qcow.CreateOpts{
		Size: size, ClusterBits: 16, BackingFile: "c",
	})
	if err != nil {
		b.Fatal(err)
	}
	cow.SetBacking(cache)
	reg := metrics.NewRegistry()
	cache.RegisterMetrics(reg, metrics.Labels{"image": "cache"})
	cow.RegisterMetrics(reg, metrics.Labels{"image": "cow"})
	return cow, cache
}

// BenchmarkWarmRead measures single-reader warm-cache hits; the hot path must
// stay allocation-free with metrics registered.
func BenchmarkWarmRead(b *testing.B) {
	cow := newChain(b)
	buf := make([]byte, 24<<10)
	for off := int64(0); off < 8<<20; off += int64(len(buf)) {
		if _, err := cow.ReadAt(buf, off); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := (int64(i) * int64(len(buf))) % (7 << 20)
		if _, err := cow.ReadAt(buf, off); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelWarmRead measures aggregate warm-read throughput with
// instrumentation enabled; allocs/op must report 0.
func BenchmarkParallelWarmRead(b *testing.B) {
	const span = 24 << 10
	for _, g := range []int{1, 4, 8} {
		g := g
		b.Run(fmt.Sprintf("goroutines-%d", g), func(b *testing.B) {
			cow := newChain(b)
			warm := make([]byte, span)
			for off := int64(0); off < 8<<20; off += span {
				if _, err := cow.ReadAt(warm, off); err != nil {
					b.Fatal(err)
				}
			}
			bufs := make([][]byte, g)
			for w := range bufs {
				bufs[w] = make([]byte, span)
			}
			b.SetBytes(span)
			b.ReportAllocs()
			b.ResetTimer()
			var next atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < g; w++ {
				buf := bufs[w]
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						i := next.Add(1) - 1
						if i >= int64(b.N) {
							return
						}
						off := (i * span) % (7 << 20)
						if _, err := cow.ReadAt(buf, off); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}

// BenchmarkLargeWarmRead measures big sequential IOs over a warm cache —
// the case the run-level extent translation exists for. A 256 KiB or 1 MiB
// request spans hundreds of 512-byte cache clusters; the old per-cluster
// loop took the metadata lock once per cluster, the extent path takes it
// once per request. Warm large reads must stay allocation-free.
func BenchmarkLargeWarmRead(b *testing.B) {
	for _, span := range []int64{256 << 10, 1 << 20} {
		span := span
		name := fmt.Sprintf("%dKiB", span>>10)
		if span >= 1<<20 {
			name = fmt.Sprintf("%dMiB", span>>20)
		}
		b.Run(name, func(b *testing.B) {
			cow := newChain(b)
			buf := make([]byte, span)
			for off := int64(0); off < 48<<20; off += span {
				if _, err := cow.ReadAt(buf, off); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(span)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				off := (int64(i) * span) % (32 << 20)
				if _, err := cow.ReadAt(buf, off); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkContendedWarmRead measures small warm reads under heavy reader
// concurrency — the sharded L2 cache's target load. Beyond throughput it
// reports tail latency (p99-ns via ReportMetric), which a single flat cache
// mutex inflates long before mean throughput shows it.
func BenchmarkContendedWarmRead(b *testing.B) {
	const span = 4 << 10
	for _, g := range []int{16, 64} {
		g := g
		b.Run(fmt.Sprintf("goroutines-%d", g), func(b *testing.B) {
			cow := newChain(b)
			warm := make([]byte, 24<<10)
			for off := int64(0); off < 8<<20; off += int64(len(warm)) {
				if _, err := cow.ReadAt(warm, off); err != nil {
					b.Fatal(err)
				}
			}
			bufs := make([][]byte, g)
			for w := range bufs {
				bufs[w] = make([]byte, span)
			}
			lat := make([]int64, b.N)
			b.SetBytes(span)
			b.ReportAllocs()
			b.ResetTimer()
			var next atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < g; w++ {
				buf := bufs[w]
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						i := next.Add(1) - 1
						if i >= int64(b.N) {
							return
						}
						off := (i * span) % (7 << 20)
						t0 := time.Now()
						if _, err := cow.ReadAt(buf, off); err != nil {
							b.Error(err)
							return
						}
						lat[i] = int64(time.Since(t0))
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			slices.Sort(lat)
			if n := len(lat); n > 0 {
				i := n * 99 / 100
				if i >= n {
					i = n - 1
				}
				b.ReportMetric(float64(lat[i]), "p99-ns")
			}
		})
	}
}

// BenchmarkWarmReadMmap compares warm raw reads on a published (read-only,
// os-backed) image served by pread against the same reads through an image
// attached to a table set, which copies them from the set's one mapping.
func BenchmarkWarmReadMmap(b *testing.B) {
	const (
		size = 64 << 20
		span = 24 << 10
	)
	run := func(b *testing.B, mmap bool) {
		var set *qcow.Tables
		if mmap {
			set = qcow.NewTables()
		}
		img := openPublished(b, size, 16, set)
		buf := make([]byte, span)
		b.SetBytes(span)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			off := (int64(i) * span) % (32 << 20)
			if _, err := img.ReadAt(buf, off); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if mmap && img.Stats().MmapReads.Load() == 0 {
			b.Fatal("the set's mapping never served a read")
		}
	}
	b.Run("pread", func(b *testing.B) { run(b, false) })
	b.Run("mmap", func(b *testing.B) { run(b, true) })
}

// BenchmarkTranslate512 reads 64 KiB and 1 MiB warm spans of a published
// image of 512 B clusters attached to a table set — the warm_boot geometry:
// per op one translation over 128 or 2048 L2 slots and one copy from the
// set's mapping.
func BenchmarkTranslate512(b *testing.B) {
	const size = 32 << 20
	set := qcow.NewTables()
	img := openPublished(b, size, 9, set)
	for _, span := range []int64{64 << 10, 1 << 20} {
		b.Run(fmt.Sprintf("%dk", span>>10), func(b *testing.B) {
			buf := make([]byte, span)
			b.SetBytes(span)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := img.ReadAt(buf, (int64(i)*span)%size); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	if img.Stats().MmapReads.Load() == 0 {
		b.Fatal("the set's mapping never served a read")
	}
}

// openPublished writes a patterned image of the given geometry to an OS file,
// syncs it, and reopens it read-only attached to set (nil: no set) with its
// metrics registered, as cachemgr attaches a published cache.
func openPublished(b *testing.B, size int64, clusterBits int, set *qcow.Tables) *qcow.Image {
	b.Helper()
	path := filepath.Join(b.TempDir(), "img.qcow")
	f, err := backend.CreateOSFile(path)
	if err != nil {
		b.Fatal(err)
	}
	img, err := qcow.Create(f, qcow.CreateOpts{Size: size, ClusterBits: clusterBits})
	if err != nil {
		b.Fatal(err)
	}
	chunk := make([]byte, 1<<20)
	for i := range chunk {
		chunk[i] = byte(i * 31)
	}
	for off := int64(0); off < size; off += int64(len(chunk)) {
		if err := backend.WriteFull(img, chunk, off); err != nil {
			b.Fatal(err)
		}
	}
	if err := img.Sync(); err != nil { // keep writeback out of the timed window
		b.Fatal(err)
	}
	if err := img.Close(); err != nil {
		b.Fatal(err)
	}
	ro, err := backend.OpenOSFile(path, true)
	if err != nil {
		b.Fatal(err)
	}
	ri, err := qcow.Open(ro, qcow.OpenOpts{ReadOnly: true, Tables: set})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { ri.Close() }) //nolint:errcheck // bench teardown
	ri.RegisterMetrics(metrics.NewRegistry(), metrics.Labels{"image": "pub"})
	return ri
}

// latencySource models a remote base: every backing read costs one fixed
// round trip.
type latencySource struct {
	benchSource
	delay time.Duration
}

func (s latencySource) ReadAt(p []byte, off int64) (int, error) {
	time.Sleep(s.delay)
	return s.benchSource.ReadAt(p, off)
}

// BenchmarkSequentialColdRead measures a sequential cold scan over a
// latency-bearing backing source: every demand read pays one round trip.
func BenchmarkSequentialColdRead(b *testing.B) {
	const (
		size  = 64 << 20
		span  = 24 << 10
		cold  = int64(60 << 20) // scanned region per fresh chain
		delay = 200 * time.Microsecond
	)
	run := func(b *testing.B) {
		var cow, cache *qcow.Image
		mk := func() {
			if cow != nil {
				cow.Close()   //nolint:errcheck // bench teardown
				cache.Close() //nolint:errcheck // bench teardown
			}
			cache, _ = qcow.Create(backend.NewMemFile(), qcow.CreateOpts{
				Size: size, ClusterBits: 9, BackingFile: "b", CacheQuota: size,
			})
			cache.SetBacking(latencySource{benchSource{n: size}, delay})
			cow, _ = qcow.Create(backend.NewMemFile(), qcow.CreateOpts{
				Size: size, ClusterBits: 16, BackingFile: "c",
			})
			cow.SetBacking(cache)
		}
		buf := make([]byte, span)
		pos := cold // force chain creation on the first iteration
		b.SetBytes(span)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if pos+span > cold {
				b.StopTimer()
				mk()
				pos = 0
				b.StartTimer()
			}
			if _, err := cow.ReadAt(buf, pos); err != nil {
				b.Fatal(err)
			}
			pos += span
		}
		b.StopTimer()
		cow.Close()   //nolint:errcheck // bench teardown
		cache.Close() //nolint:errcheck // bench teardown
	}
	b.Run("demand", run)
}

// BenchmarkColdFill measures copy-on-read fills (leader path, including the
// fill-latency histogram observation).
func BenchmarkColdFill(b *testing.B) {
	buf := make([]byte, 24<<10)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	var cow *qcow.Image
	pos := int64(60 << 20) // force chain creation on the first iteration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if pos+int64(len(buf)) > 60<<20 {
			b.StopTimer()
			cow = newChain(b)
			pos = 0
			b.StartTimer()
		}
		if _, err := cow.ReadAt(buf, pos); err != nil {
			b.Fatal(err)
		}
		pos += int64(len(buf))
	}
}

// newOSCache creates a 512-byte-cluster cache over benchSource in a real
// file, where every container operation is a syscall — what a cold warm in
// cachemgr runs on, and what MemFile containers hide.
func newOSCache(b *testing.B, path string, size int64) *qcow.Image {
	b.Helper()
	f, err := backend.CreateOSFile(path)
	if err != nil {
		b.Fatal(err)
	}
	cache, err := qcow.Create(f, qcow.CreateOpts{
		Size: size, ClusterBits: 9, BackingFile: "b", CacheQuota: 2 * size,
	})
	if err != nil {
		b.Fatal(err)
	}
	cache.SetBacking(benchSource{n: size})
	return cache
}

// BenchmarkColdFillOSFile is the cold warm's fill: 1 MiB spans read through a
// 512-byte-cluster cache in a real file, each landing as one run commit.
func BenchmarkColdFillOSFile(b *testing.B) {
	const size = 8 << 20
	path := filepath.Join(b.TempDir(), "cache")
	buf := make([]byte, 1<<20)
	b.SetBytes(size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cache := newOSCache(b, path, size)
		b.StartTimer()
		for off := int64(0); off < size; off += int64(len(buf)) {
			if _, err := cache.ReadAt(buf, off); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if err := cache.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// BenchmarkCheck is the publication gate: open a warmed 512-byte-cluster
// cache (16384 data clusters) cold and verify it, as cachemgr does before
// every rename and at every recovery.
func BenchmarkCheck(b *testing.B) {
	const size = 8 << 20
	path := filepath.Join(b.TempDir(), "cache")
	cache := newOSCache(b, path, size)
	if err := backend.ReadFull(cache, make([]byte, size), 0); err != nil {
		b.Fatal(err)
	}
	if err := cache.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := backend.OpenOSFile(path, true)
		if err != nil {
			b.Fatal(err)
		}
		img, err := qcow.OpenVerified(f, qcow.OpenOpts{ReadOnly: true})
		if err != nil {
			b.Fatal(err)
		}
		img.Close() //nolint:errcheck // read-only
	}
}
