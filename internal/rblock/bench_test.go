package rblock

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vmicache/internal/backend"
	"vmicache/internal/metrics"
)

// newBenchPair starts a loopback server exporting one image and returns an
// open remote file, with both ends registered on live metrics registries so
// the measured path includes instrumentation.
func newBenchPair(b *testing.B, size int64) *RemoteFile {
	b.Helper()
	store := backend.NewMemStore()
	f, err := store.Create("img")
	if err != nil {
		b.Fatal(err)
	}
	if err := f.Truncate(size); err != nil {
		b.Fatal(err)
	}
	return benchServe(b, store, ServerOpts{})
}

// newBenchPairOS is the published-cache shape: the export is a real file on
// disk, so the server ships read replies with sendfile; with hideFD it serves
// the same file through noFDStore, and so by the pread+writev copy path.
func newBenchPairOS(b *testing.B, size int64, hideFD bool) *RemoteFile {
	b.Helper()
	store, err := backend.NewDirStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	f, err := store.Create("img")
	if err != nil {
		b.Fatal(err)
	}
	// Real (non-sparse) content: fill so sendfile moves actual blocks.
	chunk := make([]byte, 1<<20)
	for i := range chunk {
		chunk[i] = byte(i * 31)
	}
	for off := int64(0); off < size; off += int64(len(chunk)) {
		if err := backend.WriteFull(f, chunk, off); err != nil {
			b.Fatal(err)
		}
	}
	// Flush the fill's dirty pages before the timer starts: background
	// writeback mid-measurement costs up to 2x on a small machine.
	if err := f.Sync(); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
	if hideFD {
		return benchServe(b, noFDStore{store}, ServerOpts{})
	}
	return benchServe(b, store, ServerOpts{})
}

func benchServe(b *testing.B, store backend.Store, opts ServerOpts) *RemoteFile {
	b.Helper()
	srv := NewServer(store, opts)
	srv.RegisterMetrics(metrics.NewRegistry(), nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { srv.Close() }) //nolint:errcheck // benchmark teardown
	c, err := Dial(addr, 0)
	if err != nil {
		b.Fatal(err)
	}
	c.RegisterMetrics(metrics.NewRegistry(), nil)
	b.Cleanup(func() { c.Close() }) //nolint:errcheck // benchmark teardown
	rf, err := c.Open("img", true)
	if err != nil {
		b.Fatal(err)
	}
	return rf
}

// BenchmarkRoundTrip measures single-segment request latency over loopback.
func BenchmarkRoundTrip(b *testing.B) {
	const span = 64 << 10
	rf := newBenchPair(b, 64<<20)
	buf := make([]byte, span)
	b.SetBytes(span)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := (int64(i) * span) % (32 << 20)
		if _, err := rf.ReadAt(buf, off); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelinedRead measures a large multi-segment read whose segments
// are pipelined on the shared connection.
func BenchmarkPipelinedRead(b *testing.B) {
	const span = 4 << 20 // four 1 MiB OpReadV requests
	rf := newBenchPair(b, 64<<20)
	buf := make([]byte, span)
	b.SetBytes(span)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := (int64(i) * span) % (32 << 20)
		if _, err := rf.ReadAt(buf, off); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServerReadLarge measures bulk transfer throughput at image-warm
// spans (1 MiB and 4 MiB per call, pipelined as 1 MiB OpReadV requests) in the
// peer-export configuration: a published cache on disk served with zero-copy
// on, so read replies ship via sendfile between the writev'd headers. The
// vectored reply writer should still coalesce the headers of many in-flight
// replies, and the frame/segment pools should hold allocs/op near-constant
// regardless of span.
func BenchmarkServerReadLarge(b *testing.B) {
	for _, span := range []int64{1 << 20, 4 << 20} {
		span := span
		b.Run(fmt.Sprintf("%dMiB", span>>20), func(b *testing.B) {
			rf := newBenchPairOS(b, 64<<20, false)
			buf := make([]byte, span)
			b.SetBytes(span)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				off := (int64(i) * span) % (32 << 20)
				if _, err := rf.ReadAt(buf, off); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkServerReadZeroCopy isolates the sendfile reply path against the
// pread+copy path on the identical on-disk export, at the latency-bound
// (4 KiB) and throughput-bound (1 MiB) extremes.
func BenchmarkServerReadZeroCopy(b *testing.B) {
	for _, tc := range []struct {
		name string
		span int64
		hide bool // serve through noFDStore: the copy path
	}{
		{"4KiB/copy", 4 << 10, true},
		{"4KiB/sendfile", 4 << 10, false},
		{"1MiB/copy", 1 << 20, true},
		{"1MiB/sendfile", 1 << 20, false},
	} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			rf := newBenchPairOS(b, 64<<20, tc.hide)
			buf := make([]byte, tc.span)
			b.SetBytes(tc.span)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				off := (int64(i) * tc.span) % (32 << 20)
				if _, err := rf.ReadAt(buf, off); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkContendedServerRead measures small reads under 64-way client
// concurrency against a zero-copy export — the flash-crowd shape where many
// nodes pull one published cache at once. Beyond throughput it reports tail
// latency (p99-ns), which head-of-line blocking in the reply writer would
// inflate long before mean throughput shows it.
func BenchmarkContendedServerRead(b *testing.B) {
	const (
		span  = 4 << 10
		conns = 8
		g     = 64
	)
	store, err := backend.NewDirStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	f, err := store.Create("img")
	if err != nil {
		b.Fatal(err)
	}
	chunk := make([]byte, 1<<20)
	for i := range chunk {
		chunk[i] = byte(i * 31)
	}
	for off := int64(0); off < 64<<20; off += int64(len(chunk)) {
		if err := backend.WriteFull(f, chunk, off); err != nil {
			b.Fatal(err)
		}
	}
	if err := f.Sync(); err != nil { // keep writeback out of the timed window
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
	srv := NewServer(store, ServerOpts{})
	srv.RegisterMetrics(metrics.NewRegistry(), nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { srv.Close() }) //nolint:errcheck // benchmark teardown
	rfs := make([]*RemoteFile, conns)
	for i := range rfs {
		c, err := Dial(addr, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { c.Close() }) //nolint:errcheck // benchmark teardown
		if rfs[i], err = c.Open("img", true); err != nil {
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
		rf, buf := rfs[w%conns], bufs[w]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(b.N) {
					return
				}
				off := (i * span) % (32 << 20)
				t0 := time.Now()
				if _, err := rf.ReadAt(buf, off); err != nil {
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
}

// BenchmarkServerRead4K measures the small-read round trip of a guest's
// 4 KiB read-through (exact-length segments). Loopback runs both
// ends in-process, so allocs/op covers the server's request handling too: the
// pooled reply buffers must keep the steady-state read path free of per-
// request payload allocations.
func BenchmarkServerRead4K(b *testing.B) {
	const span = 4 << 10
	rf := newBenchPair(b, 64<<20)
	buf := make([]byte, span)
	b.SetBytes(span)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := (int64(i) * span) % (32 << 20)
		if _, err := rf.ReadAt(buf, off); err != nil {
			b.Fatal(err)
		}
	}
}
