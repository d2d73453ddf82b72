package vmicache

// The benchmark harness: one benchmark per measured table and figure of the
// paper, plus ablations over the design choices DESIGN.md calls out and
// microbenchmarks of the image-format data path.
//
// Figure benchmarks execute the figure's decisive experiment at a reduced
// scale per iteration and report renormalised full-scale metrics via
// b.ReportMetric (boot seconds, traffic MB, amplification ratios), so
// `go test -bench .` regenerates the paper's headline numbers alongside
// CPU costs. `cmd/expdriver` prints the complete curves.

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vmicache/internal/backend"
	"vmicache/internal/boot"
	"vmicache/internal/cloudsim"
	"vmicache/internal/cluster"
	"vmicache/internal/core"
	"vmicache/internal/dedup"
	"vmicache/internal/qcow"
	"vmicache/internal/sched"
)

// benchScale keeps per-iteration cost low while preserving contention
// ratios; reported metrics are renormalised to full scale.
const benchScale = 0.01

func benchProfile() boot.Profile { return boot.CentOS.Scale(benchScale) }

func mustRunB(b *testing.B, p cluster.Params) *cluster.Result {
	b.Helper()
	if p.Seed == 0 {
		p.Seed = 20130703
	}
	if p.Profile.Name == "" {
		p.Profile = benchProfile()
	}
	r, err := cluster.Run(p)
	if err != nil {
		b.Fatal(err)
	}
	return r
}

func reportBoot(b *testing.B, name string, r *cluster.Result) {
	b.Helper()
	b.ReportMetric(r.MeanBoot.Seconds()/benchScale, name+"-boot-s")
}

// BenchmarkTable1WorkingSet regenerates Table 1: the unique read working
// set of each guest's boot stream.
func BenchmarkTable1WorkingSet(b *testing.B) {
	for _, p := range boot.Profiles() {
		p := p
		b.Run(p.Name, func(b *testing.B) {
			var unique int64
			for i := 0; i < b.N; i++ {
				w := boot.Generate(p.Scale(benchScale))
				unique = w.UniqueReadBytes()
			}
			b.ReportMetric(float64(unique)/benchScale/1e6, "workingset-MB")
		})
	}
}

// BenchmarkTable2CacheQuota regenerates Table 2: the physical size of a
// fully warmed 512 B-cluster cache image (working set + metadata).
func BenchmarkTable2CacheQuota(b *testing.B) {
	for _, bp := range boot.Profiles() {
		bp := bp
		b.Run(bp.Name, func(b *testing.B) {
			prof := bp.Scale(benchScale)
			var used int64
			for i := 0; i < b.N; i++ {
				r := mustRunB(b, cluster.Params{
					Network: cluster.NetIB, Nodes: 1, VMIs: 1,
					Mode: cluster.ModeWarmCache, Placement: cluster.PlaceComputeMem,
					Profile: prof, CacheQuota: prof.ImageSize,
				})
				used = r.CacheUsed
			}
			b.ReportMetric(float64(used)/benchScale/1e6, "cachesize-MB")
		})
	}
}

// BenchmarkFig2ScalingNodes regenerates Fig. 2's decisive contrast: QCOW2
// at 64 nodes over both networks (GbE saturates, IB stays at the single-VM
// level).
func BenchmarkFig2ScalingNodes(b *testing.B) {
	for _, net := range []cluster.Network{cluster.NetGbE, cluster.NetIB} {
		net := net
		b.Run(net.String(), func(b *testing.B) {
			var r *cluster.Result
			for i := 0; i < b.N; i++ {
				r = mustRunB(b, cluster.Params{
					Network: net, Nodes: 64, VMIs: 1, Mode: cluster.ModeQCOW2,
				})
			}
			reportBoot(b, "64n", r)
		})
	}
}

// BenchmarkFig3ScalingVMIs regenerates Fig. 3: 64 nodes booting 64 distinct
// VMIs collapse on the storage disk regardless of network.
func BenchmarkFig3ScalingVMIs(b *testing.B) {
	for _, net := range []cluster.Network{cluster.NetGbE, cluster.NetIB} {
		net := net
		b.Run(net.String(), func(b *testing.B) {
			var r *cluster.Result
			for i := 0; i < b.N; i++ {
				r = mustRunB(b, cluster.Params{
					Network: net, Nodes: 64, VMIs: 64, Mode: cluster.ModeQCOW2,
				})
			}
			reportBoot(b, "64vmi", r)
			b.ReportMetric(r.DiskUtilization, "disk-util")
		})
	}
}

// BenchmarkFig8CacheCreation regenerates Fig. 8's three cache-creation
// arrangements at the paper's largest quota (140 MB full-scale).
func BenchmarkFig8CacheCreation(b *testing.B) {
	quota := int64(140e6 * benchScale)
	cases := []struct {
		name string
		p    cluster.Params
	}{
		{"warm", cluster.Params{Mode: cluster.ModeWarmCache, Placement: cluster.PlaceComputeDisk}},
		{"cold-on-mem", cluster.Params{Mode: cluster.ModeColdCache, Placement: cluster.PlaceComputeMem}},
		{"cold-on-disk", cluster.Params{Mode: cluster.ModeColdCache, Placement: cluster.PlaceComputeDisk, ColdOnDisk: true}},
		{"qcow2", cluster.Params{Mode: cluster.ModeQCOW2}},
	}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			var r *cluster.Result
			for i := 0; i < b.N; i++ {
				p := c.p
				p.Network = cluster.NetGbE
				p.Nodes = 1
				p.VMIs = 1
				p.CacheQuota = quota
				p.CacheClusterBits = 16
				r = mustRunB(b, p)
			}
			reportBoot(b, c.name, r)
		})
	}
}

// BenchmarkFig9StorageTraffic regenerates Fig. 9's traffic comparison and
// reports the cold-cache amplification ratio at 64 KiB vs 512 B clusters.
func BenchmarkFig9StorageTraffic(b *testing.B) {
	var q, cold64k, cold512 int64
	for i := 0; i < b.N; i++ {
		q = mustRunB(b, cluster.Params{
			Network: cluster.NetGbE, Nodes: 1, VMIs: 1, Mode: cluster.ModeQCOW2,
		}).BaseTraffic
		// Ample quota: a truncated quota caps the 64 KiB fills early
		// and hides the amplification (the effect Fig. 9 sweeps).
		cold64k = mustRunB(b, cluster.Params{
			Network: cluster.NetGbE, Nodes: 1, VMIs: 1, Mode: cluster.ModeColdCache,
			Placement: cluster.PlaceComputeMem, CacheClusterBits: 16,
			CacheQuota: 4 * benchProfile().UniqueReadBytes,
		}).BaseTraffic
		cold512 = mustRunB(b, cluster.Params{
			Network: cluster.NetGbE, Nodes: 1, VMIs: 1, Mode: cluster.ModeColdCache,
			Placement: cluster.PlaceComputeMem, CacheClusterBits: 9,
		}).BaseTraffic
	}
	b.ReportMetric(float64(q)/benchScale/1e6, "qcow2-MB")
	b.ReportMetric(float64(cold64k)/float64(q), "cold64K-amplification")
	b.ReportMetric(float64(cold512)/float64(q), "cold512B-amplification")
}

// BenchmarkFig10FinalArrangement regenerates Fig. 10: the final arrangement
// (512 B clusters, cold cache in memory) boots at QCOW2 speed while the
// warm pass needs ~zero base traffic.
func BenchmarkFig10FinalArrangement(b *testing.B) {
	var cold, warm *cluster.Result
	for i := 0; i < b.N; i++ {
		cold = mustRunB(b, cluster.Params{
			Network: cluster.NetGbE, Nodes: 1, VMIs: 1, Mode: cluster.ModeColdCache,
			Placement: cluster.PlaceComputeMem, CacheClusterBits: 9,
		})
		warm = mustRunB(b, cluster.Params{
			Network: cluster.NetGbE, Nodes: 1, VMIs: 1, Mode: cluster.ModeWarmCache,
			Placement: cluster.PlaceComputeMem, CacheClusterBits: 9,
		})
	}
	reportBoot(b, "cold", cold)
	reportBoot(b, "warm", warm)
	b.ReportMetric(float64(warm.BaseTraffic)/benchScale/1e6, "warm-tx-MB")
	b.ReportMetric(float64(cold.BaseTraffic)/benchScale/1e6, "cold-tx-MB")
}

// BenchmarkFig11CacheScalingNodes regenerates Fig. 11: warm caches hold 64
// simultaneous boots at the single-VM level over 1 GbE.
func BenchmarkFig11CacheScalingNodes(b *testing.B) {
	var warm, qcow2 *cluster.Result
	for i := 0; i < b.N; i++ {
		warm = mustRunB(b, cluster.Params{
			Network: cluster.NetGbE, Nodes: 64, VMIs: 1,
			Mode: cluster.ModeWarmCache, Placement: cluster.PlaceComputeDisk,
		})
		qcow2 = mustRunB(b, cluster.Params{
			Network: cluster.NetGbE, Nodes: 64, VMIs: 1, Mode: cluster.ModeQCOW2,
		})
	}
	reportBoot(b, "warm64n", warm)
	reportBoot(b, "qcow2-64n", qcow2)
	b.ReportMetric(qcow2.MeanBoot.Seconds()/warm.MeanBoot.Seconds(), "speedup")
}

// BenchmarkFig12ComputeDiskCaches regenerates Fig. 12's decisive point: 64
// nodes, 64 VMIs over IB, caches on compute disks vs QCOW2.
func BenchmarkFig12ComputeDiskCaches(b *testing.B) {
	var warm, qcow2 *cluster.Result
	for i := 0; i < b.N; i++ {
		warm = mustRunB(b, cluster.Params{
			Network: cluster.NetIB, Nodes: 64, VMIs: 64,
			Mode: cluster.ModeWarmCache, Placement: cluster.PlaceComputeDisk,
		})
		qcow2 = mustRunB(b, cluster.Params{
			Network: cluster.NetIB, Nodes: 64, VMIs: 64, Mode: cluster.ModeQCOW2,
		})
	}
	reportBoot(b, "warm", warm)
	reportBoot(b, "qcow2", qcow2)
	b.ReportMetric(qcow2.MeanBoot.Seconds()/warm.MeanBoot.Seconds(), "speedup")
}

// BenchmarkFig14StorageMemCaches regenerates Fig. 14's decisive point:
// warm caches in storage memory remove the disk bottleneck (64x64, IB);
// cold runs pay the transfer.
func BenchmarkFig14StorageMemCaches(b *testing.B) {
	var warm, cold *cluster.Result
	for i := 0; i < b.N; i++ {
		warm = mustRunB(b, cluster.Params{
			Network: cluster.NetIB, Nodes: 64, VMIs: 64,
			Mode: cluster.ModeWarmCache, Placement: cluster.PlaceStorageMem,
		})
		cold = mustRunB(b, cluster.Params{
			Network: cluster.NetIB, Nodes: 64, VMIs: 64,
			Mode: cluster.ModeColdCache, Placement: cluster.PlaceStorageMem,
		})
	}
	reportBoot(b, "warm", warm)
	reportBoot(b, "cold+transfer", cold)
	b.ReportMetric(float64(warm.StorageDiskBytes)/benchScale/1e6, "warm-disk-MB")
}

// BenchmarkSec6PlacementDelta regenerates the §6 micro-experiment: warm
// compute-disk vs storage-memory caches over the fast network.
func BenchmarkSec6PlacementDelta(b *testing.B) {
	var delta float64
	for i := 0; i < b.N; i++ {
		_, _, delta = cluster.Sec6Delta(benchScale)
	}
	b.ReportMetric(delta, "delta-pct")
}

// ---- Ablations over design choices ----

// BenchmarkAblationClusterSize sweeps the cache cluster size (the §5.1
// decision): traffic amplification shrinks as clusters approach the sector
// size.
func BenchmarkAblationClusterSize(b *testing.B) {
	base := mustRunB(b, cluster.Params{
		Network: cluster.NetGbE, Nodes: 1, VMIs: 1, Mode: cluster.ModeQCOW2,
	}).BaseTraffic
	for _, bits := range []int{9, 12, 14, 16} {
		bits := bits
		b.Run(fmt.Sprintf("cluster-%dB", 1<<bits), func(b *testing.B) {
			var traffic int64
			for i := 0; i < b.N; i++ {
				traffic = mustRunB(b, cluster.Params{
					Network: cluster.NetGbE, Nodes: 1, VMIs: 1,
					Mode: cluster.ModeColdCache, Placement: cluster.PlaceComputeMem,
					CacheClusterBits: bits,
					CacheQuota:       4 * benchProfile().UniqueReadBytes,
				}).BaseTraffic
			}
			b.ReportMetric(float64(traffic)/float64(base), "amplification")
		})
	}
}

// BenchmarkAblationColdCacheMedium contrasts creating the cold cache in
// memory vs on disk with synchronous writes (the Fig. 7/8 decision).
func BenchmarkAblationColdCacheMedium(b *testing.B) {
	for _, onDisk := range []bool{false, true} {
		onDisk := onDisk
		name := "mem"
		if onDisk {
			name = "disk-sync"
		}
		b.Run(name, func(b *testing.B) {
			var r *cluster.Result
			for i := 0; i < b.N; i++ {
				r = mustRunB(b, cluster.Params{
					Network: cluster.NetGbE, Nodes: 1, VMIs: 1,
					Mode: cluster.ModeColdCache, Placement: cluster.PlaceComputeDisk,
					ColdOnDisk: onDisk, CacheClusterBits: 16,
				})
			}
			reportBoot(b, name, r)
		})
	}
}

// BenchmarkAblationCacheAwareSched contrasts the §3.4 warm-cache heuristic
// against cache-oblivious scheduling on a Zipf image mix.
func BenchmarkAblationCacheAwareSched(b *testing.B) {
	params := sched.WorkloadParams{
		Seed: 5, Arrivals: 3000, VMIs: 24, ZipfS: 1.3, MeanLifetime: 40,
		CPU: 1, Mem: 1 << 30,
		WarmBoot: 35 * time.Second, ColdBoot: 140 * time.Second,
		CacheSize: 93 << 20,
	}
	for _, aware := range []bool{false, true} {
		aware := aware
		name := "oblivious"
		if aware {
			name = "cache-aware"
		}
		b.Run(name, func(b *testing.B) {
			var res *sched.SimResult
			for i := 0; i < b.N; i++ {
				s := sched.New(sched.Striping, aware)
				for n := 0; n < 16; n++ {
					s.AddNode(sched.NewNode(fmt.Sprintf("n%02d", n), 8, 24<<30, 2<<30))
				}
				var err error
				res, err = sched.Simulate(s, params)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.WarmRatio, "warm-ratio")
			b.ReportMetric(res.MeanBoot.Seconds(), "mean-boot-s")
		})
	}
}

// BenchmarkAblationPlacement contrasts the three cache placements for the
// same 64-node, 16-VMI warm workload.
func BenchmarkAblationPlacement(b *testing.B) {
	for _, pl := range []cluster.Placement{
		cluster.PlaceComputeDisk, cluster.PlaceComputeMem, cluster.PlaceStorageMem,
	} {
		pl := pl
		b.Run(pl.String(), func(b *testing.B) {
			var r *cluster.Result
			for i := 0; i < b.N; i++ {
				r = mustRunB(b, cluster.Params{
					Network: cluster.NetIB, Nodes: 64, VMIs: 16,
					Mode: cluster.ModeWarmCache, Placement: pl,
				})
			}
			reportBoot(b, pl.String(), r)
		})
	}
}

// ---- Data-path microbenchmarks (real format code, no simulation) ----

func newBenchChain(b *testing.B, cacheBits int, quota int64) (*qcow.Image, *qcow.Image) {
	b.Helper()
	const size = 64 << 20
	src := boot.PatternSource{Seed: 3, N: size}
	cache, err := qcow.Create(backend.NewMemFile(), qcow.CreateOpts{
		Size: size, ClusterBits: cacheBits, BackingFile: "b", CacheQuota: quota,
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
	return cow, cache
}

// BenchmarkDataPathColdRead measures copy-on-read fills through the full
// chain (bytes/op dominated by the fill path).
func BenchmarkDataPathColdRead(b *testing.B) {
	cow, _ := newBenchChain(b, 9, 64<<20)
	buf := make([]byte, 24<<10)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := (int64(i) * int64(len(buf))) % (60 << 20)
		if _, err := cow.ReadAt(buf, off); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDataPathWarmRead measures warm-cache hits through the chain.
func BenchmarkDataPathWarmRead(b *testing.B) {
	cow, _ := newBenchChain(b, 9, 64<<20)
	buf := make([]byte, 24<<10)
	// Warm a 8 MiB region.
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

// BenchmarkDataPathGuestWrite measures CoW writes with partial-cluster
// fills.
func BenchmarkDataPathGuestWrite(b *testing.B) {
	cow, _ := newBenchChain(b, 9, 64<<20)
	buf := make([]byte, 8<<10)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := (int64(i) * 16 << 10) % (60 << 20)
		if _, err := cow.WriteAt(buf, off); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelWarmRead measures aggregate warm-read throughput as the
// number of concurrent readers grows. Warm reads take only a read lock for
// translation and do data I/O with no image lock held, so throughput should
// scale with goroutines instead of serialising on a single image mutex.
func BenchmarkParallelWarmRead(b *testing.B) {
	const span = 24 << 10
	for _, g := range []int{1, 4, 8, 16} {
		g := g
		b.Run(fmt.Sprintf("goroutines-%d", g), func(b *testing.B) {
			cow, _ := newBenchChain(b, 9, 64<<20)
			warm := make([]byte, span)
			// Warm an 8 MiB region so every timed read is a cache hit.
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

// benchParallelColdFill drives g concurrent readers over disjoint cold
// spans of a fresh chain, recreating the chain (off the clock) whenever the
// cold region is exhausted.
func benchParallelColdFill(b *testing.B, g int, mkChain func(b *testing.B) *qcow.Image) {
	const (
		span     = 24 << 10
		coldSpan = int64((60 << 20) / span) // spans available per fresh chain
	)
	bufs := make([][]byte, g)
	for w := range bufs {
		bufs[w] = make([]byte, span)
	}
	var cow *qcow.Image
	pos := coldSpan // force chain creation on first batch
	b.SetBytes(span)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += g {
		if pos+int64(g) > coldSpan {
			b.StopTimer()
			cow = mkChain(b)
			pos = 0
			b.StartTimer()
		}
		n := g
		if rem := b.N - i; rem < n {
			n = rem
		}
		var wg sync.WaitGroup
		for w := 0; w < n; w++ {
			off := (pos + int64(w)) * span
			buf := bufs[w]
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := cow.ReadAt(buf, off); err != nil {
					b.Error(err)
				}
			}()
		}
		wg.Wait()
		pos += int64(n)
	}
}

// BenchmarkParallelColdFill measures copy-on-read fill throughput with
// concurrent readers touching disjoint cold spans: distinct cluster runs
// fetch from the backing source in parallel, and pooled fill buffers keep
// allocations per op flat.
func BenchmarkParallelColdFill(b *testing.B) {
	for _, g := range []int{1, 4, 8, 16} {
		g := g
		b.Run(fmt.Sprintf("goroutines-%d", g), func(b *testing.B) {
			benchParallelColdFill(b, g, func(b *testing.B) *qcow.Image {
				cow, _ := newBenchChain(b, 9, 64<<20)
				return cow
			})
		})
	}
}

// BenchmarkParallelColdFillRemote is the same fill workload against a
// high-latency backing source (a remote base stand-in): because distinct
// cluster runs fetch concurrently, aggregate throughput scales with the
// reader count by overlapping fetch latency — even on a single CPU.
func BenchmarkParallelColdFillRemote(b *testing.B) {
	const size = 64 << 20
	for _, g := range []int{1, 4, 8, 16} {
		g := g
		b.Run(fmt.Sprintf("goroutines-%d", g), func(b *testing.B) {
			benchParallelColdFill(b, g, func(b *testing.B) *qcow.Image {
				b.Helper()
				src := slowPatternSource{boot.PatternSource{Seed: 3, N: size}, 500 * time.Microsecond}
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
				return cow
			})
		})
	}
}

// BenchmarkBootReplayThroughChain measures a full (scaled) boot against a
// real chain: the end-to-end data-path cost of one VM start.
func BenchmarkBootReplayThroughChain(b *testing.B) {
	prof := boot.CentOS.Scale(benchScale)
	w := boot.Generate(prof)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		src := boot.PatternSource{Seed: 3, N: prof.ImageSize}
		cache, err := qcow.Create(backend.NewMemFile(), qcow.CreateOpts{
			Size: prof.ImageSize, ClusterBits: 9, BackingFile: "b",
			CacheQuota: prof.ImageSize,
		})
		if err != nil {
			b.Fatal(err)
		}
		cache.SetBacking(src)
		cow, err := qcow.Create(backend.NewMemFile(), qcow.CreateOpts{
			Size: prof.ImageSize, ClusterBits: 16, BackingFile: "c",
		})
		if err != nil {
			b.Fatal(err)
		}
		cow.SetBacking(cache)
		b.StartTimer()
		if _, err := boot.Replay(w, cow, boot.ReplayOpts{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationPrefetch measures §7.3's disclosure-based prefetching on
// the real data path: a boot with think time over a cold cache, with and
// without a background prefetcher racing the guest to the base. The paper's
// preliminary result bounds the gain at the read-wait fraction.
func BenchmarkAblationPrefetch(b *testing.B) {
	prof := boot.CentOS.Scale(0.002)
	prof.UncontendedBoot = 300 * time.Millisecond // keep wall time modest
	w := boot.Generate(prof)
	disclosure := make([]core.Span, 0, len(w.Ops))
	for _, s := range w.ReadSpans() {
		disclosure = append(disclosure, core.Span{Off: s.Off, Len: s.Len})
	}

	run := func(b *testing.B, prefetch bool) time.Duration {
		b.Helper()
		src := slowPatternSource{boot.PatternSource{Seed: 6, N: prof.ImageSize}, 5 * time.Millisecond}
		cache, err := qcow.Create(backend.NewMemFile(), qcow.CreateOpts{
			Size: prof.ImageSize, ClusterBits: 9, BackingFile: "b", CacheQuota: prof.ImageSize,
		})
		if err != nil {
			b.Fatal(err)
		}
		cache.SetBacking(src)
		cow, err := qcow.Create(backend.NewMemFile(), qcow.CreateOpts{
			Size: prof.ImageSize, ClusterBits: 16, BackingFile: "c",
		})
		if err != nil {
			b.Fatal(err)
		}
		cow.SetBacking(cache)
		chain := &core.Chain{Images: []*qcow.Image{cow, cache}}
		var p *core.Prefetcher
		if prefetch {
			p = core.NewPrefetcher(chain, disclosure, 64<<10)
			p.Start()
		}
		start := time.Now()
		if _, err := boot.Replay(w, chain, boot.ReplayOpts{ThinkScale: 1}); err != nil {
			b.Fatal(err)
		}
		elapsed := time.Since(start)
		if p != nil {
			p.Stop()
		}
		return elapsed
	}

	for _, prefetch := range []bool{false, true} {
		prefetch := prefetch
		name := "off"
		if prefetch {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			var boot time.Duration
			for i := 0; i < b.N; i++ {
				boot = run(b, prefetch)
			}
			b.ReportMetric(boot.Seconds(), "boot-s")
		})
	}
}

// BenchmarkProfileWarm measures profile-guided prewarming end to end against
// a latency-bearing base. The timed quantity is the FIRST boot of the guest
// the profile models:
//
//   - demand:          cold cache, every miss pays a base round trip
//   - full-prewarm:    whole image warmed up front (the paper's warm cache)
//   - profile-prewarm: only the profile's coalesced read plan warmed, through
//     core.Warm (the chain's top is a CoW image, so Warm reads the plan
//     through it: the cache below fills by copy-on-read, one backing read
//     per run)
//
// The acceptance claim is that profile-prewarm boots within 10% of
// full-prewarm — the plan covers the boot's read set — while fetching a
// small fraction of the image (reported as prewarm-MB).
func BenchmarkProfileWarm(b *testing.B) {
	prof := boot.Debian.Scale(benchScale)
	w := boot.Generate(prof)
	plan := w.PrefetchPlan(256<<10, 4<<20)
	spans := make([]core.Span, 0, len(plan))
	var planBytes int64
	for _, e := range plan {
		if e.Off+e.Len > prof.ImageSize {
			e.Len = prof.ImageSize - e.Off
		}
		if e.Len > 0 {
			spans = append(spans, core.Span{Off: e.Off, Len: e.Len})
			planBytes += e.Len
		}
	}

	mkChain := func(b *testing.B) *core.Chain {
		b.Helper()
		src := slowPatternSource{boot.PatternSource{Seed: 9, N: prof.ImageSize}, time.Millisecond}
		cache, err := qcow.Create(backend.NewMemFile(), qcow.CreateOpts{
			Size: prof.ImageSize, ClusterBits: 9, BackingFile: "b",
			CacheQuota: 2 * prof.ImageSize,
		})
		if err != nil {
			b.Fatal(err)
		}
		cache.SetBacking(src)
		cow, err := qcow.Create(backend.NewMemFile(), qcow.CreateOpts{
			Size: prof.ImageSize, ClusterBits: 16, BackingFile: "c",
		})
		if err != nil {
			b.Fatal(err)
		}
		cow.SetBacking(cache)
		return &core.Chain{Images: []*qcow.Image{cow, cache}}
	}
	fullSpans := func() []core.Span {
		const step = 1 << 20
		var out []core.Span
		for off := int64(0); off < prof.ImageSize; off += step {
			n := int64(step)
			if prof.ImageSize-off < n {
				n = prof.ImageSize - off
			}
			out = append(out, core.Span{Off: off, Len: n})
		}
		return out
	}

	b.Run("first-boot-demand", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			chain := mkChain(b)
			b.StartTimer()
			if _, err := boot.Replay(w, chain, boot.ReplayOpts{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The prewarmed variants time repeated boots of one warmed chain: the
	// first (untimed) replay also absorbs the boot's own CoW write fills, so
	// timed iterations measure the steady warm data path. A ballast sized to
	// the image equalises the live heap across variants — MemFile keeps the
	// fully-prewarmed cache resident, which would otherwise inflate the GC
	// target for that variant only and skew the comparison by GC frequency
	// rather than data-path cost.
	bootWarmed := func(b *testing.B, warm func(*testing.B, *core.Chain) int64) {
		b.Helper()
		ballast := make([]byte, prof.ImageSize)
		chain := mkChain(b)
		warmed := warm(b, chain)
		if _, err := boot.Replay(w, chain, boot.ReplayOpts{}); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := boot.Replay(w, chain, boot.ReplayOpts{}); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(warmed)/1e6, "prewarm-MB")
		runtime.KeepAlive(ballast)
	}
	b.Run("first-boot-full-prewarm", func(b *testing.B) {
		bootWarmed(b, func(b *testing.B, c *core.Chain) int64 {
			n, err := core.Warm(c, fullSpans())
			if err != nil {
				b.Fatal(err)
			}
			return n
		})
	})
	b.Run("first-boot-profile-prewarm", func(b *testing.B) {
		bootWarmed(b, func(b *testing.B, c *core.Chain) int64 {
			n, err := core.Warm(c, spans)
			if err != nil {
				b.Fatal(err)
			}
			return n
		})
	})
	// The prewarm pass itself: what the node pays before the guest starts.
	b.Run("prewarm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			chain := mkChain(b)
			b.StartTimer()
			if _, err := core.Warm(chain, spans); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(planBytes)/1e6, "plan-MB")
	})
}

// slowPatternSource adds a per-read delay to a pattern source (remote base
// stand-in for the prefetch ablation).
type slowPatternSource struct {
	boot.PatternSource
	delay time.Duration
}

func (s slowPatternSource) ReadAt(p []byte, off int64) (int, error) {
	time.Sleep(s.delay)
	return s.PatternSource.ReadAt(p, off)
}

// BenchmarkAblationDedupCompress measures the §8 future-work extensions on
// warm cache images of related VMIs: content-addressed deduplication across
// a cache pool, and compressed cache transfer (the Fig. 13 wire cost).
func BenchmarkAblationDedupCompress(b *testing.B) {
	const (
		imageSize = 8 << 20
		nVMIs     = 8
	)
	// Build warm caches for nVMIs images derived from one distro: 7/8 of
	// each image's content is shared, 1/8 is per-VMI.
	buildCache := func(vmi int64) *backend.MemFile {
		shared := boot.PatternSource{Seed: 1000, N: imageSize}
		private := boot.PatternSource{Seed: 2000 + vmi, N: imageSize}
		content := overlaySource{shared, private, imageSize * 7 / 8}
		f := backend.NewMemFile()
		img, err := qcow.Create(backend.NopClose(f), qcow.CreateOpts{
			Size: imageSize, ClusterBits: 9, BackingFile: "b", CacheQuota: imageSize,
		})
		if err != nil {
			b.Fatal(err)
		}
		img.SetBacking(content)
		buf := make([]byte, 64<<10)
		// Same boot read set for every derived VMI.
		for off := int64(0); off < 2<<20; off += int64(len(buf)) {
			if err := backend.ReadFull(img, buf, off); err != nil {
				b.Fatal(err)
			}
		}
		if err := img.Close(); err != nil {
			b.Fatal(err)
		}
		return f
	}

	b.Run("dedup-pool", func(b *testing.B) {
		var savings float64
		for i := 0; i < b.N; i++ {
			// Content-defined chunking across the pool: logical bytes vs
			// bytes a content-addressed store would actually hold.
			seen := make(map[dedup.Key]int64)
			var logical, unique int64
			for v := int64(0); v < nVMIs; v++ {
				f := buildCache(v)
				size, err := f.Size()
				if err != nil {
					b.Fatal(err)
				}
				_, err = dedup.Build(f, size, func(e dedup.Entry, raw []byte) error {
					logical += int64(e.Len)
					if _, ok := seen[e.Hash]; !ok {
						seen[e.Hash] = int64(e.Len)
						unique += int64(e.Len)
					}
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			savings = float64(logical-unique) / float64(logical)
		}
		b.ReportMetric(savings, "dedup-savings")
	})

	b.Run("compressed-transfer", func(b *testing.B) {
		src := backend.NewMemStore()
		f := buildCache(0)
		size, _ := f.Size()
		buf := make([]byte, size)
		if err := backend.ReadFull(f, buf, 0); err != nil {
			b.Fatal(err)
		}
		out, _ := src.Create("cache")
		if err := backend.WriteFull(out, buf, 0); err != nil {
			b.Fatal(err)
		}
		var ratio float64
		for i := 0; i < b.N; i++ {
			dst := backend.NewMemStore()
			raw, wire, err := dedup.TransferCompressed(dst, "cache", src, "cache")
			if err != nil {
				b.Fatal(err)
			}
			ratio = float64(wire) / float64(raw)
		}
		b.ReportMetric(ratio, "wire-ratio")
	})
}

// overlaySource serves shared content below split and private content above
// it — VMIs derived from the same OS distribution (§7.3). Bytes are folded
// into a small alphabet so the content has OS-file-like compressibility.
type overlaySource struct {
	shared  boot.PatternSource
	private boot.PatternSource
	split   int64
}

func (o overlaySource) ReadAt(p []byte, off int64) (int, error) {
	done := 0
	for done < len(p) {
		pos := off + int64(done)
		src := o.shared
		end := o.split
		if pos >= o.split {
			src = o.private
			end = o.shared.N
		}
		want := len(p) - done
		if avail := end - pos; int64(want) > avail {
			want = int(avail)
		}
		if _, err := src.ReadAt(p[done:done+want], pos); err != nil {
			return done, err
		}
		done += want
	}
	// Low-entropy fold: text-like bytes compress like OS files do.
	for i := range p {
		p[i] = 'A' + p[i]&0x0f
	}
	return len(p), nil
}

func (o overlaySource) Size() int64 { return o.shared.N }

// BenchmarkExtensionMixedWarmCold measures the mixed warm/cold scenario
// §5.3.1 discusses qualitatively: cold nodes boot faster as the warm
// fraction grows, because warm nodes stop competing for the link.
func BenchmarkExtensionMixedWarmCold(b *testing.B) {
	for _, pct := range []int{25, 75} {
		pct := pct
		b.Run(fmt.Sprintf("warm-%d%%", pct), func(b *testing.B) {
			var r *cluster.Result
			for i := 0; i < b.N; i++ {
				r = mustRunB(b, cluster.Params{
					Network: cluster.NetGbE, Nodes: 64, VMIs: 1,
					Mode: cluster.ModeWarmCache, Placement: cluster.PlaceComputeDisk,
					WarmFraction: float64(pct) / 100,
				})
			}
			reportBoot(b, "mixed", r)
		})
	}
}

// BenchmarkExtensionCloudSim measures the whole-cloud integration: two
// simulated hours of Poisson arrivals under the three provisioning schemes.
func BenchmarkExtensionCloudSim(b *testing.B) {
	for _, cfg := range []struct {
		name   string
		scheme cloudsim.Scheme
		aware  bool
	}{
		{"qcow2", cloudsim.SchemeQCOW2, false},
		{"caches-oblivious", cloudsim.SchemeVMICache, false},
		{"caches-aware", cloudsim.SchemeVMICache, true},
	} {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			var r *cloudsim.Result
			for i := 0; i < b.N; i++ {
				var err error
				r, err = cloudsim.Run(cloudsim.Params{
					Seed: 1, Nodes: 32, NodeCPU: 8, NodeMem: 24 << 30,
					NodeCache: 1 << 30, StorageMem: 16 << 30,
					Rate: 1, VMIs: 48, ZipfS: 1.3,
					MeanLifetime: 10 * time.Minute, Duration: 2 * time.Hour,
					VMCPU: 1, VMMem: 2 << 30,
					Scheme: cfg.scheme, Policy: sched.Striping, CacheAware: cfg.aware,
					Profile: boot.CentOS,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(r.Boots.Mean(), "mean-boot-s")
			b.ReportMetric(r.Boots.Quantile(0.95), "p95-boot-s")
		})
	}
}

// BenchmarkExtensionSnapshotRestore measures §8's final future-work item:
// the caching scheme applied to VM memory snapshots (64 restores, 32
// distinct snapshots, IB).
func BenchmarkExtensionSnapshotRestore(b *testing.B) {
	scale := benchScale // shed const-ness for the conversion
	restore := boot.CentOS.Scale(benchScale).RestoreProfile(int64(2 << 30 * scale))
	for _, cfg := range []struct {
		name string
		mode cluster.Mode
	}{
		{"warm", cluster.ModeWarmCache},
		{"on-demand", cluster.ModeQCOW2},
	} {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			var r *cluster.Result
			for i := 0; i < b.N; i++ {
				r = mustRunB(b, cluster.Params{
					Network: cluster.NetIB, Nodes: 64, VMIs: 32,
					Mode: cfg.mode, Placement: cluster.PlaceComputeDisk,
					Profile: restore,
				})
			}
			reportBoot(b, "restore", r)
		})
	}
}

// BenchmarkSwarmFlashCrowd measures the swarm extension's headline property
// end to end over real TCP: 8 nodes cold-warm one 1 MiB image concurrently,
// each fetching chunk-wise from the others while still warming itself.
// storage-node-MB is the decisive metric — it should stay near one copy of
// the image regardless of crowd size — and amplification is that traffic
// over the single-node warming cost. CI gates storage-node-MB against the
// committed baseline with a wide tolerance: the regression it exists to
// catch (swarm collapse, everyone falling back to storage) inflates it by
// the crowd size, far beyond scheduling noise.
func BenchmarkSwarmFlashCrowd(b *testing.B) {
	var storage, single float64
	for i := 0; i < b.N; i++ {
		r, err := cluster.RunSwarm(cluster.SwarmParams{
			Nodes: 8, ImageSize: 1 << 20, Seed: 20130703,
		})
		if err != nil {
			b.Fatal(err)
		}
		storage += float64(r.StorageBytes)
		single += float64(r.SingleCopyBytes)
	}
	b.ReportMetric(storage/float64(b.N)/1e6, "storage-node-MB")
	b.ReportMetric(storage/single, "amplification")
}

// BenchmarkDedupManifestBuild measures the content-defined chunking rate
// through the parallel pipeline at 4 workers: how fast a published cache
// file can be hashed into a chunk manifest. This is the fixed CPU cost
// dedup adds to every publication; the CI gate tracks its MB/s.
func BenchmarkDedupManifestBuild(b *testing.B) {
	benchManifestBuild(b, 4)
}

// BenchmarkDedupManifestBuildSerial is the single-threaded reference the
// parallel number is judged against.
func BenchmarkDedupManifestBuildSerial(b *testing.B) {
	benchManifestBuild(b, 1)
}

func benchManifestBuild(b *testing.B, workers int) {
	const size = int64(8 << 20)
	data := make([]byte, size)
	rand.New(rand.NewSource(20130703)).Read(data) //nolint:errcheck // never fails
	r := bytes.NewReader(data)
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		man, err := dedup.BuildParallel(r, size, dedup.BuildOpts{Workers: workers}, nil)
		if err != nil {
			b.Fatal(err)
		}
		if man.Length != size {
			b.Fatalf("manifest covers %d of %d bytes", man.Length, size)
		}
	}
}

// BenchmarkDedupMaterialize measures the read side of the pipeline: how
// fast a manifest's chunks decode, verify, and reassemble into an image —
// the rehydration cost a cache eviction later pays back.
func BenchmarkDedupMaterialize(b *testing.B) {
	const size = int64(8 << 20)
	data := make([]byte, size)
	rand.New(rand.NewSource(20130703)).Read(data) //nolint:errcheck // never fails
	s, err := dedup.OpenBlobStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	var held []dedup.Key
	man, err := dedup.BuildParallel(bytes.NewReader(data), size,
		dedup.BuildOpts{Workers: 4, Compress: true},
		func(e dedup.Entry, raw, comp []byte) error {
			if err := s.PutBuilt(e.Hash, comp, int64(e.Len)); err != nil {
				return err
			}
			held = append(held, e.Hash)
			return nil
		})
	if err != nil {
		b.Fatal(err)
	}
	if err := s.Commit("img", man); err != nil {
		b.Fatal(err)
	}
	s.Release(held)
	out := backend.NewMemFileSize(size)
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := dedup.Materialize(out, man, s, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDedupDeltaTransfer runs the two-node sibling-image experiment and
// reports how many bytes the manifest-first warm moved for the v2 image next
// to the true inter-image delta. delta-wire-MB is the CI-gated headline: it
// must not grow, or delta transfers have stopped being delta-sized.
func BenchmarkDedupDeltaTransfer(b *testing.B) {
	var wire, trueDelta, one, sibling float64
	for i := 0; i < b.N; i++ {
		r, err := cluster.RunDedup(cluster.DedupParams{ImageSize: 2 << 20, Seed: 20130703})
		if err != nil {
			b.Fatal(err)
		}
		wire += float64(r.DeltaWire)
		trueDelta += float64(r.TrueDelta)
		one += float64(r.OneCacheUnique)
		sibling += float64(r.SiblingUnique)
	}
	b.ReportMetric(wire/float64(b.N)/1e6, "delta-wire-MB")
	b.ReportMetric(wire/trueDelta, "delta-amplification")
	b.ReportMetric(sibling/one, "sibling-footprint-x")
}
