// Command tracestat analyses block traces captured by `vmiboot -trace`:
// working-set size (Table 1's metric), request-size and inter-offset
// distributions, and a sequentiality estimate — the measurements §2.3 bases
// the whole cache-sizing argument on.
//
// With -replay the trace is additionally executed against an in-memory
// base <- cache <- CoW chain (-j concurrent goroutines) and the data-path
// counters are printed: copy-on-read fills, backing traffic, and the L2
// table-cache hit/miss ratio of each image.
//
// Usage:
//
//	tracestat [-replay [-j N] [-cluster-bits B] [-quota BYTES] [-metrics]]
//	          FILE [FILE...]
package main

import (
	"flag"
	"fmt"
	"os"
	"sync"
	"sync/atomic"

	"vmicache/internal/backend"
	"vmicache/internal/boot"
	"vmicache/internal/metrics"
	"vmicache/internal/qcow"
	"vmicache/internal/trace"
)

func main() {
	fs := flag.NewFlagSet("tracestat", flag.ExitOnError)
	replay := fs.Bool("replay", false, "replay the trace against a base<-cache<-CoW chain and print data-path stats")
	jobs := fs.Int("j", 1, "concurrent replay goroutines")
	clusterBits := fs.Int("cluster-bits", 9, "cache image cluster size (bits) for -replay")
	quota := fs.Int64("quota", 0, "cache quota in bytes for -replay (0 = image size)")
	showMetrics := fs.Bool("metrics", false, "with -replay, print the chain's registry snapshot (Prometheus text)")
	fs.Parse(os.Args[1:]) //nolint:errcheck // ExitOnError
	if fs.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: tracestat [-replay] FILE [FILE...]")
		os.Exit(2)
	}
	for _, path := range fs.Args() {
		if err := statOne(path); err != nil {
			fmt.Fprintf(os.Stderr, "tracestat %s: %v\n", path, err)
			os.Exit(1)
		}
		if *replay {
			if err := replayOne(path, *jobs, *clusterBits, *quota, *showMetrics); err != nil {
				fmt.Fprintf(os.Stderr, "tracestat -replay %s: %v\n", path, err)
				os.Exit(1)
			}
		}
	}
}

func statOne(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close() //nolint:errcheck // read-only
	tr, err := trace.Load(f)
	if err != nil {
		return err
	}
	ws := trace.Analyze(tr)

	var readSizes, gaps metrics.Histogram
	var seqBytes int64
	var lastEnd int64 = -1
	for _, r := range tr.Records {
		if r.Op != trace.OpRead {
			continue
		}
		readSizes.Add(float64(r.Length))
		if lastEnd >= 0 {
			gap := r.Offset - lastEnd
			if gap < 0 {
				gap = -gap
			}
			gaps.Add(float64(gap))
			if r.Offset == lastEnd {
				seqBytes += r.Length
			}
		}
		lastEnd = r.Offset + r.Length
	}

	fmt.Printf("== %s ==\n", path)
	fmt.Printf("records: %d (%d reads, %d writes, %d flushes)\n",
		tr.Len(), ws.ReadOps, ws.WriteOps, ws.FlushOps)
	fmt.Printf("unique read working set: %.1f MB in %d disjoint regions (Table 1 metric)\n",
		float64(ws.UniqueReadBytes)/1e6, ws.ReadIntervals)
	fmt.Printf("total reads:  %.1f MB (reread factor %.2f)\n",
		float64(ws.TotalReadBytes)/1e6,
		float64(ws.TotalReadBytes)/float64(maxI64(ws.UniqueReadBytes, 1)))
	fmt.Printf("total writes: %.1f MB (%.1f MB unique)\n",
		float64(ws.TotalWriteBytes)/1e6, float64(ws.UniqueWriteBytes)/1e6)
	if ws.ReadOps > 0 {
		fmt.Printf("mean read: %.1f KiB, ~p50 <= %.0f KiB, ~p95 <= %.0f KiB\n",
			readSizes.Mean()/1024, readSizes.ApproxQuantile(0.5)/1024, readSizes.ApproxQuantile(0.95)/1024)
		fmt.Printf("sequential continuation: %.0f%% of read bytes\n",
			100*float64(seqBytes)/float64(ws.TotalReadBytes))
	}
	fmt.Printf("\nread size distribution (bytes):\n%s\n", readSizes.String())
	return nil
}

// replayOne executes the trace against a synthetic base <- cache <- CoW
// chain with `jobs` goroutines and prints the resulting data-path counters.
func replayOne(path string, jobs, clusterBits int, quota int64, showMetrics bool) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close() //nolint:errcheck // read-only
	tr, err := trace.Load(f)
	if err != nil {
		return err
	}
	var extent int64
	for _, r := range tr.Records {
		if end := r.Offset + r.Length; end > extent {
			extent = end
		}
	}
	// Round the image up to a whole 64 KiB CoW cluster.
	extent = (extent + (64 << 10) - 1) &^ ((64 << 10) - 1)
	if extent == 0 {
		return fmt.Errorf("trace touches no blocks")
	}
	if quota <= 0 {
		quota = extent
	}
	if jobs < 1 {
		jobs = 1
	}

	src := boot.PatternSource{Seed: 1, N: extent}
	cache, err := qcow.Create(backend.NewMemFile(), qcow.CreateOpts{
		Size: extent, ClusterBits: clusterBits, BackingFile: "base", CacheQuota: quota,
	})
	if err != nil {
		return err
	}
	cache.SetBacking(src)
	cow, err := qcow.Create(backend.NewMemFile(), qcow.CreateOpts{
		Size: extent, ClusterBits: 16, BackingFile: "cache",
	})
	if err != nil {
		return err
	}
	cow.SetBacking(cache)

	var next atomic.Int64
	errs := make(chan error, jobs)
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []byte
			for {
				i := next.Add(1) - 1
				if i >= int64(tr.Len()) {
					return
				}
				r := tr.Records[i]
				if int64(len(buf)) < r.Length {
					buf = make([]byte, r.Length)
				}
				var err error
				switch r.Op {
				case trace.OpRead:
					_, err = cow.ReadAt(buf[:r.Length], r.Offset)
				case trace.OpWrite:
					_, err = cow.WriteAt(buf[:r.Length], r.Offset)
				case trace.OpFlush:
					err = cow.Sync()
				}
				if err != nil {
					select {
					case errs <- fmt.Errorf("record %d (%s off=%d len=%d): %w",
						i, r.Op, r.Offset, r.Length, err):
					default:
					}
					return
				}
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errs:
		return err
	default:
	}

	cs, ws := cache.Stats(), cow.Stats()
	fmt.Printf("replay (%d goroutines, %d B clusters, quota %.1f MB):\n",
		jobs, int64(1)<<clusterBits, float64(quota)/1e6)
	fmt.Printf("  cache fills:    %d ops, %.1f MB (cache full: %v, %d refusals)\n",
		cs.CacheFillOps.Load(), float64(cs.CacheFillBytes.Load())/1e6,
		cache.CacheFull(), cs.CacheFullEvents.Load())
	fmt.Printf("  base traffic:   %.1f MB in %d reads\n",
		float64(cs.BackingBytes.Load())/1e6, cs.BackingReadOps.Load())
	fmt.Printf("  cache served:   %.1f MB locally, used %.1f MB physical\n",
		float64(cs.LocalBytes.Load())/1e6, float64(cache.UsedBytes())/1e6)
	fmt.Printf("  l2 cache:       cache hits=%d misses=%d, cow hits=%d misses=%d\n",
		cs.L2CacheHits.Load(), cs.L2CacheMisses.Load(),
		ws.L2CacheHits.Load(), ws.L2CacheMisses.Load())
	if showMetrics {
		reg := metrics.NewRegistry()
		cache.RegisterMetrics(reg, metrics.Labels{"image": "cache"})
		cow.RegisterMetrics(reg, metrics.Labels{"image": "cow"})
		if _, err := reg.WritePrometheus(os.Stdout); err != nil {
			return err
		}
	}
	fmt.Println()
	if err := cow.Close(); err != nil {
		return err
	}
	return cache.Close()
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
