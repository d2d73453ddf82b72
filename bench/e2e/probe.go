package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"vmicache/internal/backend"
	"vmicache/internal/core"
	"vmicache/internal/dedup"
	"vmicache/internal/metrics"
	"vmicache/internal/nbd"
	"vmicache/internal/qcow"
	"vmicache/internal/rblock"
)

// The probe loop prices one warm read at each nesting level of the stack, on
// the cache peer A published: backend pread of the container →
// qcow.Image.ReadAt → core.Chain.ReadAt through a CoW top → the same container
// over A's rblock export → nbd.Client.ReadAt. Each layer's cost is the
// difference from the level beneath it. Counts are fixed, not timed, so both
// commits of a comparison do the same work; every number is a median of
// individually timed calls.
const (
	kib4  = 4 << 10
	kib64 = 64 << 10
	mib1  = 1 << 20

	// qcowBigRead is the largest single read the published cache can serve
	// warm: the boot working set has no valid run longer than ~390 KB, so
	// qcow.read_1m_us is four of these back to back.
	qcowBigRead = 256 << 10
)

func (c *config) probeCount(n int) int {
	if c.quick {
		return max(n/50, 4)
	}
	return n
}

// timeCalls runs fn n times over the offsets in rotation and returns each
// call's duration in microseconds; no offsets (the quick base's cache is
// smaller than the largest read) means no samples and a metric left at 0.
func timeCalls(n int, offs []int64, fn func(off int64) error) ([]float64, error) {
	if len(offs) == 0 {
		return nil, nil
	}
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := fn(offs[i%len(offs)]); err != nil {
			return nil, err
		}
		out = append(out, float64(time.Since(start))/1e3)
	}
	return out, nil
}

// fileOffsets spreads aligned reads of size over a container of fileSize.
func fileOffsets(fileSize, size int64) []int64 {
	var offs []int64
	for off := int64(0); off+size <= fileSize && len(offs) < 256; off += size {
		offs = append(offs, off)
	}
	return offs
}

// validOffsets returns virtual offsets at which the published cache holds
// size bytes itself, taken from the boot plan the cache was warmed with.
func (r *run) validOffsets(img *qcow.Image, size int64) []int64 {
	plan := r.guest.PrefetchPlan(profilePlanGap, profilePlanMaxLen)
	sort.Slice(plan, func(i, j int) bool { return plan[i].Off < plan[j].Off })
	var offs []int64
	for _, e := range plan {
		for off := e.Off; off+size <= e.Off+e.Len && len(offs) < 256; off += size {
			if img.RangeLocallyValid(off, size) {
				offs = append(offs, off)
			}
		}
	}
	return offs
}

// The coalescing knobs of cachemgr's profile-guided warm plan (warm.go).
const (
	profilePlanGap    = 256 << 10
	profilePlanMaxLen = 4 << 20
)

func readFull(r io.ReaderAt, buf []byte) func(off int64) error {
	return func(off int64) error { return backend.ReadFull(r, buf, off) }
}

// probe fills in the probe-derived per-layer metrics.
func (r *run) probe(out map[string]float64) error {
	if r.peer == nil {
		if err := r.startPeer(); err != nil {
			return err
		}
	}
	peerDir := filepath.Join(r.dir, "peer")
	matches, err := filepath.Glob(filepath.Join(peerDir, v1Name+"-*.vmic"))
	if err != nil || len(matches) != 1 {
		return fmt.Errorf("probe: want one published v1 cache in %s, found %v (%v)", peerDir, matches, err)
	}
	path, key := matches[0], filepath.Base(matches[0])
	buf := make([]byte, mib1)
	cfg := r.cfg

	// Level 0: backend pread of the container.
	osf, err := backend.OpenOSFile(path, true)
	if err != nil {
		return err
	}
	defer osf.Close() //nolint:errcheck // read-only handle
	fileSize, err := osf.Size()
	if err != nil {
		return err
	}
	sizes := []struct {
		name string
		n    int64
		reps int
	}{{"4k", kib4, cfg.probeCount(2000)}, {"64k", kib64, cfg.probeCount(500)}, {"1m", mib1, cfg.probeCount(100)}}
	for _, s := range sizes {
		us, err := timeCalls(s.reps, fileOffsets(fileSize, s.n), readFull(osf, buf[:s.n]))
		if err != nil {
			return fmt.Errorf("probe backend.pread_%s: %w", s.name, err)
		}
		out["backend.pread_"+s.name+"_us"] = median(us)
	}

	// Level 1: qcow.Image.ReadAt on the published cache, opened the way an
	// attach opens it; plus what opening and checking it cost.
	var openMs, checkMs []float64
	for i := 0; i < cfg.probeCount(50); i++ {
		f, err := backend.OpenOSFile(path, true)
		if err != nil {
			return err
		}
		start := time.Now()
		img, err := qcow.Open(f, qcow.OpenOpts{ReadOnly: true})
		if err != nil {
			f.Close() //nolint:errcheck // already failing
			return fmt.Errorf("probe qcow.open: %w", err)
		}
		openMs = append(openMs, float64(time.Since(start))/1e6)
		if i%10 == 0 {
			start = time.Now()
			if res, err := img.Check(); err != nil || !res.OK() {
				return fmt.Errorf("probe qcow.check: %v %v", err, res)
			}
			checkMs = append(checkMs, float64(time.Since(start))/1e6)
		}
		img.Close() //nolint:errcheck // read-only handle
	}
	out["qcow.open_ms"], out["qcow.check_ms"] = median(openMs), median(checkMs)

	cf, err := backend.OpenOSFile(path, true)
	if err != nil {
		return err
	}
	img, err := qcow.Open(cf, qcow.OpenOpts{ReadOnly: true})
	if err != nil {
		cf.Close() //nolint:errcheck // already failing
		return err
	}
	defer img.Close() //nolint:errcheck // read-only handle
	offs4, offs64, offsBig := r.validOffsets(img, kib4), r.validOffsets(img, kib64), r.validOffsets(img, qcowBigRead)
	if len(offs4) == 0 || len(offs64) == 0 {
		return fmt.Errorf("probe: published cache %s holds no warm 64 KiB range", key)
	}
	for _, s := range []struct {
		name string
		n    int64
		offs []int64
		reps int
	}{{"4k", kib4, offs4, sizes[0].reps}, {"64k", kib64, offs64, sizes[1].reps}} {
		us, err := timeCalls(s.reps, s.offs, readFull(img, buf[:s.n]))
		if err != nil {
			return fmt.Errorf("probe qcow.read_%s: %w", s.name, err)
		}
		out["qcow.read_"+s.name+"_us"] = median(us)
	}
	us, err := timeCalls(4*sizes[2].reps, offsBig, readFull(img, buf[:qcowBigRead]))
	if err != nil {
		return fmt.Errorf("probe qcow.read_1m: %w", err)
	}
	out["qcow.read_1m_us"] = 4 * median(us)
	out["qcow.translate_4k_us"] = out["qcow.read_4k_us"] - out["backend.pread_4k_us"]

	// Level 2: core.Chain.ReadAt through a CoW top, the chain a session
	// holds; opening it re-opens the base over rblock.
	peerStore, err := backend.NewDirStore(peerDir)
	if err != nil {
		return err
	}
	scratch := backend.NewMemStore()
	ns := core.NewNamespace("nodecache", peerStore)
	ns.Register("storage", rblock.RemoteStore{C: r.client})
	ns.Register("scratch", scratch)
	cacheLoc := core.Locator{Store: "nodecache", Name: key}
	var chain *core.Chain
	var openChainMs []float64
	for i := 0; i < cfg.probeCount(50); i++ {
		if chain != nil {
			chain.Close() //nolint:errcheck // probe chain
		}
		cow := core.Locator{Store: "scratch", Name: fmt.Sprintf("probe-%d.cow", i)}
		if err := core.CreateCoW(ns, cow, cacheLoc, img.Size(), 0); err != nil {
			return fmt.Errorf("probe core.open_chain: %w", err)
		}
		start := time.Now()
		if chain, err = core.OpenChain(ns, cow, core.ChainOpts{BackingReadOnly: true}); err != nil {
			return fmt.Errorf("probe core.open_chain: %w", err)
		}
		openChainMs = append(openChainMs, float64(time.Since(start))/1e6)
	}
	defer chain.Close() //nolint:errcheck // probe chain
	out["core.open_chain_p50_ms"] = median(openChainMs)
	us, err = timeCalls(sizes[0].reps, offs4, readFull(chain, buf[:kib4]))
	if err != nil {
		return fmt.Errorf("probe core.chain_read_4k: %w", err)
	}
	out["core.chain_read_4k_us"] = median(us)

	// Level 3: the same container through A's rblock export (read-only
	// published file: sendfile replies, 1 MiB jumbo segments).
	var dialUs []float64
	var pc *rblock.Client
	var rf *rblock.RemoteFile
	for i := 0; i < cfg.probeCount(50); i++ {
		if pc != nil {
			pc.Close() //nolint:errcheck // probe connection
		}
		start := time.Now()
		if pc, err = rblock.Dial(r.peer.addr, 0); err != nil {
			return fmt.Errorf("probe rblock.dial: %w", err)
		}
		if rf, err = pc.Open(key, true); err != nil {
			pc.Close() //nolint:errcheck // already failing
			return fmt.Errorf("probe rblock.open: %w", err)
		}
		dialUs = append(dialUs, float64(time.Since(start))/1e3)
	}
	defer pc.Close() //nolint:errcheck // probe connection
	out["rblock.dial_open_us"] = median(dialUs)
	for _, s := range sizes {
		us, err := timeCalls(s.reps, fileOffsets(fileSize, s.n), readFull(rf, buf[:s.n]))
		if err != nil {
			return fmt.Errorf("probe rblock.read_%s: %w", s.name, err)
		}
		out["rblock.read_"+s.name+"_us"] = median(us)
	}
	if us := out["rblock.read_1m_us"]; us > 0 {
		out["rblock.read_1m_mb_per_s"] = float64(mib1) / us
	}
	out["rblock.wire_4k_us"] = out["rblock.read_4k_us"] - out["backend.pread_4k_us"]

	// Level 4: nbd.Client.ReadAt against an in-process server exporting
	// the chain, the hypervisor's view.
	srv := nbd.NewServer(nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Close() //nolint:errcheck // probe server
	srv.AddExport(nbd.Export{Name: "probe", Device: chain})
	var dialMs []float64
	var nc *nbd.Client
	for i := 0; i < cfg.probeCount(50); i++ {
		if nc != nil {
			nc.Close() //nolint:errcheck // probe connection
		}
		start := time.Now()
		if nc, err = nbd.Dial(addr, "probe"); err != nil {
			return fmt.Errorf("probe nbd.dial: %w", err)
		}
		dialMs = append(dialMs, float64(time.Since(start))/1e6)
	}
	defer nc.Close() //nolint:errcheck // probe connection
	out["nbd.dial_ms"] = median(dialMs)
	for _, s := range []struct {
		name string
		n    int64
		offs []int64
		reps int
	}{{"4k", kib4, offs4, sizes[0].reps}, {"64k", kib64, offs64, sizes[1].reps}} {
		us, err := timeCalls(s.reps, s.offs, readFull(nc, buf[:s.n]))
		if err != nil {
			return fmt.Errorf("probe nbd.read_%s: %w", s.name, err)
		}
		out["nbd.read_"+s.name+"_us"] = median(us)
	}
	out["nbd.wire_4k_us"] = out["nbd.read_4k_us"] - out["core.chain_read_4k_us"]

	return r.probeDedup(osf, fileSize, out)
}

// probeDedup times the two ends of the dedup pipeline on the published
// container, as publication and materialization call them.
func (r *run) probeDedup(container *backend.OSFile, size int64, out map[string]float64) error {
	workers := runtime.GOMAXPROCS(0)
	var buildS, matS []float64
	reps := 3
	if r.cfg.quick {
		reps = 1
	}
	for i := 0; i < reps; i++ {
		dir := filepath.Join(r.dir, fmt.Sprintf("probe-dedup-%d", i))
		store, err := dedup.OpenBlobStore(filepath.Join(dir, "dedup"))
		if err != nil {
			return err
		}
		var held []dedup.Key
		start := time.Now()
		man, err := dedup.BuildParallel(container, size, dedup.BuildOpts{Workers: workers, Compress: true},
			func(e dedup.Entry, _, comp []byte) error {
				held = append(held, e.Hash)
				return store.PutBuilt(e.Hash, comp, int64(e.Len))
			})
		if err != nil {
			return fmt.Errorf("probe dedup.build: %w", err)
		}
		buildS = append(buildS, time.Since(start).Seconds())

		f, err := backend.CreateOSFile(filepath.Join(dir, "materialized"))
		if err != nil {
			return err
		}
		start = time.Now()
		err = dedup.Materialize(f, man, store, workers)
		matS = append(matS, time.Since(start).Seconds())
		f.Close() //nolint:errcheck // scratch copy
		store.Release(held)
		if err != nil {
			return fmt.Errorf("probe dedup.materialize: %w", err)
		}
		os.RemoveAll(dir) //nolint:errcheck // scratch
	}
	out["dedup.build_mb_per_s"] = float64(size) / 1e6 / median(buildS)
	out["dedup.materialize_mb_per_s"] = float64(size) / 1e6 / median(matS)
	return nil
}

// fillProbe replays cachemgr's copy-on-read warm through the same public
// functions (CreateCacheSub, OpenChain, Warm over the profile plan) on a
// chain the benchmark holds, because the warming chain inside Manager.Acquire
// is not reachable from outside: it returns those chains' qcow counters,
// summed over reps, and one warm's fill latencies.
func (r *run) fillProbe(reps int) (opCounts, metrics.HistogramSnapshot, error) {
	var counts opCounts
	var fills metrics.HistogramSnapshot
	size := r.cfg.baseSize()
	var spans []core.Span
	for _, e := range r.guest.PrefetchPlan(profilePlanGap, profilePlanMaxLen) {
		spans = append(spans, core.Span{Off: e.Off, Len: min(e.Len, size-e.Off)})
	}
	for i := 0; i < reps; i++ {
		dir := filepath.Join(r.dir, fmt.Sprintf("probe-fill-%d", i))
		store, err := backend.NewDirStore(dir)
		if err != nil {
			return counts, fills, err
		}
		ns := core.NewNamespace("nodecache", store)
		ns.Register("storage", rblock.RemoteStore{C: r.client})
		loc := core.Locator{Store: "nodecache", Name: "fill.tmp"}
		// Any quota that never trips the cache-full brake; cachemgr sizes
		// its own to the whole base plus metadata.
		quota := 2*size + qcow.MinCacheQuota(size, qcow.CacheClusterBits)
		err = core.CreateCacheSub(ns, loc, core.Locator{Store: "storage", Name: v1Name}, size, quota, qcow.CacheClusterBits, false)
		if err != nil {
			return counts, fills, fmt.Errorf("fill probe: %w", err)
		}
		chain, err := core.OpenChain(ns, loc, core.ChainOpts{})
		if err != nil {
			return counts, fills, fmt.Errorf("fill probe: %w", err)
		}
		if _, err := core.Warm(chain, spans); err != nil {
			chain.Close() //nolint:errcheck // already failing
			return counts, fills, fmt.Errorf("fill probe: %w", err)
		}
		counts.addChain(chain)
		fills = chain.CacheImage().Stats().FillLatency.Snapshot() // every rep does the same fills
		chain.Close()                                             //nolint:errcheck // scratch chain
		os.RemoveAll(dir)                                         //nolint:errcheck // scratch
	}
	return counts, fills, nil
}
