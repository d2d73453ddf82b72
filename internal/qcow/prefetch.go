package qcow

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"vmicache/internal/prefetch"
)

// Prefetcher drives background copy-on-read fills for a cache image from the
// adaptive readahead policy in internal/prefetch. ReadAt feeds every guest
// read to the detector; confirmed sequential streams yield bounded readahead
// requests that worker goroutines turn into ordinary singleflight fills via
// claimRun/leadFill — the same protocol guest misses use, so a prefetch and
// a concurrent guest miss on the same run still perform exactly one backing
// fetch between them.
//
// The engine obeys the image's lifecycle rules: workers register on
// img.readers like any lock-free data-path operation, go quiescent the
// moment the §4.3 space error trips (cacheFull), and are stopped by
// Image.Close after the closed flag flips but before the reader drain, so
// shutdown never races a background fill.
//
// Effectiveness is tracked per cluster: a prefetch-led fill marks the bound
// clusters in a bitmap; the first guest read of a marked cluster clears its
// bit and counts PrefetchHitBytes, and whatever is still marked when the
// prefetcher detaches counts PrefetchWastedBytes. The mark/clear path is a
// couple of word-sized atomics, keeping the warm-read hot path free of
// allocations and locks.
type Prefetcher struct {
	img    *Image
	det    *prefetch.Detector
	budget *prefetch.Budget
	reqs   chan prefetch.Req
	stop   chan struct{}
	wg     sync.WaitGroup
	once   sync.Once

	// marks holds one bit per virtual cluster: set when a prefetch-led
	// fill bound it, cleared by the first guest read that touches it.
	marks []atomic.Uint64

	// known holds one bit per virtual cluster that is known to be
	// allocated already. Cluster allocation is monotonic for the life of
	// an open image, so the bits are safe to set and test lock-free; a
	// stale (unset) bit only costs a redundant request. Saturated
	// sequential streams over warm regions are suppressed here with a
	// couple of word loads instead of waking a worker to rediscover the
	// allocation under the image lock.
	known []atomic.Uint64
}

// EnablePrefetch attaches an adaptive readahead engine to a writable cache
// image. Zero-value cfg fields take the package defaults. The returned
// Prefetcher is owned by the image: Image.Close stops it, and an explicit
// Close is only needed to detach early (e.g. to read the wasted-bytes
// counter before the image closes). Enabling twice is an error.
func (img *Image) EnablePrefetch(cfg prefetch.Config) (*Prefetcher, error) {
	if !img.isCache {
		return nil, ErrPrefetchNotCache
	}
	if img.ro {
		return nil, ErrReadOnly
	}
	cfg = cfg.WithDefaults()
	clusters := ceilDiv(int64(img.hdr.Size), img.ly.clusterSize)
	pf := &Prefetcher{
		img:    img,
		det:    prefetch.NewDetector(cfg),
		budget: prefetch.NewBudget(cfg.Budget),
		reqs:   make(chan prefetch.Req, cfg.QueueLen),
		stop:   make(chan struct{}),
		marks:  make([]atomic.Uint64, (clusters+63)/64),
		known:  make([]atomic.Uint64, (clusters+63)/64),
	}
	if !img.pf.CompareAndSwap(nil, pf) {
		return nil, ErrPrefetchEnabled
	}
	pf.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go pf.worker()
	}
	return pf, nil
}

// Close detaches the prefetcher: workers are stopped and drained, and every
// prefetched cluster never read by the guest is charged to
// PrefetchWastedBytes. Idempotent; also invoked by Image.Close.
func (pf *Prefetcher) Close() {
	pf.once.Do(func() {
		close(pf.stop)
		pf.wg.Wait()
		// Return reservations of requests that never reached a worker.
		for {
			select {
			case req := <-pf.reqs:
				pf.budget.Release(req.Len)
			default:
				pf.finishDetach()
				return
			}
		}
	})
}

func (pf *Prefetcher) finishDetach() {
	cs := pf.img.ly.clusterSize
	var wasted int64
	for i := range pf.marks {
		wasted += int64(bits.OnesCount64(pf.marks[i].Load()))
	}
	pf.img.stats.PrefetchWastedBytes.Add(wasted * cs)
	pf.img.pf.CompareAndSwap(pf, nil)
}

// InFlight reports the bytes of readahead currently queued or being filled.
func (pf *Prefetcher) InFlight() int64 { return pf.budget.InUse() }

// observe feeds one guest read to the detector and enqueues any resulting
// readahead. Called on the ReadAt hot path: it must not block or allocate.
func (pf *Prefetcher) observe(off, n int64) {
	req, ok := pf.det.Observe(off, n)
	if !ok {
		return
	}
	// Clamp to the virtual disk; streams at EOF stop issuing.
	if size := int64(pf.img.hdr.Size); req.Off+req.Len > size {
		if req.Off >= size {
			return
		}
		req.Len = size - req.Off
	}
	if pf.allKnown(req.Off, req.Len) {
		return
	}
	if !pf.budget.TryAcquire(req.Len) {
		pf.img.stats.PrefetchDropped.Add(1)
		return
	}
	select {
	case pf.reqs <- req:
	default:
		pf.budget.Release(req.Len)
		pf.img.stats.PrefetchDropped.Add(1)
	}
}

func (pf *Prefetcher) worker() {
	defer pf.wg.Done()
	for {
		select {
		case <-pf.stop:
			return
		case req := <-pf.reqs:
			if pf.det.Valid(req) {
				pf.run(req)
			} else {
				pf.img.stats.PrefetchCancelled.Add(1)
			}
			pf.budget.Release(req.Len)
		}
	}
}

// run fills the unallocated cluster runs of [req.Off, req.Off+req.Len)
// through the singleflight protocol. Runs already claimed by a guest miss
// (or another worker) are skipped, not waited on: the claimer's fetch is
// the one the readahead wanted to issue anyway.
func (pf *Prefetcher) run(req prefetch.Req) {
	img := pf.img
	if err := img.enterRead(); err != nil {
		return
	}
	defer img.readers.Done()
	cs := img.ly.clusterSize
	vc := req.Off / cs
	end := ceilDiv(req.Off+req.Len, cs)
	for vc < end {
		img.mu.RLock()
		if img.cacheFull || img.backing == nil {
			img.mu.RUnlock()
			return
		}
		backing := img.backing
		rl := runLookup{img: img}
		scanned := vc
		for vc < end {
			m, err := rl.lookup(vc)
			if err != nil {
				img.mu.RUnlock()
				return
			}
			if m.dataOff == 0 {
				break
			}
			vc++
		}
		if vc >= end {
			img.mu.RUnlock()
			// The whole tail was already allocated: remember it so the
			// detector stops re-requesting this region.
			pf.setKnown(scanned, vc)
			return
		}
		run, err := img.slotRun(&rl, vc, 0, end*cs)
		img.mu.RUnlock()
		if scanned < vc {
			pf.setKnown(scanned, vc)
		}
		if err != nil {
			return
		}
		f, leader := img.claimRun(vc, run)
		next := f.vc + f.claimed
		if leader {
			f.prefetch = true
			img.leadFill(f, backing)
			err = f.err
		}
		f.release()
		if err != nil {
			return
		}
		vc = next
	}
}

// markPrefetched records that a prefetch-led fill bound clusters
// [vc, vc+k). Called by leadFill under the image write lock, before waiters
// are released, so a guest read served from the fill buffer always sees its
// marks.
func (pf *Prefetcher) markPrefetched(vc, k int64) {
	setBits(pf.marks, vc, vc+k)
	setBits(pf.known, vc, vc+k)
}

// setKnown records clusters [c0, c1) as allocated.
func (pf *Prefetcher) setKnown(c0, c1 int64) { setBits(pf.known, c0, c1) }

// allKnown reports whether every cluster covering [off, off+n) is already
// known to be allocated. Lock-free: a handful of word loads.
func (pf *Prefetcher) allKnown(off, n int64) bool {
	cs := pf.img.ly.clusterSize
	c1 := (off + n - 1) / cs
	for c := off / cs; c <= c1; {
		last := minI64(c1, c|63)
		mask := spanMask(c, last)
		if pf.known[c>>6].Load()&mask != mask {
			return false
		}
		c = last + 1
	}
	return true
}

// setBits sets the bits for clusters [c0, c1) word by word.
func setBits(words []atomic.Uint64, c0, c1 int64) {
	for c := c0; c < c1; {
		last := minI64(c1-1, c|63)
		w := &words[c>>6]
		mask := spanMask(c, last)
		for {
			old := w.Load()
			if old|mask == old || w.CompareAndSwap(old, old|mask) {
				break
			}
		}
		c = last + 1
	}
}

// markRead clears the marks of the clusters covering [pos, pos+n) and
// credits the cleared ones to PrefetchHitBytes. The caller just read the
// clusters from the cache container, proving them allocated, so they also
// enter the known bitmap. One atomic word op covers up to 64 clusters, so
// the warm-read cost is a handful of loads.
func (pf *Prefetcher) markRead(pos, n int64) {
	cs := pf.img.ly.clusterSize
	c0 := pos / cs
	c1 := (pos + n - 1) / cs
	setBits(pf.known, c0, c1+1)
	for c := c0; c <= c1; {
		last := minI64(c1, c|63)
		w := &pf.marks[c>>6]
		mask := spanMask(c, last)
		for {
			old := w.Load()
			hit := old & mask
			if hit == 0 {
				break
			}
			if w.CompareAndSwap(old, old&^hit) {
				pf.img.stats.PrefetchHitBytes.Add(int64(bits.OnesCount64(hit)) * cs)
				break
			}
		}
		c = last + 1
	}
}

// spanMask builds the bit mask for clusters [c, last] within one 64-bit
// word (c and last must share c>>6).
func spanMask(c, last int64) uint64 {
	span := uint(last - c + 1)
	if span == 64 {
		return ^uint64(0)
	}
	return ((uint64(1) << span) - 1) << uint(c&63)
}
