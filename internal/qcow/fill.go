package qcow

import (
	"math/bits"
	"sync/atomic"
	"time"

	"vmicache/internal/backend"
)

// Copy-on-read fill singleflight. Concurrent cold misses on the same
// clusters of a cache image must not each fetch the run from the backing
// source: the first reader to claim a cluster run becomes its *leader*,
// performs the one backing fetch and the allocation, and every other reader
// that misses on a claimed cluster waits and is served straight from the
// leader's fetched buffer. Misses on distinct cluster runs proceed fully in
// parallel.
//
// The protocol keeps one invariant: a cache cluster transitions
// unallocated→allocated only while its claim is held (guest writes cannot
// allocate on cache images — they are immutable). So "claim, then observe
// unallocated" proves the claimer is the only possible filler, which is what
// makes the at-most-one-backing-fetch-per-cluster guarantee hold without
// holding the image lock across network I/O.

// fill is one in-flight copy-on-read fetch of a contiguous cluster run.
type fill struct {
	vc      int64 // first claimed cluster
	claimed int64 // clusters claimed [vc, vc+claimed)
	fetched int64 // clusters actually fetched into buf (set by the leader)
	// reqOff/reqEnd is the leader's guest request extent (bytes); in
	// sub-cluster mode it bounds the synchronous fetch to the sub-clusters
	// the guest actually asked for.
	reqOff, reqEnd int64
	buf            []byte
	err            error
	done           chan struct{}
	refs           atomic.Int32
	pool           *bufPool
}

// release drops one reference; the last reference recycles the buffer.
func (f *fill) release() {
	if f.refs.Add(-1) == 0 && f.buf != nil {
		f.pool.put(f.buf)
		f.buf = nil
	}
}

// claimRun either attaches to the in-flight fill covering vc (leader=false)
// or claims the longest unclaimed prefix of [vc, vc+max) and returns a fresh
// fill to lead (leader=true). Attached callers hold a buffer reference and
// must release() after waiting. The registry holds one interval entry per
// in-flight fill, so the scan is O(concurrent cold misses), not O(run).
func (img *Image) claimRun(vc, max int64) (f *fill, leader bool) {
	img.fillMu.Lock()
	defer img.fillMu.Unlock()
	n := max
	for _, g := range img.fills {
		if g.vc <= vc && vc < g.vc+g.claimed {
			g.refs.Add(1)
			return g, false
		}
		if g.vc > vc && g.vc-vc < n {
			n = g.vc - vc // truncate at the next claimed interval
		}
	}
	f = &fill{vc: vc, claimed: n, done: make(chan struct{}), pool: &img.sbuf}
	f.refs.Store(1)
	img.fills = append(img.fills, f)
	return f, true
}

// unclaim removes f's interval from the registry.
func (img *Image) unclaim(f *fill) {
	img.fillMu.Lock()
	for i, g := range img.fills {
		if g == f {
			last := len(img.fills) - 1
			img.fills[i] = img.fills[last]
			img.fills[last] = nil
			img.fills = img.fills[:last]
			break
		}
	}
	img.fillMu.Unlock()
}

// quotaFit returns the largest prefix of a run of k unallocated clusters
// starting at vc whose allocation (data + metadata it triggers) fits the
// cache quota. Monotone in the prefix length, hence the binary search.
// Caller holds img.mu (read or write).
func (img *Image) quotaFit(vc, k int64) int64 {
	fits := func(j int64) bool {
		return img.usedBytes()+img.runAllocCost(vc, j)*img.ly.clusterSize <= img.quota
	}
	lo, hi := int64(0), k
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if fits(mid) {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// leadFill runs the leader's side of one fill: re-validate the claimed run,
// fetch it from the backing source in ONE read (no image lock held), then
// take the write lock and land as many clusters as the quota admits in one
// run commit. Truncation by the quota trips the §4.3 space error exactly as
// the serial implementation did. On return f.done is closed and waiters are
// served from f.buf.
//
// In sub-cluster mode a demand miss fetches and marks valid only the
// sub-cluster-aligned extent of the guest request; allocation stays
// whole-cluster (so the §4.3 quota accounting is unchanged) and CompleteAll
// tops the clusters up before publication. Such a fill leaves f.fetched at
// 0 — its buffer is not cluster-aligned — so waiters re-translate.
func (img *Image) leadFill(f *fill, backing BlockSource) {
	start := time.Now()
	defer func() {
		img.unclaim(f)
		close(f.done)
	}()
	cs := img.ly.clusterSize
	s := img.sub
	partial := s != nil

	// Re-validate under the read lock: the run was observed unallocated
	// before claiming, so anything allocated since was bound by a fill
	// that completed in between. Truncate at the first such cluster.
	img.mu.RLock()
	rl := runLookup{img: img}
	want := int64(0)
	for want < f.claimed {
		m, err := rl.lookup(f.vc + want)
		if err != nil {
			img.mu.RUnlock()
			f.err = err
			return
		}
		if m.dataOff != 0 {
			break
		}
		want++
	}
	fit := want
	if fit > 0 {
		fit = img.quotaFit(f.vc, want)
	}
	usedSnap := img.usedBytes()
	img.mu.RUnlock()
	if want == 0 {
		return // run got filled before we claimed it; waiters retry
	}
	if fit == 0 {
		// Space error before fetching anything: stop filling for the
		// image's remaining lifetime; the miss is served by
		// pass-through in the caller.
		img.mu.Lock()
		img.setCacheFull()
		img.mu.Unlock()
		return
	}

	// One backing fetch for the whole admitted run — cluster-rounded, or
	// sub-cluster-rounded around the request — clamped to the virtual size
	// (the final cluster may be partial).
	fetchStart, fetchEnd := f.vc*cs, (f.vc+fit)*cs
	if partial {
		fetchStart = maxI64(fetchStart, f.reqOff&^(s.subSize-1))
		fetchEnd = minI64(fetchEnd, (f.reqEnd+s.subSize-1)&^(s.subSize-1))
		if fetchStart >= fetchEnd {
			return // quota truncated the run below the request; pass through
		}
	}
	readLen := minI64(fetchEnd, int64(img.hdr.Size)) - fetchStart
	buf := img.sbuf.get(int(fetchEnd - fetchStart))
	clear(buf[readLen:])
	if err := img.readBacking(backing, buf[:readLen], fetchStart); err != nil {
		img.sbuf.put(buf)
		f.err = err
		return
	}

	// Commit under the write lock: the quota fit is recomputed because
	// concurrent fills may have consumed space since the advisory check
	// above (it can only shrink). Unchanged usage means the advisory fit
	// is still exact.
	img.mu.Lock()
	final := fit
	if img.usedBytes() != usedSnap {
		final = img.quotaFit(f.vc, fit)
	}
	var landed, nsubs int64
	if final > 0 {
		var err error
		landed = minI64(fetchEnd, (f.vc+final)*cs) - fetchStart
		if nsubs, err = img.commitRun(f.vc, final, buf[:landed], fetchStart); err != nil {
			img.mu.Unlock()
			img.sbuf.put(buf)
			f.err = err
			return
		}
	}
	if final < want {
		img.setCacheFull()
	}
	img.stats.CacheFillOps.Add(final)
	img.stats.CacheFillBytes.Add(minI64(landed, readLen))
	if partial {
		img.stats.SubclusterFills.Add(nsubs)
	}
	img.mu.Unlock()
	img.stats.FillLatency.Observe(time.Since(start).Nanoseconds())

	if !partial {
		f.fetched = fit
		f.buf = buf
		return
	}
	img.sbuf.put(buf)
}

// setCacheFull trips the §4.3 space error. Caller holds img.mu exclusively.
func (img *Image) setCacheFull() {
	if !img.cacheFull {
		img.cacheFull = true
		img.stats.CacheFullEvents.Add(1)
	}
}

// commitRun lands the unallocated clusters [vc, vc+n) in one pass: buf holds
// the guest bytes from bufPos on, starting inside cluster vc and ending
// inside cluster vc+n-1 (whole clusters, or in sub-cluster mode the
// sub-cluster-aligned part that was fetched). The refcount blocks and L2
// tables the run needs are reserved in front of it, so its data clusters are
// one contiguous bump allocation written with one container write. Writes go
// out in the order that makes every crash point at worst a leak — or, in
// sub-cluster mode, a torn fill Check detects:
//
//	zeroed new metadata clusters → data → refcounts (one write per touched
//	block) → refcount-table slots of the new blocks → sub-cluster words →
//	L1 slots of the new, still empty L2 tables → L2 slots (one write per
//	touched table)
//
// The allocator moves past the whole reservation before the first write, so
// a failed commit can only leak; every in-memory table is updated after its
// write-back succeeded, never before. Returns the sub-clusters marked valid.
// Caller holds img.mu exclusively and has admitted the run against the quota.
func (img *Image) commitRun(vc, n int64, buf []byte, bufPos int64) (int64, error) {
	cs, l2e, rbe := img.ly.clusterSize, img.ly.l2Entries, img.ly.refBlockEnts
	firstL1, lastL1 := vc/l2e, (vc+n-1)/l2e
	var newL1 []int64
	for i := firstL1; i <= lastL1; i++ {
		if img.l1[i]&entryOffsetMask == 0 {
			newL1 = append(newL1, i)
		}
	}
	extra := n + int64(len(newL1))
	total := img.clustersNeededFor(extra)
	if need := ceilDiv(img.nextFree+total, rbe); need > int64(len(img.refTable)) {
		// Rare: the refcount table itself must move first.
		if err := img.growRefTable(need); err != nil {
			return 0, err
		}
		total = img.clustersNeededFor(extra)
	}
	base, end := img.nextFree, img.nextFree+total
	img.nextFree = end
	var newRB []int64 // refcount blocks to install; the k-th lives in cluster base+k
	for i := int64(0); i < ceilDiv(end, rbe); i++ {
		if img.refTable[i]&entryOffsetMask == 0 {
			newRB = append(newRB, i)
		}
	}
	l2Start := base + int64(len(newRB))
	dataStart := (end - n) * cs

	if meta := (end - n - base) * cs; meta > 0 {
		if err := backend.WriteFull(img.f, make([]byte, meta), base*cs); err != nil {
			return 0, err
		}
	}
	if err := backend.WriteFull(img.f, buf, dataStart+bufPos-vc*cs); err != nil {
		return 0, err
	}
	if bufPos+int64(len(buf)) < (vc+n)*cs {
		// A sub-cluster fill stops short of its last cluster's end; keep
		// the container cluster-aligned. Nothing lives past end, so this
		// never cuts anything.
		if err := img.f.Truncate(end * cs); err != nil {
			return 0, err
		}
	}

	ones := make([]byte, minI64(total, rbe)*refcountEntrySz)
	for i := range ones {
		ones[i] = byte(i & 1) // big-endian uint16(1), repeated
	}
	for rb, k := base/rbe, 0; rb*rbe < end; rb++ {
		off := int64(img.refTable[rb] & entryOffsetMask)
		if off == 0 {
			for newRB[k] != rb {
				k++
			}
			off = (base + int64(k)) * cs
		}
		lo, hi := maxI64(base, rb*rbe), minI64(end, (rb+1)*rbe)
		if err := backend.WriteFull(img.f, ones[:(hi-lo)*refcountEntrySz], off+(lo-rb*rbe)*refcountEntrySz); err != nil {
			return 0, err
		}
	}
	if len(newRB) > 0 {
		if err := img.installSlots(img.refTable, int64(img.hdr.RefTableOffset), newRB, base, 0); err != nil {
			return 0, err
		}
	}

	// Sub-cluster words: exactly the fetched sub-clusters. The clusters were
	// unallocated, so nothing is merged in.
	var words []uint64
	var nsubs int64
	if s := img.sub; s != nil {
		words = make([]uint64, n)
		for i := range words {
			c0 := (vc + int64(i)) * cs
			o0, o1 := maxI64(c0, bufPos), minI64(c0+cs, bufPos+int64(len(buf)))
			words[i] = s.maskRange(o0-c0, o1-c0) & s.fullMask(vc+int64(i))
			nsubs += int64(bits.OnesCount64(words[i]))
		}
		if err := img.writeSlots(s.tableOff+vc*8, words); err != nil {
			return 0, err
		}
	}

	if len(newL1) > 0 {
		if err := img.installSlots(img.l1, int64(img.hdr.L1TableOffset), newL1, l2Start, entryCopied); err != nil {
			return 0, err
		}
		for _, i := range newL1 {
			img.l2c.put(int64(img.l1[i]&entryOffsetMask), make([]uint64, l2e))
		}
	}
	slots := make([]uint64, minI64(n, l2e))
	for c := vc; c < vc+n; {
		l2Off := int64(img.l1[c/l2e] & entryOffsetMask)
		t, err := img.loadL2(l2Off)
		if err != nil {
			return 0, err
		}
		run := slots[:minI64(vc+n, (c/l2e+1)*l2e)-c]
		for i := range run {
			run[i] = uint64(dataStart+(c+int64(i)-vc)*cs) | entryCopied
		}
		if err := img.writeSlots(l2Off+c%l2e*l2EntrySize, run); err != nil {
			return 0, err
		}
		copy(t[c%l2e:], run)
		if words != nil {
			for i := c; i < c+int64(len(run)); i++ {
				img.sub.set(i, words[i-vc])
			}
		}
		c += int64(len(run))
	}
	return nsubs, nil
}

// installSlots points the ascending slots idx of the on-disk table at
// tableOff at consecutive clusters — table[idx[k]] = (first+k clusters) | flag
// — with one write spanning idx[0]..idx[last] (slots in between are rewritten
// with their current value), then updates memory.
func (img *Image) installSlots(table []uint64, tableOff int64, idx []int64, first int64, flag uint64) error {
	lo, hi := idx[0], idx[len(idx)-1]+1
	vals := append([]uint64(nil), table[lo:hi]...)
	for k, i := range idx {
		vals[i-lo] = uint64((first+int64(k))*img.ly.clusterSize) | flag
	}
	if err := img.writeSlots(tableOff+lo*8, vals); err != nil {
		return err
	}
	copy(table[lo:hi], vals)
	return nil
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// fillRun serves span (starting at guest offset pos, lying inside the
// unallocated run [vc, vc+run)) through the fill singleflight. It returns
// how many bytes of span were served; a short count means the caller must
// re-translate and continue (the run was truncated or served by another
// fill).
func (img *Image) fillRun(vc, run, pos int64, span []byte, backing BlockSource) (int, error) {
	cs := img.ly.clusterSize
	f, leader := img.claimRun(vc, run)
	// Both leader (the initial reference) and waiters (added in claimRun)
	// hold exactly one buffer reference; the last release recycles f.buf.
	defer f.release()
	if leader {
		f.reqOff, f.reqEnd = pos, pos+int64(len(span))
		img.leadFill(f, backing)
	} else {
		img.stats.FillWaits.Add(1)
		<-f.done
	}
	if f.err != nil {
		return 0, f.err
	}
	covEnd := (f.vc + f.fetched) * cs
	if f.fetched == 0 || pos >= covEnd {
		return 0, nil // not covered; caller retries
	}
	served := minI64(pos+int64(len(span)), covEnd) - pos
	copy(span[:served], f.buf[pos-f.vc*cs:])
	return int(served), nil
}
