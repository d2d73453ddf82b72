package qcow

import (
	"encoding/binary"
	"slices"
	"sort"
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
	buf     []byte
	err     error
	done    chan struct{}
	refs    atomic.Int32
	pool    *bufPool // nil: buf is part of a window fill's buffer
}

// release drops one reference; the last reference recycles the buffer.
func (f *fill) release() {
	if f.refs.Add(-1) == 0 && f.buf != nil && f.pool != nil {
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
	f = &fill{vc: vc, claimed: n, done: make(chan struct{}), pool: &spanBufs}
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
func (img *Image) leadFill(f *fill, backing BlockSource) {
	start := time.Now()
	defer func() {
		img.unclaim(f)
		close(f.done)
	}()
	cs := img.ly.clusterSize

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

	// One backing fetch for the whole admitted run, clamped to the virtual
	// size (the final cluster may be partial).
	fetchStart := f.vc * cs
	readLen := minI64(fit*cs, int64(img.hdr.Size)-fetchStart)
	buf := spanBufs.get(int(fit * cs))
	clear(buf[readLen:])
	if err := img.readBacking(backing, buf[:readLen], fetchStart); err != nil {
		spanBufs.put(buf)
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
	if final > 0 {
		runs := []clusterRun{{f.vc, final}}
		p, err := img.planLocked(runs)
		if err == nil {
			err = img.commitRun(runs, p, nil, buf[:final*cs])
		}
		if err != nil {
			img.mu.Unlock()
			spanBufs.put(buf)
			f.err = err
			return
		}
	}
	if final < want {
		img.setCacheFull()
	}
	img.stats.CacheFillOps.Add(final)
	img.stats.CacheFillBytes.Add(minI64(final*cs, readLen))
	img.mu.Unlock()
	img.stats.FillLatency.Observe(time.Since(start).Nanoseconds())
	f.fetched = fit
	f.buf = buf
}

// setCacheFull trips the §4.3 space error. Caller holds img.mu exclusively.
func (img *Image) setCacheFull() {
	if !img.cacheFull {
		img.cacheFull = true
		img.stats.CacheFullEvents.Add(1)
	}
}

// clusterRun is a run of n virtual clusters starting at vc.
type clusterRun struct{ vc, n int64 }

// commitPlan is where a commit puts its runs: each run, in order, gets the
// refcount blocks and L2 tables it is the first to need in front of its
// data, exactly as landing the runs one at a time places them, so a window
// of runs leaves the container byte for byte as its runs landed one by one
// would.
type commitPlan struct {
	base, end int64   // the reservation, in clusters
	rbs, rbAt []int64 // new refcount blocks, ascending, and their clusters
	l1s, l2At []int64 // L1 slots given a new L2 table, ascending, and the tables' clusters
	dataAt    []int64 // per run, its first data cluster
}

// planCommit lays out a commit of runs from the allocator's current state.
// When the refcount table must first grow to index need blocks it returns
// need > 0 and no plan. Caller holds img.mu.
func (img *Image) planCommit(runs []clusterRun) (p commitPlan, need int64) {
	l2e, rbe := img.ly.l2Entries, img.ly.refBlockEnts
	rt := slices.Clone(img.refTable) // with the blocks earlier runs create
	next, scanned := img.nextFree, int64(0)
	p.base = next
	for _, r := range runs {
		first := len(p.l1s)
		for t := r.vc / l2e; t <= (r.vc+r.n-1)/l2e; t++ {
			if img.l1[t]&entryOffsetMask == 0 && !slices.Contains(p.l1s, t) {
				p.l1s = append(p.l1s, t)
			}
		}
		tables := int64(len(p.l1s) - first)
		end := next + img.clustersNeededAt(next, rt, r.n+tables)
		if blocks := ceilDiv(end, rbe); blocks > int64(len(rt)) {
			return commitPlan{}, blocks
		}
		at := next
		for ; scanned < ceilDiv(end, rbe); scanned++ {
			if rt[scanned]&entryOffsetMask == 0 {
				p.rbs, p.rbAt = append(p.rbs, scanned), append(p.rbAt, at)
				rt[scanned] = uint64(at << img.ly.clusterBits)
				at++
			}
		}
		for range tables {
			p.l2At = append(p.l2At, at)
			at++
		}
		p.dataAt = append(p.dataAt, end-r.n)
		next = end
	}
	p.end = next
	sort.Sort(byIndex{p.l1s, p.l2At})
	return p, 0
}

// byIndex sorts table slots with the clusters they are given.
type byIndex struct{ idx, at []int64 }

func (b byIndex) Len() int           { return len(b.idx) }
func (b byIndex) Less(i, j int) bool { return b.idx[i] < b.idx[j] }
func (b byIndex) Swap(i, j int) {
	b.idx[i], b.idx[j] = b.idx[j], b.idx[i]
	b.at[i], b.at[j] = b.at[j], b.at[i]
}

// planLocked is planCommit after growing the refcount table as often as the
// plan needs. Caller holds img.mu exclusively.
func (img *Image) planLocked(runs []clusterRun) (commitPlan, error) {
	for {
		p, need := img.planCommit(runs)
		if need == 0 {
			return p, nil
		}
		// Rare: the refcount table itself must move first.
		if err := img.growRefTable(need); err != nil {
			return commitPlan{}, err
		}
	}
}

// l2Edit is one L2 table a commit binds clusters in: its slots with the
// commit's entries applied, the touched slot range, and whether the table is
// new (its index in the plan's new tables) or already bound (-1).
type l2Edit struct {
	vals   []uint64
	lo, hi int64
	newIdx int
}

// commitRun lands still unallocated cluster runs as p places them. With res
// non-nil, res is the whole reservation [p.base, p.end) with every run's data
// already at its planned clusters, and the commit fills in the new metadata
// and writes it all at once (a window fill). Otherwise the commit is one run
// (a demand fill): data holds its guest bytes in whole clusters, and the new
// metadata and the data go out apart. Writes go out in the order that makes
// every crash point at worst a leak:
//
//	new refcount blocks and L2 tables with their final content, and the
//	data → refcounts in pre-existing blocks (one write per block) →
//	refcount-table slots of the new blocks → slots of pre-existing L2
//	tables (one write per table) → L1 slots of the new tables
//
// New metadata is unreachable until its refcount-table or L1 slot is written,
// so it carries its final content from the first write. The allocator moves
// past the whole reservation before the first write, so a failed commit can
// only leak; every in-memory table is updated after its write-back succeeded,
// never before. Caller holds img.mu exclusively, has admitted the runs
// against the quota and planned them with planLocked.
func (img *Image) commitRun(runs []clusterRun, p commitPlan, res, data []byte) error {
	cs, l2e, rbe := img.ly.clusterSize, img.ly.l2Entries, img.ly.refBlockEnts
	img.nextFree = p.end

	// Every data cluster's L2 entry, gathered per table.
	edits := make(map[int64]*l2Edit)
	var order []int64 // the edited tables' L1 indices
	for i, r := range runs {
		phys := p.dataAt[i] * cs
		for c := r.vc; c < r.vc+r.n; {
			l1i := c / l2e
			e := edits[l1i]
			if e == nil {
				e = &l2Edit{lo: l2e, newIdx: -1}
				if k, ok := slices.BinarySearch(p.l1s, l1i); ok {
					e.vals, e.newIdx = make([]uint64, l2e), k
				} else {
					t, err := img.loadL2(int64(img.l1[l1i] & entryOffsetMask))
					if err != nil {
						return err
					}
					e.vals = slices.Clone(t)
				}
				edits[l1i] = e
				order = append(order, l1i)
			}
			lo := c % l2e
			hi := minI64(l2e, lo+r.vc+r.n-c)
			for i := lo; i < hi; i++ {
				e.vals[i] = uint64(phys) | entryCopied
				phys += cs
			}
			e.lo, e.hi = minI64(e.lo, lo), maxI64(e.hi, hi)
			c += hi - lo
		}
	}
	slices.Sort(order)

	// The new metadata's final content: the reservation's refcounts in the
	// new blocks, the runs' entries in the new tables. Without res it is the
	// one run's clusters in front of its data.
	meta := res
	if meta == nil {
		meta = make([]byte, (p.dataAt[0]-p.base)*cs)
	}
	for k, rb := range p.rbs {
		blk := meta[(p.rbAt[k]-p.base)*cs:][:cs]
		clear(blk)
		for c := maxI64(p.base, rb*rbe); c < minI64(p.end, (rb+1)*rbe); c++ {
			blk[(c-rb*rbe)*refcountEntrySz+1] = 1 // big-endian uint16(1)
		}
	}
	for _, l1i := range order {
		if e := edits[l1i]; e.newIdx >= 0 {
			tbl := meta[(p.l2At[e.newIdx]-p.base)*cs:][:cs]
			for i, v := range e.vals {
				binary.BigEndian.PutUint64(tbl[i*l2EntrySize:], v)
			}
		}
	}

	if res != nil {
		if err := backend.WriteFull(img.f, res, p.base*cs); err != nil {
			return err
		}
	} else {
		if len(meta) > 0 {
			if err := backend.WriteFull(img.f, meta, p.base*cs); err != nil {
				return err
			}
		}
		if err := backend.WriteFull(img.f, data, p.dataAt[0]*cs); err != nil {
			return err
		}
	}

	ones := make([]byte, minI64(p.end-p.base, rbe)*refcountEntrySz)
	for i := range ones {
		ones[i] = byte(i & 1) // big-endian uint16(1), repeated
	}
	for rb, k := p.base/rbe, 0; rb*rbe < p.end; rb++ {
		for k < len(p.rbs) && p.rbs[k] < rb {
			k++
		}
		if k < len(p.rbs) && p.rbs[k] == rb {
			continue // written whole above
		}
		off := int64(img.refTable[rb] & entryOffsetMask)
		lo, hi := maxI64(p.base, rb*rbe), minI64(p.end, (rb+1)*rbe)
		if err := backend.WriteFull(img.f, ones[:(hi-lo)*refcountEntrySz], off+(lo-rb*rbe)*refcountEntrySz); err != nil {
			return err
		}
	}
	if len(p.rbs) > 0 {
		if err := img.installSlots(img.refTable, int64(img.hdr.RefTableOffset), p.rbs, p.rbAt, 0); err != nil {
			return err
		}
	}

	for _, l1i := range order {
		e := edits[l1i]
		if e.newIdx >= 0 {
			continue
		}
		l2Off := int64(img.l1[l1i] & entryOffsetMask)
		t, err := img.loadL2(l2Off)
		if err != nil {
			return err
		}
		if err := img.writeSlots(l2Off+e.lo*l2EntrySize, e.vals[e.lo:e.hi]); err != nil {
			return err
		}
		copy(t[e.lo:e.hi], e.vals[e.lo:e.hi])
	}
	if len(p.l1s) > 0 {
		if err := img.installSlots(img.l1, int64(img.hdr.L1TableOffset), p.l1s, p.l2At, entryCopied); err != nil {
			return err
		}
		for _, i := range p.l1s {
			img.l2c.put(int64(img.l1[i]&entryOffsetMask), edits[i].vals)
		}
	}
	return nil
}

// installSlots points the ascending slots idx of the on-disk table at
// tableOff at clusters — table[idx[k]] = at[k] clusters | flag — with one
// write spanning idx[0]..idx[last] (slots in between are rewritten with
// their current value), then updates memory.
func (img *Image) installSlots(table []uint64, tableOff int64, idx, at []int64, flag uint64) error {
	lo, hi := idx[0], idx[len(idx)-1]+1
	vals := append([]uint64(nil), table[lo:hi]...)
	for k, i := range idx {
		vals[i-lo] = uint64(at[k]*img.ly.clusterSize) | flag
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
