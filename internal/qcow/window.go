package qcow

import (
	"slices"
	"sort"
	"time"

	"vmicache/internal/backend"
)

// Window fill. A boot plan replayed as guest reads pays one stop-and-wait
// backing fetch and one commit per unallocated run. FillSpans takes one
// window of the plan instead: it translates the window into its unfilled
// cluster runs, claims them all in the fill singleflight, fetches every run's
// backing bytes with ONE batched read (over a remote base, all of it in
// flight together) and lands them with ONE multi-run commit. Admission
// against the quota replays the read-by-read order, so a quota-limited plan
// lands the same clusters and trips the §4.3 space error at the same run, and
// planCommit lays the runs out as landing them one by one would, so the
// container ends byte for byte the same.

// Span is a range of guest bytes a warm plan reads.
type Span struct {
	Off int64
	Len int64
}

// windowPiece is one claimed run of a window fill.
type windowPiece struct {
	f    *fill
	want int64  // clusters still unallocated when re-validated
	fit  int64  // clusters the quota admits
	data []byte // the piece's fetched clusters, inside the window buffer
}

// FillSpans fills the clusters under spans, one window of a warm plan, from
// the backing source, and returns the spans it did not land in full, in plan
// order, for the caller to read through ReadAt: spans with clusters another
// filler claimed, spans past a quota trip or the virtual size — or all of
// them when the image does not fill windows (not a writable cache, full, or
// without a backing). Guest readers racing the fill wait on
// its claims and are served from its buffer, as with any fill.
func (img *Image) FillSpans(spans []Span) (rest []Span, err error) {
	if err := img.enterRead(); err != nil {
		return nil, err
	}
	defer img.readers.Done()
	start := time.Now()
	cs, size := img.ly.clusterSize, int64(img.hdr.Size)

	img.mu.RLock()
	backing := img.backing
	if !img.isCache || img.ro || img.cacheFull || backing == nil {
		img.mu.RUnlock()
		return spans, nil
	}
	runs, err := img.unfilledRuns(spans)
	img.mu.RUnlock()
	if err != nil {
		return nil, err
	}
	short := false // some span may be left with an unallocated cluster

	// Claim every run; what another filler holds is left to the read-back.
	var pieces []windowPiece
	var buf []byte
	defer func() {
		for _, p := range pieces {
			img.unclaim(p.f)
		}
		// No reader can attach to a dropped claim: a buffer no reader
		// holds goes back to the pool, else it stays with its readers.
		waited := false
		for _, p := range pieces {
			waited = waited || p.f.refs.Load() > 1
			if err != nil {
				p.f.err = err
			}
			close(p.f.done)
			p.f.release()
		}
		if buf != nil && !waited {
			spanBufs.put(buf)
		}
	}()
	for _, r := range runs {
		for vc, end := r.vc, r.vc+r.n; vc < end; {
			f, leader := img.claimRun(vc, end-vc)
			if !leader {
				vc = minI64(end, f.vc+f.claimed)
				f.release()
				short = true
				continue
			}
			f.pool = nil // pieces share the window buffer
			pieces = append(pieces, windowPiece{f: f})
			vc += f.claimed
		}
	}

	// Re-validate and admit under the read lock, as leadFill does.
	img.mu.RLock()
	rl := runLookup{img: img}
	for i := range pieces {
		p := &pieces[i]
		for p.want < p.f.claimed {
			m, err := rl.lookup(p.f.vc + p.want)
			if err != nil {
				img.mu.RUnlock()
				return nil, err
			}
			if m.dataOff != 0 {
				short = true // filled since the translation
				break
			}
			p.want++
		}
	}
	usedSnap := img.usedBytes()
	admitted, tripped := img.admitPieces(pieces)
	adv, need := img.planCommit(admittedRuns(pieces))
	img.mu.RUnlock()
	if tripped && admitted == 0 {
		img.mu.Lock()
		img.setCacheFull()
		img.mu.Unlock()
	}
	if admitted == 0 {
		return img.restOf(spans, short || tripped)
	}

	// One batched backing fetch for every admitted cluster, straight to its
	// planned place in the reservation (packed instead when the refcount
	// table must grow first: the commit places it); clamped and zero-filled
	// as readBacking does (the final cluster may be partial, a smaller
	// backing reads as zeros).
	if need == 0 {
		buf = spanBufs.get(int((adv.end - adv.base) * cs))
	} else {
		buf = spanBufs.get(int(admitted * cs))
	}
	bsz := backing.Size()
	var rs []backend.Range
	var packed int64
	for i, j := 0, 0; i < len(pieces); i++ {
		p := &pieces[i]
		if p.fit == 0 {
			continue
		}
		at := packed
		if need == 0 {
			at = (adv.dataAt[j] - adv.base) * cs
		}
		packed, j = packed+p.fit*cs, j+1
		p.data = buf[at : at+p.fit*cs]
		pos := p.f.vc * cs
		readLen := minI64(p.fit*cs, size-pos)
		img.stats.BackingReadOps.Add(1)
		img.stats.BackingBytes.Add(readLen)
		n := maxI64(0, minI64(readLen, bsz-pos))
		if n > 0 {
			rs = append(rs, backend.Range{P: p.data[:n], Off: pos})
		}
		clear(p.data[n:])
	}
	if err = backend.ReadBatch(backing, rs); err != nil {
		return nil, err
	}

	// One commit. Concurrent fills may have consumed quota since the
	// advisory admission (it can only shrink) and moved the allocator: then
	// re-admit, re-plan, and move each piece's admitted prefix to its place.
	img.mu.Lock()
	if img.usedBytes() != usedSnap {
		for i := range pieces {
			pieces[i].want = pieces[i].fit
		}
		var shrunk bool
		if admitted, shrunk = img.admitPieces(pieces); shrunk {
			tripped = true
		}
	}
	commit := admittedRuns(pieces)
	plan, err := img.planLocked(commit)
	if err != nil {
		img.mu.Unlock()
		return nil, err
	}
	if need > 0 || plan.base != adv.base || plan.end != adv.end || !slices.Equal(plan.dataAt, adv.dataAt) {
		moved := spanBufs.get(int((plan.end - plan.base) * cs))
		for i, j := 0, 0; i < len(pieces); i++ {
			if p := &pieces[i]; p.fit > 0 {
				dst := moved[(plan.dataAt[j]-plan.base)*cs:][:p.fit*cs]
				copy(dst, p.data)
				p.data, j = dst, j+1
			}
		}
		spanBufs.put(buf)
		buf = moved
	}
	res := buf[:(plan.end-plan.base)*cs]
	if len(commit) > 0 {
		if err = img.commitRun(commit, plan, res, nil); err != nil {
			img.mu.Unlock()
			return nil, err
		}
	}
	if tripped {
		img.setCacheFull()
	}
	var landedBytes int64
	for _, r := range commit {
		landedBytes += minI64(r.n*cs, size-r.vc*cs)
	}
	img.stats.CacheFillOps.Add(admitted)
	img.stats.CacheFillBytes.Add(landedBytes)
	img.mu.Unlock()
	if wb, ok := img.f.(interface{ StartWriteback(off, n int64) }); ok && len(res) > 0 {
		wb.StartWriteback(plan.base*cs, int64(len(res)))
	}

	lat := time.Since(start).Nanoseconds()
	for i := range pieces {
		if p := &pieces[i]; p.fit > 0 {
			img.stats.FillLatency.Observe(lat)
			p.f.fetched, p.f.buf = p.fit, p.data
		}
	}
	return img.restOf(spans, short || tripped)
}

// admittedRuns lists the pieces' admitted clusters, in plan order.
func admittedRuns(pieces []windowPiece) []clusterRun {
	var runs []clusterRun
	for _, p := range pieces {
		if p.fit > 0 {
			runs = append(runs, clusterRun{p.f.vc, p.fit})
		}
	}
	return runs
}

// unfilledRuns lists the unallocated cluster runs under spans in the order
// read-by-read replay fills them: span by span, ascending within a span,
// skipping the clusters an earlier span of the window covers. Caller holds
// img.mu.
func (img *Image) unfilledRuns(spans []Span) ([]clusterRun, error) {
	cs := img.ly.clusterSize
	last := ceilDiv(int64(img.hdr.Size), cs)
	var runs, covered []clusterRun // covered: sorted and disjoint
	rl := runLookup{img: img}
	for _, s := range spans {
		if s.Len <= 0 || s.Off < 0 {
			continue
		}
		for lo, hi := s.Off/cs, minI64(last, ceilDiv(s.Off+s.Len, cs)); lo < hi; {
			i := sort.Search(len(covered), func(k int) bool { return covered[k].vc+covered[k].n > lo })
			if i < len(covered) && covered[i].vc <= lo {
				lo = covered[i].vc + covered[i].n
				continue
			}
			gapEnd := hi
			if i < len(covered) {
				gapEnd = minI64(hi, covered[i].vc)
			}
			covered = slices.Insert(covered, i, clusterRun{lo, gapEnd - lo})
			for vc := lo; vc < gapEnd; {
				m, err := rl.lookup(vc)
				if err != nil {
					return nil, err
				}
				n, err := img.slotRun(&rl, vc, m.dataOff, gapEnd*cs)
				if err != nil {
					return nil, err
				}
				if m.dataOff == 0 {
					runs = append(runs, clusterRun{vc, n})
				}
				vc += n
			}
			lo = gapEnd
		}
	}
	return runs, nil
}

// admitPieces replays the serial order's quota check over the pieces: each
// admits the longest prefix of its want clusters that quotaFit would have
// admitted had every piece before it landed on its own, and the first piece
// cut short trips the space error — no later piece admits anything. It sets
// each piece's fit and returns the clusters admitted. Landing runs one at a
// time takes exactly what
// landing them together does, so the cost of a prefix of the plan is
// clustersNeededFor its data clusters plus the L2 tables they create. Caller
// holds img.mu.
func (img *Image) admitPieces(pieces []windowPiece) (admitted int64, tripped bool) {
	cs, l2e := img.ly.clusterSize, img.ly.l2Entries
	used := img.usedBytes()
	var extra int64                   // data clusters and new L2 tables admitted so far
	var tables []int64                // L1 slots given a table by the admitted clusters, sorted
	cost := func(vc, j int64) int64 { // extra after admitting [vc, vc+j) too
		e := extra + j
		for t := vc / l2e; j > 0 && t <= (vc+j-1)/l2e; t++ {
			if _, ok := slices.BinarySearch(tables, t); !ok && img.l1[t]&entryOffsetMask == 0 {
				e++
			}
		}
		return e
	}
	fits := func(vc, j int64) bool { return used+img.clustersNeededFor(cost(vc, j))*cs <= img.quota }
	for i := range pieces {
		p := &pieces[i]
		p.fit = 0
		if tripped || p.want == 0 {
			continue
		}
		vc, lo, hi := p.f.vc, int64(0), p.want
		if fits(vc, hi) {
			lo = hi
		}
		for lo < hi {
			mid := (lo + hi + 1) / 2
			if fits(vc, mid) {
				lo = mid
			} else {
				hi = mid - 1
			}
		}
		p.fit, tripped = lo, lo < p.want
		if lo == 0 {
			continue
		}
		extra = cost(vc, lo)
		for t := vc / l2e; t <= (vc+lo-1)/l2e; t++ {
			if k, ok := slices.BinarySearch(tables, t); !ok && img.l1[t]&entryOffsetMask == 0 {
				tables = slices.Insert(tables, k, t)
			}
		}
		admitted += lo
	}
	return admitted, tripped
}

// restOf returns the spans still to be read: none after a clean fill, else
// every span with a cluster left unallocated or running past the virtual
// size.
func (img *Image) restOf(spans []Span, short bool) ([]Span, error) {
	size := int64(img.hdr.Size)
	var rest []Span
	img.mu.RLock()
	defer img.mu.RUnlock()
	rl := runLookup{img: img}
	for _, s := range spans {
		if s.Len <= 0 {
			continue
		}
		if s.Off < 0 || s.Off+s.Len > size {
			rest = append(rest, s)
			continue
		}
		if !short {
			continue
		}
		for vc := s.Off >> img.ly.clusterBits; vc<<img.ly.clusterBits < s.Off+s.Len; vc++ {
			m, err := rl.lookup(vc)
			if err != nil {
				return nil, err
			}
			if m.dataOff == 0 {
				rest = append(rest, s)
				break
			}
		}
	}
	return rest, nil
}
