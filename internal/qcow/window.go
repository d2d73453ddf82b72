package qcow

import (
	"slices"
	"sort"
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

	// Claim every run; what another filler holds is left to the read-back.
	short := false // some span may be left with an unallocated cluster
	var fills []*fill
	for _, r := range runs {
		for vc, end := r.vc, r.vc+r.n; vc < end; {
			f, leader := img.claimRun(vc, end-vc)
			if !leader {
				f.waiters.Add(-1) // not reading its buffer
				vc = minI64(end, f.vc+f.claimed)
				short = true
				continue
			}
			fills = append(fills, f)
			vc += f.claimed
		}
	}
	buf, cut, err := img.landFills(fills, backing)
	img.finishFills(fills, buf, err)
	if err != nil {
		return nil, err
	}
	return img.restOf(spans, short || cut)
}

// admittedRuns lists the fills' admitted clusters, in plan order.
func admittedRuns(fills []*fill) []clusterRun {
	var runs []clusterRun
	for _, f := range fills {
		if f.fetched > 0 {
			runs = append(runs, clusterRun{vc: f.vc, n: f.fetched})
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
			covered = slices.Insert(covered, i, clusterRun{vc: lo, n: gapEnd - lo})
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
					runs = append(runs, clusterRun{vc: vc, n: n})
				}
				vc += n
			}
			lo = gapEnd
		}
	}
	return runs, nil
}

// admitFills replays the serial order's quota check over the fills: each
// admits the longest prefix of its want clusters that fits the quota had
// every fill before it landed on its own, and the first fill cut short trips
// the space error — no later fill admits anything. It sets each fill's
// fetched and returns the clusters admitted. Landing runs one at a time takes
// exactly what landing them together does, so the cost of a prefix of the
// plan is clustersNeededFor its data clusters plus the L2 tables they
// create. Caller holds img.mu.
func (img *Image) admitFills(fills []*fill) (admitted int64, tripped bool) {
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
	for _, f := range fills {
		f.fetched = 0
		if tripped || f.want == 0 {
			continue
		}
		vc, lo, hi := f.vc, int64(0), f.want
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
		f.fetched, tripped = lo, lo < f.want
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
