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
//
// A demand miss and a window of a warm plan (FillSpans) run the same
// sequence: claim → re-validate and admit against the quota → one batched
// backing fetch straight into the commit's reservation → one commit
// (landFills). A demand miss is a window of one run.

// fill is one claimed cluster run: a demand miss's run or one of a window's.
type fill struct {
	vc      int64  // first claimed cluster
	claimed int64  // clusters claimed [vc, vc+claimed)
	want    int64  // clusters still unallocated when re-validated
	fetched int64  // clusters admitted, fetched into buf and landed
	buf     []byte // the fetched clusters, inside the window's reservation
	err     error
	done    chan struct{}
	waiters atomic.Int32 // readers attached to the claim
}

// claimRun either attaches to the in-flight fill covering vc (leader=false)
// or claims the longest unclaimed prefix of [vc, vc+max) and returns a fresh
// fill to lead (leader=true). Attaching counts the caller as a waiter: the
// window's buffer is then left to the waiters instead of being recycled. The
// registry holds one interval entry per in-flight fill, so the scan is
// O(concurrent cold misses), not O(run).
func (img *Image) claimRun(vc, max int64) (f *fill, leader bool) {
	img.fillMu.Lock()
	defer img.fillMu.Unlock()
	n := max
	for _, g := range img.fills {
		if g.vc <= vc && vc < g.vc+g.claimed {
			g.waiters.Add(1)
			return g, false
		}
		if g.vc > vc && g.vc-vc < n {
			n = g.vc - vc // truncate at the next claimed interval
		}
	}
	f = &fill{vc: vc, claimed: n, done: make(chan struct{})}
	img.fills = append(img.fills, f)
	return f, true
}

// finishFills drops the claims of a window, hands their waiters its outcome,
// and recycles the window's buffer unless a reader waits to copy from it. No
// reader can attach to a dropped claim.
func (img *Image) finishFills(fills []*fill, buf []byte, err error) {
	img.fillMu.Lock()
	for _, f := range fills {
		i := slices.Index(img.fills, f)
		img.fills = slices.Delete(img.fills, i, i+1)
	}
	img.fillMu.Unlock()
	waited := false
	for _, f := range fills {
		waited = waited || f.waiters.Load() > 0
		f.err = err
		close(f.done)
	}
	if buf != nil && !waited {
		spanBufs.put(buf)
	}
}

// serve copies what f landed of span, which starts at guest offset pos inside
// f's first claimed cluster or later, and returns how many bytes it served.
func (f *fill) serve(span []byte, pos, cs int64) int {
	if covEnd := (f.vc + f.fetched) * cs; pos >= covEnd {
		return 0
	}
	return copy(span, f.buf[pos-f.vc*cs:])
}

// fillRun serves span (starting at guest offset pos, lying inside the
// unallocated run [vc, vc+run)) through the fill singleflight. It returns
// how many bytes of span were served; a short count means the caller must
// re-translate and continue (the run was truncated or served by another
// fill).
func (img *Image) fillRun(vc, run, pos int64, span []byte, backing BlockSource) (int, error) {
	cs := img.ly.clusterSize
	f, leader := img.claimRun(vc, run)
	if !leader {
		img.stats.FillWaits.Add(1)
		<-f.done
		if f.err != nil {
			return 0, f.err
		}
		return f.serve(span, pos, cs), nil
	}
	fills := []*fill{f}
	buf, _, err := img.landFills(fills, backing)
	served := 0
	if err == nil {
		served = f.serve(span, pos, cs)
	}
	img.finishFills(fills, buf, err)
	return served, err
}

// landFills lands claimed runs as one window: it re-validates them under the
// read lock (truncating a run at its first cluster bound since the claim),
// admits them against the quota in order, fetches every admitted cluster
// with ONE batched backing read straight to its planned place in the
// reservation — clamped and zero-filled as readBacking does: the final
// cluster may be partial, a smaller backing reads as zeros — and lands them
// with ONE commit. Each fill's fetched and buf then say what it landed. It
// returns the window's buffer (nil when nothing was fetched) and whether a
// run was cut short, by the quota (which trips the §4.3 space error) or by
// another filler.
func (img *Image) landFills(fills []*fill, backing BlockSource) (buf []byte, short bool, err error) {
	start := time.Now()
	cs, size := img.ly.clusterSize, int64(img.hdr.Size)

	img.mu.RLock()
	rl := runLookup{img: img}
	for _, f := range fills {
		for f.want < f.claimed {
			m, err := rl.lookup(f.vc + f.want)
			if err != nil {
				img.mu.RUnlock()
				return nil, false, err
			}
			if m.dataOff != 0 {
				short = true // filled since the translation
				break
			}
			f.want++
		}
	}
	usedSnap := img.usedBytes()
	admitted, tripped := img.admitFills(fills)
	runs := admittedRuns(fills)
	adv, need := img.planCommit(runs)
	img.mu.RUnlock()
	if admitted == 0 {
		if tripped {
			// Space error before fetching anything: the image stops
			// filling, and the miss is served by pass-through.
			img.mu.Lock()
			img.setCacheFull()
			img.mu.Unlock()
		}
		return nil, short || tripped, nil
	}

	// Packed instead when the refcount table must grow first: the commit
	// places the data then.
	if need == 0 {
		buf = spanBufs.get(int((adv.end - adv.base) * cs))
	} else {
		buf = spanBufs.get(int(admitted * cs))
	}
	bsz := backing.Size()
	var rs []backend.Range
	var packed int64
	for i, j := 0, 0; i < len(fills); i++ {
		f := fills[i]
		if f.fetched == 0 {
			continue
		}
		at := packed
		if need == 0 {
			at = (adv.dataAt[j] - adv.base) * cs
		}
		packed, j = packed+f.fetched*cs, j+1
		f.buf = buf[at : at+f.fetched*cs]
		pos := f.vc * cs
		readLen := minI64(f.fetched*cs, size-pos)
		img.stats.BackingReadOps.Add(1)
		img.stats.BackingBytes.Add(readLen)
		n := maxI64(0, minI64(readLen, bsz-pos))
		if n > 0 {
			rs = append(rs, backend.Range{P: f.buf[:n], Off: pos})
		}
		clear(f.buf[n:])
	}
	if err := backend.ReadBatch(backing, rs); err != nil {
		return buf, false, err
	}

	// One commit. Concurrent fills may have consumed quota since the
	// advisory admission (it can only shrink) and moved the allocator: then
	// re-admit, re-plan, and move each fill's admitted prefix to its place.
	// An unmoved allocator means no commit landed in between (each reserves
	// a cluster), so the advisory plan stands.
	img.mu.Lock()
	plan, commit := adv, runs
	if need > 0 || img.usedBytes() != usedSnap {
		for _, f := range fills {
			f.want = f.fetched
		}
		var shrunk bool
		if admitted, shrunk = img.admitFills(fills); shrunk {
			tripped = true
		}
		commit = admittedRuns(fills)
		if plan, err = img.planLocked(commit); err != nil {
			img.mu.Unlock()
			return buf, false, err
		}
	}
	if need > 0 || plan.base != adv.base || plan.end != adv.end || !slices.Equal(plan.dataAt, adv.dataAt) {
		moved := spanBufs.get(int((plan.end - plan.base) * cs))
		for i, j := 0, 0; i < len(fills); i++ {
			if f := fills[i]; f.fetched > 0 {
				dst := moved[(plan.dataAt[j]-plan.base)*cs:][:f.fetched*cs]
				copy(dst, f.buf)
				f.buf, j = dst, j+1
			}
		}
		spanBufs.put(buf)
		buf = moved
	}
	res := buf[:(plan.end-plan.base)*cs]
	if len(commit) > 0 {
		if err := img.commitRun(commit, plan, res); err != nil {
			img.mu.Unlock()
			return buf, false, err
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
	for _, f := range fills {
		if f.fetched > 0 {
			img.stats.FillLatency.Observe(lat)
		}
	}
	return buf, short || tripped, nil
}

// setCacheFull trips the §4.3 space error. Caller holds img.mu exclusively.
func (img *Image) setCacheFull() {
	if !img.cacheFull {
		img.cacheFull = true
		img.stats.CacheFullEvents.Add(1)
	}
}

// clusterRun is a run of n virtual clusters starting at vc that takes n
// clusters of the reservation, its slots bound to them with entryCopied. A
// run may instead name its one slot's entry: entryCompressed alone binds the
// blob laid out in its reserved cluster; entryCompressed with an offset binds
// a blob already written to an open blob cluster, and the run reserves
// nothing.
type clusterRun struct {
	vc, n int64
	entry uint64
}

// data is the number of reservation clusters the run takes.
func (r clusterRun) data() int64 {
	if r.entry&entryOffsetMask != 0 {
		return 0
	}
	return r.n
}

// slot is the L2 entry of the run's cluster whose data lies at phys.
func (r clusterRun) slot(phys int64) uint64 {
	switch {
	case r.entry == 0:
		return uint64(phys) | entryCopied
	case r.entry&entryOffsetMask != 0:
		return r.entry
	}
	return uint64(phys) | r.entry
}

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
// The blocks below scanned exist or are the plan's own (rbs), so only the
// blocks the plan creates are tracked. When the refcount table must first
// grow to index need blocks it returns need > 0 and no plan. Caller holds
// img.mu.
func (img *Image) planCommit(runs []clusterRun) (p commitPlan, need int64) {
	l2e, rbe := img.ly.l2Entries, img.ly.refBlockEnts
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
		end := next + img.clustersNeededAt(next, scanned, r.data()+tables)
		if blocks := ceilDiv(end, rbe); blocks > int64(len(img.refTable)) {
			return commitPlan{}, blocks
		}
		at := next
		for ; scanned < ceilDiv(end, rbe); scanned++ {
			if img.refTable[scanned]&entryOffsetMask == 0 {
				p.rbs, p.rbAt = append(p.rbs, scanned), append(p.rbAt, at)
				at++
			}
		}
		for range tables {
			p.l2At = append(p.l2At, at)
			at++
		}
		p.dataAt = append(p.dataAt, end-r.data())
		next = end
	}
	p.end = next
	if len(p.l1s) > 1 {
		sort.Sort(byIndex{p.l1s, p.l2At}) // boxing it allocates
	}
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

// landRun plans run r, lays out its reservation — put fills in the run's
// data clusters, which end it — and commits it. It returns the run's first
// data cluster. A failed put lands nothing (a refcount-table growth the plan
// needed stays: it is whole on its own). Caller holds img.mu exclusively and
// has admitted the run against any quota.
func (img *Image) landRun(r clusterRun, put func(data []byte) error) (int64, error) {
	runs := []clusterRun{r}
	p, err := img.planLocked(runs)
	if err != nil {
		return 0, err
	}
	cs := img.ly.clusterSize
	res := spanBufs.get(int((p.end - p.base) * cs))
	defer spanBufs.put(res)
	if put != nil {
		if err := put(res[(p.dataAt[0]-p.base)*cs:]); err != nil {
			return 0, err
		}
	}
	return p.dataAt[0], img.commitRun(runs, p, res)
}

// l2Edit is one L2 table a commit binds clusters in: the touched slot range
// [lo, hi), and either a new table (newIdx, its index in the plan's new
// tables; vals is the whole table) or a bound one (newIdx -1; vals is the
// range's slots, tbl the cached table they go to once written).
type l2Edit struct {
	l1i, lo, hi int64
	newIdx      int
	vals, tbl   []uint64
}

// commitRun lands runs as p places them. res is the reservation
// [p.base, p.end) with every run's data already at its planned clusters; the
// commit fills in the new metadata and writes the reservation in one write.
// Every writer lands its clusters through here — demand and window fills,
// guest copy-on-write, compressed import — and the writes go out in the one
// order that makes every crash point at worst a leak:
//
//	the reservation: new refcount blocks and L2 tables with their final
//	content, and the data → refcounts in pre-existing blocks (one write per
//	block) → refcount-table slots of the new blocks → slots of pre-existing
//	L2 tables (one write per table) → L1 slots of the new tables
//
// New metadata is unreachable until its refcount-table or L1 slot is written,
// so it carries its final content from the first write. The allocator moves
// past the whole reservation before the first write, so a failed commit can
// only leak; every in-memory table is updated after its write-back succeeded,
// never before. Caller holds img.mu exclusively, has admitted the runs
// against the quota and planned them with planLocked.
func (img *Image) commitRun(runs []clusterRun, p commitPlan, res []byte) error {
	cs, l2e, rbe := img.ly.clusterSize, img.ly.l2Entries, img.ly.refBlockEnts
	img.nextFree = p.end

	// The edited tables, sorted by L1 index, with their touched slots.
	var few [4]l2Edit
	edits := few[:0]
	edit := func(l1i int64) *l2Edit {
		k, ok := slices.BinarySearchFunc(edits, l1i, func(e l2Edit, i int64) int { return int(e.l1i - i) })
		if !ok {
			edits = slices.Insert(edits, k, l2Edit{l1i: l1i, lo: l2e, newIdx: -1})
		}
		return &edits[k]
	}
	for _, r := range runs {
		for c, end := r.vc, r.vc+r.n; c < end; c = (c/l2e + 1) * l2e {
			e := edit(c / l2e)
			e.lo, e.hi = minI64(e.lo, c%l2e), maxI64(e.hi, minI64(l2e, c%l2e+end-c))
		}
	}
	for i := range edits {
		e := &edits[i]
		if k, ok := slices.BinarySearch(p.l1s, e.l1i); ok {
			e.newIdx, e.lo, e.hi, e.vals = k, 0, l2e, make([]uint64, l2e)
			continue
		}
		t, err := img.loadL2(int64(img.l1[e.l1i] & entryOffsetMask))
		if err != nil {
			return err
		}
		e.tbl, e.vals = t, slices.Clone(t[e.lo:e.hi])
	}
	for i, r := range runs {
		phys, step := p.dataAt[i]*cs, cs
		if r.data() == 0 {
			step = 0
		}
		for c, end := r.vc, r.vc+r.n; c < end; {
			e := edit(c / l2e)
			for ; c < end && c/l2e == e.l1i; c, phys = c+1, phys+step {
				e.vals[c%l2e-e.lo] = r.slot(phys)
			}
		}
	}

	// The new metadata's final content: the reservation's refcounts in the
	// new blocks, the runs' entries in the new tables.
	for k, rb := range p.rbs {
		blk := res[(p.rbAt[k]-p.base)*cs:][:cs]
		clear(blk)
		for c := maxI64(p.base, rb*rbe); c < minI64(p.end, (rb+1)*rbe); c++ {
			blk[(c-rb*rbe)*refcountEntrySz+1] = 1 // big-endian uint16(1)
		}
	}
	for _, e := range edits {
		if e.newIdx >= 0 {
			tbl := res[(p.l2At[e.newIdx]-p.base)*cs:][:cs]
			for i, v := range e.vals {
				binary.BigEndian.PutUint64(tbl[i*l2EntrySize:], v)
			}
		}
	}
	if len(res) > 0 {
		if err := backend.WriteFull(img.f, res, p.base*cs); err != nil {
			return err
		}
	}
	if err := img.setRefcounts(p.base, p.end, 1, p.rbs); err != nil {
		return err
	}
	if len(p.rbs) > 0 {
		if err := img.installSlots(img.refTable, int64(img.hdr.RefTableOffset), p.rbs, p.rbAt, 0); err != nil {
			return err
		}
	}
	for _, e := range edits {
		if e.newIdx >= 0 {
			continue
		}
		if err := img.writeSlots(int64(img.l1[e.l1i]&entryOffsetMask)+e.lo*l2EntrySize, e.vals); err != nil {
			return err
		}
		copy(e.tbl[e.lo:e.hi], e.vals)
	}
	if len(p.l1s) > 0 {
		if err := img.installSlots(img.l1, int64(img.hdr.L1TableOffset), p.l1s, p.l2At, entryCopied); err != nil {
			return err
		}
		for _, e := range edits {
			if e.newIdx >= 0 {
				img.l2c.put(int64(img.l1[e.l1i]&entryOffsetMask), e.vals)
			}
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
