package qcow

import (
	"encoding/binary"
	"sync/atomic"
	"time"

	"vmicache/internal/backend"
)

// Sub-cluster allocation tracking. Whole-cluster copy-on-read is what makes
// 64 KiB cache clusters amplify cold-boot base traffic in Fig. 9: every miss
// fetches a full cluster even when the guest asked for one page. The
// sub-cluster extension keeps the cluster as the allocation unit but tracks
// validity at sub-cluster (4 KiB) granularity in a persistent bitmap table —
// one big-endian uint64 word per virtual cluster, fixed at create time right
// after the initial metadata. A cold miss then fetches only the sub-clusters
// the request touches, and CompleteAll (complete.go) tops the cluster up
// before the cache is published.
//
// Invariants the bitmap adds (verified by Check):
//
//   - a cluster's word is non-zero iff the cluster is allocated raw: data is
//     written before its bits are persisted, and the bits are persisted
//     before the L2 bind, so a crash tears into a detectable state (bits set
//     for an unallocated cluster, or an allocated cluster with no bits);
//   - no bits are set above the cluster's tail mask (sub-clusters past the
//     virtual size).
//
// Sub-fills reuse the fill singleflight: an in-place fill claims the
// single-cluster run [vc, vc+1), which both serialises writers of the same
// cluster and excludes the whole-run fills (claims never overlap). A
// sub-fill leader leaves f.fetched == 0, so waiters re-translate instead of
// reading a buffer that only covers the leader's sub-clusters.

// subState is the in-memory mirror of the sub-cluster bitmap table.
type subState struct {
	subBits  uint32
	subSize  int64
	per      int64 // sub-clusters per cluster (<= 64)
	tableOff int64
	clusters int64 // virtual clusters covered by the table
	size     int64 // virtual image size

	// words holds one validity word per virtual cluster (bit i = sub-cluster
	// i valid); full holds one bit per cluster, set once the word reaches
	// the cluster's full mask — the lock-free hot-path test that keeps warm
	// reads off the bitmap entirely.
	words []atomic.Uint64
	full  []atomic.Uint64
}

// subTableClusters returns how many clusters the bitmap table occupies for a
// virtual size.
func subTableClusters(ly layout, size int64) int64 {
	return ly.clustersFor(ly.clustersFor(size) * 8)
}

func newSubState(hdr *Header, ly layout) *subState {
	clusters := ly.clustersFor(int64(hdr.Size))
	sb := hdr.SubBits
	return &subState{
		subBits:  sb,
		subSize:  int64(1) << sb,
		per:      ly.clusterSize >> sb,
		tableOff: int64(hdr.SubTableOffset),
		clusters: clusters,
		size:     int64(hdr.Size),
		words:    make([]atomic.Uint64, clusters),
		full:     make([]atomic.Uint64, (clusters+63)/64),
	}
}

// load reads the on-disk table into memory and derives the full bits.
func (s *subState) load(f backend.File) error {
	buf := make([]byte, s.clusters*8)
	if err := backend.ReadFull(f, buf, s.tableOff); err != nil {
		return err
	}
	for vc := int64(0); vc < s.clusters; vc++ {
		w := binary.BigEndian.Uint64(buf[vc*8:])
		s.words[vc].Store(w)
		if w == s.fullMask(vc) {
			s.setFullBit(vc)
		}
	}
	return nil
}

// fullMask is the word value meaning "every sub-cluster inside the virtual
// size is valid". The image's final cluster may cover fewer sub-clusters.
func (s *subState) fullMask(vc int64) uint64 {
	n := s.per
	if tail := s.size - vc*(s.per<<s.subBits); tail < s.per<<s.subBits {
		n = ceilDiv(tail, s.subSize)
	}
	if n >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << n) - 1
}

// maskRange returns the bits of the sub-clusters intersecting the in-cluster
// byte range [b0, b1).
func (s *subState) maskRange(b0, b1 int64) uint64 {
	s0 := b0 >> s.subBits
	s1 := (b1 + s.subSize - 1) >> s.subBits
	if s1-s0 >= 64 {
		return ^uint64(0) << s0
	}
	return ((uint64(1) << (s1 - s0)) - 1) << s0
}

// isFull is the hot-path test: one atomic load, no allocation.
func (s *subState) isFull(vc int64) bool {
	return s.full[vc>>6].Load()&(uint64(1)<<(vc&63)) != 0
}

func (s *subState) setFullBit(vc int64) {
	w := &s.full[vc>>6]
	bit := uint64(1) << (vc & 63)
	for {
		old := w.Load()
		if old&bit != 0 || w.CompareAndSwap(old, old|bit) {
			return
		}
	}
}

// or merges bits into a cluster's word and returns the new value; the full
// bit is derived by the caller after persisting.
func (s *subState) or(vc int64, bits uint64) uint64 {
	w := &s.words[vc]
	for {
		old := w.Load()
		if old&bits == bits {
			return old
		}
		if w.CompareAndSwap(old, old|bits) {
			return old | bits
		}
	}
}

// set installs the word of a cluster a run commit just bound (its bits are
// already durable) and derives the full bit.
func (s *subState) set(vc int64, w uint64) {
	s.words[vc].Store(w)
	if w == s.fullMask(vc) {
		s.setFullBit(vc)
	}
}

// persistWord write-throughs one cluster's word to the on-disk table.
// Caller holds img.mu exclusively (same discipline as writeL2Entry).
func (img *Image) persistSubWord(vc int64, w uint64) error {
	return img.writeSlots(img.sub.tableOff+vc*8, []uint64{w})
}

// publishSubBits merges freshly filled bits under the write lock: memory,
// then disk, then the full-bit fast path. Data for the bits must already be
// on disk.
func (img *Image) publishSubBits(vc int64, bits uint64) error {
	s := img.sub
	nw := s.or(vc, bits)
	if err := img.persistSubWord(vc, nw); err != nil {
		return err
	}
	if nw == s.fullMask(vc) {
		s.setFullBit(vc)
	}
	return nil
}

// subReadPartial serves seg (guest range starting at pos, lying inside the
// allocated raw cluster vc at dataOff) when the cluster is not known full.
// Valid sub-clusters are read in place; missing ones are either demand-filled
// through the fill singleflight (fillable) or passed through to the backing
// source. Returns bytes served; 0 means the caller must re-translate (a fill
// just changed the validity picture). Called with no image lock held.
func (img *Image) subReadPartial(vc, pos int64, seg []byte, dataOff int64, backing BlockSource, fillable bool) (int, error) {
	s := img.sub
	cs := img.ly.clusterSize
	b0 := pos - vc*cs
	b1 := b0 + int64(len(seg))
	required := s.maskRange(b0, b1)
	w := s.words[vc].Load()

	if required&^w == 0 {
		// Every requested sub-cluster is valid: an in-place hit.
		if err := backend.ReadFull(img.f, seg, dataOff+b0); err != nil {
			return 0, err
		}
		img.stats.LocalBytes.Add(int64(len(seg)))
		img.stats.SubclusterPartialHits.Add(1)
		return len(seg), nil
	}

	if !fillable || backing == nil {
		// Read-only attach (or no backing): serve valid sub-clusters from
		// the cache, pass the rest through, sub-cluster run by run.
		for o := b0; o < b1; {
			sc := o >> s.subBits
			valid := w&(uint64(1)<<sc) != 0
			end := o
			for end < b1 && (w&(uint64(1)<<(end>>s.subBits)) != 0) == valid {
				end = minI64((end>>s.subBits+1)<<s.subBits, b1)
			}
			part := seg[o-b0 : end-b0]
			if valid {
				if err := backend.ReadFull(img.f, part, dataOff+o); err != nil {
					return 0, err
				}
				img.stats.LocalBytes.Add(int64(len(part)))
			} else if backing != nil {
				if err := img.readBacking(backing, part, vc*cs+o); err != nil {
					return 0, err
				}
			} else {
				clear(part)
			}
			o = end
		}
		img.stats.SubclusterPartialHits.Add(1)
		return len(seg), nil
	}

	// Demand sub-fill: claim the single-cluster run so concurrent fillers
	// of this cluster (guest misses, CompleteAll) serialise.
	f, leader := img.claimRun(vc, 1)
	defer f.release()
	if leader {
		img.subLeadFill(f, vc, required, backing, &img.stats.SubclusterFills)
	} else {
		img.stats.FillWaits.Add(1)
		<-f.done
	}
	if f.err != nil {
		return 0, f.err
	}
	return 0, nil // bits changed; re-translate and hit the in-place path
}

// subLeadFill fetches the requested-but-missing sub-clusters of one
// allocated cluster from the backing source, writes them in place, and
// publishes the bits. counter selects the metric (demand fills vs CompleteAll
// completions). The caller holds the claim on [vc, vc+1).
func (img *Image) subLeadFill(f *fill, vc int64, required uint64, backing BlockSource, counter *atomic.Int64) {
	start := time.Now()
	defer func() {
		img.unclaim(f)
		close(f.done)
	}()
	s := img.sub
	cs := img.ly.clusterSize

	// Re-validate under the read lock: the cluster cannot move or be
	// freed, but its word may have grown since the caller's probe.
	img.mu.RLock()
	m, err := img.lookup(vc)
	if err != nil {
		img.mu.RUnlock()
		f.err = err
		return
	}
	dataOff := m.dataOff
	compressed := m.compressed
	w := s.words[vc].Load()
	img.mu.RUnlock()
	if dataOff == 0 || compressed {
		return // raced with a reshape we don't handle; waiters re-translate
	}
	missing := required &^ w & s.fullMask(vc)
	if missing == 0 {
		return
	}

	// Fetch and write each contiguous missing run: data first, bits after.
	var fetched, nsubs int64
	for s0 := int64(0); s0 < s.per; {
		if missing&(uint64(1)<<s0) == 0 {
			s0++
			continue
		}
		s1 := s0
		for s1 < s.per && missing&(uint64(1)<<s1) != 0 {
			s1++
		}
		segStart := vc*cs + s0*s.subSize
		segLen := (s1 - s0) * s.subSize
		fetchLen := minI64(segLen, s.size-segStart)
		buf := spanBufs.get(int(segLen))
		clear(buf[fetchLen:])
		err := img.readBacking(backing, buf[:fetchLen], segStart)
		if err == nil {
			err = backend.WriteFull(img.f, buf, dataOff+s0*s.subSize)
		}
		spanBufs.put(buf)
		if err != nil {
			f.err = err
			return
		}
		fetched += fetchLen
		nsubs += s1 - s0
		s0 = s1
	}

	img.mu.Lock()
	err = img.publishSubBits(vc, missing)
	counter.Add(nsubs)
	img.stats.CacheFillOps.Add(1)
	img.stats.CacheFillBytes.Add(fetched)
	img.mu.Unlock()
	if err != nil {
		f.err = err
		return
	}
	img.stats.FillLatency.Observe(time.Since(start).Nanoseconds())
	// f.fetched stays 0: the fill was in place, so waiters re-translate.
}

// SubclusterState summarises the bitmap for Info and qimg.
type SubclusterState struct {
	SubclusterSize  int64
	PartialClusters int64 // allocated clusters not yet fully valid
	FullClusters    int64
}

// Subclusters reports the image's sub-cluster configuration (nil state when
// the extension is absent).
func (img *Image) Subclusters() (SubclusterState, bool) {
	s := img.sub
	if s == nil {
		return SubclusterState{}, false
	}
	st := SubclusterState{SubclusterSize: s.subSize}
	for vc := int64(0); vc < s.clusters; vc++ {
		switch w := s.words[vc].Load(); {
		case w == 0:
		case w == s.fullMask(vc):
			st.FullClusters++
		default:
			st.PartialClusters++
		}
	}
	return st, true
}
