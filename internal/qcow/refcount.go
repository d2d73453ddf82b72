package qcow

import (
	"encoding/binary"
	"fmt"
	"slices"

	"vmicache/internal/backend"
)

// refcount bookkeeping. Clusters are allocated by a bump allocator at the
// end of the file, in commitRun's reservations and growRefTable's layout
// (QCOW2 allocates first-fit over refcounts; a bump allocator is equivalent
// for the paper's workloads, which never free data clusters). Refcounts still exist and are maintained exactly, because
// `qimg check` uses them to validate images and the cache-quota computation
// must account metadata clusters precisely.

// readRefTable loads the refcount table of a file of sz bytes. Its length is
// a header field, so it is bounded by the file before it is allocated for.
func readRefTable(f backend.File, hdr *Header, ly layout, sz int64) ([]uint64, error) {
	n := int64(hdr.RefTableClusters) * ly.clusterSize
	if !within(hdr.RefTableOffset, uint64(n), sz) {
		return nil, fmt.Errorf("%w: refcount table beyond end of file", ErrCorrupt)
	}
	buf := tableBufs.get(int(n))
	defer tableBufs.put(buf)
	if err := backend.ReadFull(f, buf, int64(hdr.RefTableOffset)); err != nil {
		return nil, fmt.Errorf("qcow: reading refcount table: %w", err)
	}
	t := make([]uint64, n/refTableEntrySz)
	for i := range t {
		t[i] = binary.BigEndian.Uint64(buf[i*refTableEntrySz:])
	}
	return t, nil
}

// refcount reads the refcount of cluster c (writable images only: a
// read-only image holds no refcount table).
func (img *Image) refcount(c int64) (uint16, error) {
	rbIdx := c / img.ly.refBlockEnts
	if rbIdx >= int64(len(img.refTable)) {
		return 0, nil
	}
	rbOff := int64(img.refTable[rbIdx] & entryOffsetMask)
	if rbOff == 0 {
		return 0, nil
	}
	var b [refcountEntrySz]byte
	off := rbOff + (c%img.ly.refBlockEnts)*refcountEntrySz
	if err := backend.ReadFull(img.f, b[:], off); err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint16(b[:]), nil
}

// setRefcounts sets the refcount of every cluster in [lo, hi) to v in place,
// one write per refcount block, skipping the blocks in skip (ascending: new
// blocks a commit writes whole). It never creates a block: every cluster it
// is given lies under an existing one.
func (img *Image) setRefcounts(lo, hi int64, v uint16, skip []int64) error {
	rbe := img.ly.refBlockEnts
	if lo >= hi {
		return nil
	}
	counts := make([]byte, minI64(hi-lo, rbe)*refcountEntrySz)
	for i := 0; i < len(counts); i += refcountEntrySz {
		binary.BigEndian.PutUint16(counts[i:], v)
	}
	for rb := lo / rbe; rb*rbe < hi; rb++ {
		if _, ok := slices.BinarySearch(skip, rb); ok {
			continue
		}
		a, b := maxI64(lo, rb*rbe), minI64(hi, (rb+1)*rbe)
		off := int64(img.refTable[rb] & entryOffsetMask)
		if off == 0 {
			return fmt.Errorf("%w: cluster %d has no refcount block", ErrCorrupt, a)
		}
		if err := backend.WriteFull(img.f, counts[:(b-a)*refcountEntrySz], off+(a-rb*rbe)*refcountEntrySz); err != nil {
			return err
		}
	}
	return nil
}

// growRefTable moves the refcount table to the end of the file with room for
// at least minEntries entries. The new table and the refcount blocks its own
// clusters need are laid out in memory and go out in one write; then the
// counts of its clusters that fall in pre-existing blocks, the header switch
// to the new table, and the release of the old table's clusters (refcount
// 0; the bump allocator does not reuse them). A crash before the switch
// leaks at worst the new clusters, one after it the old table's.
func (img *Image) growRefTable(minEntries int64) error {
	cs, rbe := img.ly.clusterSize, img.ly.refBlockEnts
	oldClusters := int64(img.hdr.RefTableClusters)
	newClusters := oldClusters * 2
	for newClusters*cs/refTableEntrySz < minEntries {
		newClusters *= 2
	}
	table := make([]uint64, newClusters*cs/refTableEntrySz)
	copy(table, img.refTable)
	base, end := img.nextFree, img.nextFree+newClusters
	var rbs []int64 // the new blocks, placed after the table, each counting itself too
	for rb := base / rbe; rb*rbe < end; rb++ {
		if table[rb]&entryOffsetMask == 0 {
			table[rb] = uint64(end * cs)
			rbs = append(rbs, rb)
			end++
		}
	}
	buf := make([]byte, (end-base)*cs)
	for i, e := range table {
		binary.BigEndian.PutUint64(buf[i*refTableEntrySz:], e)
	}
	for _, rb := range rbs {
		blk := buf[int64(table[rb]&entryOffsetMask)-base*cs:][:cs]
		for c := maxI64(base, rb*rbe); c < minI64(end, (rb+1)*rbe); c++ {
			blk[(c-rb*rbe)*refcountEntrySz+1] = 1 // big-endian uint16(1)
		}
	}
	img.nextFree = end
	if err := backend.WriteFull(img.f, buf, base*cs); err != nil {
		return err
	}
	if err := img.setRefcounts(base, end, 1, rbs); err != nil {
		return err
	}
	hdr := *img.hdr
	hdr.RefTableOffset, hdr.RefTableClusters = uint64(base*cs), uint32(newClusters)
	hb, err := hdr.encode(cs)
	if err != nil {
		return err
	}
	if err := backend.WriteFull(img.f, hb, 0); err != nil {
		return err
	}
	oldOff := int64(img.hdr.RefTableOffset)
	img.hdr.RefTableOffset, img.hdr.RefTableClusters = hdr.RefTableOffset, hdr.RefTableClusters
	img.refTable = table
	return img.setRefcounts(oldOff/cs, oldOff/cs+oldClusters, 0, nil)
}

// clustersNeededFor computes exactly how many clusters an allocation of
// extra clusters (data plus L2 tables) will take, including any refcount
// blocks (and refcount-table growth) the allocation itself triggers. Used by
// the cache quota check so the "space error" fires *before* the cache
// overshoots its quota.
func (img *Image) clustersNeededFor(extra int64) int64 {
	return img.clustersNeededAt(img.nextFree, 0, extra)
}

// clustersNeededAt is clustersNeededFor with the allocator at next and the
// refcount blocks below covered known to exist (planCommit's view after
// earlier runs, whose new blocks it tracks itself).
func (img *Image) clustersNeededAt(next, covered, extra int64) int64 {
	total := extra
	for {
		end := next + total
		// Refcount blocks missing for clusters [0, end).
		var rbMissing int64
		rbNeeded := ceilDiv(end, img.ly.refBlockEnts)
		for i := covered; i < rbNeeded; i++ {
			if i >= int64(len(img.refTable)) || img.refTable[i]&entryOffsetMask == 0 {
				rbMissing++
			}
		}
		// Refcount-table growth, if the table cannot index rbNeeded.
		var growth int64
		if rbNeeded > int64(len(img.refTable)) {
			newClusters := int64(img.hdr.RefTableClusters) * 2
			for newClusters*img.ly.clusterSize/refTableEntrySz < rbNeeded {
				newClusters *= 2
			}
			growth = newClusters
		}
		newTotal := extra + rbMissing + growth
		if newTotal == total {
			return total
		}
		total = newTotal
	}
}

// worstCaseFillBytes is the byte cost of the largest single fill: one data
// cluster, one L2 table, and a refcount block.
func (img *Image) worstCaseFillBytes() int64 {
	return 3 * img.ly.clusterSize
}
