package qcow

import (
	"encoding/binary"
	"fmt"

	"vmicache/internal/backend"
)

// refcount bookkeeping. Clusters are allocated by a bump allocator at the
// end of the file (QCOW2 allocates first-fit over refcounts; a bump
// allocator is equivalent for the paper's workloads, which never free data
// clusters). Refcounts still exist and are maintained exactly, because
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

// setRefcount writes the refcount of cluster c, allocating a refcount block
// (and growing the refcount table) as needed.
func (img *Image) setRefcount(c int64, v uint16) error {
	rbIdx := c / img.ly.refBlockEnts
	if rbIdx >= int64(len(img.refTable)) {
		if err := img.growRefTable(rbIdx + 1); err != nil {
			return err
		}
	}
	rbOff := int64(img.refTable[rbIdx] & entryOffsetMask)
	if rbOff == 0 {
		// Allocate a refcount block. The new block is taken from the
		// bump allocator *without* immediate refcount accounting to
		// avoid unbounded recursion; its own count is set right after
		// the table entry is in place.
		newOff := img.nextFree * img.ly.clusterSize
		img.nextFree++
		zero := img.cbuf.getZero(int(img.ly.clusterSize))
		err := backend.WriteFull(img.f, zero, newOff)
		img.cbuf.put(zero)
		if err != nil {
			return err
		}
		img.refTable[rbIdx] = uint64(newOff)
		if err := img.writeRefTableEntry(rbIdx); err != nil {
			return err
		}
		rbOff = newOff
		// Self-account the refblock cluster. Its refcount entry may
		// live in this very block or an earlier one; either way the
		// table entry now exists, so plain recursion terminates.
		if err := img.setRefcount(newOff/img.ly.clusterSize, 1); err != nil {
			return err
		}
	}
	var b [refcountEntrySz]byte
	binary.BigEndian.PutUint16(b[:], v)
	off := rbOff + (c%img.ly.refBlockEnts)*refcountEntrySz
	return backend.WriteFull(img.f, b[:], off)
}

// writeRefTableEntry persists one refcount-table slot.
func (img *Image) writeRefTableEntry(idx int64) error {
	return img.writeSlots(int64(img.hdr.RefTableOffset)+idx*refTableEntrySz, img.refTable[idx:idx+1])
}

// growRefTable relocates the refcount table to the end of the file with room
// for at least minEntries entries. The old table's clusters are freed
// (refcount 0); the bump allocator does not reuse them, which `check`
// reports as acceptable leaks only if we left them referenced — so they are
// explicitly zeroed.
func (img *Image) growRefTable(minEntries int64) error {
	oldClusters := int64(img.hdr.RefTableClusters)
	newClusters := oldClusters * 2
	for newClusters*img.ly.clusterSize/refTableEntrySz < minEntries {
		newClusters *= 2
	}
	newOff := img.nextFree * img.ly.clusterSize
	img.nextFree += newClusters

	newTable := make([]uint64, newClusters*img.ly.clusterSize/refTableEntrySz)
	copy(newTable, img.refTable)
	buf := make([]byte, newClusters*img.ly.clusterSize)
	for i, e := range newTable {
		binary.BigEndian.PutUint64(buf[i*8:], e)
	}
	if err := backend.WriteFull(img.f, buf, newOff); err != nil {
		return err
	}

	oldOff := int64(img.hdr.RefTableOffset)
	img.hdr.RefTableOffset = uint64(newOff)
	img.hdr.RefTableClusters = uint32(newClusters)
	img.refTable = newTable
	if err := img.rewriteHeader(); err != nil {
		return err
	}
	// Account the new table clusters and release the old ones.
	for i := int64(0); i < newClusters; i++ {
		if err := img.setRefcount(newOff/img.ly.clusterSize+i, 1); err != nil {
			return err
		}
	}
	for i := int64(0); i < oldClusters; i++ {
		if err := img.setRefcount(oldOff/img.ly.clusterSize+i, 0); err != nil {
			return err
		}
	}
	return nil
}

// rewriteHeader re-encodes and rewrites the header cluster (used only when
// header fields beyond the cache-used counter change).
func (img *Image) rewriteHeader() error {
	buf, err := img.hdr.encode(img.ly.clusterSize)
	if err != nil {
		return err
	}
	return backend.WriteFull(img.f, buf, 0)
}

// allocCluster returns the physical offset of a fresh, refcounted cluster for
// the single-cluster writers (copy-on-write, compressed import, L2 tables);
// copy-on-read fills allocate a run at a time through commitRun. When zeroed
// is true the cluster is zero-filled (metadata, and blob clusters that fill
// up piecemeal); otherwise the caller overwrites the whole cluster, which
// also extends the container over it.
func (img *Image) allocCluster(zeroed bool) (int64, error) {
	c := img.nextFree
	img.nextFree++
	off := c * img.ly.clusterSize
	if zeroed {
		zero := img.cbuf.getZero(int(img.ly.clusterSize))
		err := backend.WriteFull(img.f, zero, off)
		img.cbuf.put(zero)
		if err != nil {
			return 0, err
		}
	}
	if err := img.setRefcount(c, 1); err != nil {
		return 0, err
	}
	return off, nil
}

// clustersNeededFor computes exactly how many clusters an allocation of
// extra clusters (data plus L2 tables) will take, including any refcount
// blocks (and refcount-table growth) the allocation itself triggers. Used by
// the cache quota check so the "space error" fires *before* the cache
// overshoots its quota.
func (img *Image) clustersNeededFor(extra int64) int64 {
	return img.clustersNeededAt(img.nextFree, img.refTable, extra)
}

// clustersNeededAt is clustersNeededFor with the allocator at next and the
// refcount table refTable (planCommit's view after earlier runs).
func (img *Image) clustersNeededAt(next int64, refTable []uint64, extra int64) int64 {
	total := extra
	for {
		end := next + total
		// Refcount blocks missing for clusters [0, end).
		var rbMissing int64
		rbNeeded := ceilDiv(end, img.ly.refBlockEnts)
		for i := int64(0); i < rbNeeded; i++ {
			if i >= int64(len(refTable)) || refTable[i]&entryOffsetMask == 0 {
				rbMissing++
			}
		}
		// Refcount-table growth, if the table cannot index rbNeeded.
		var growth int64
		if rbNeeded > int64(len(refTable)) {
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

// debugString summarises allocator state for error messages.
func (img *Image) debugString() string {
	return fmt.Sprintf("clusters=%d used=%dB l1=%d refTableEntries=%d",
		img.nextFree, img.usedBytes(), len(img.l1), len(img.refTable))
}
