package qcow

// Zero-copy serve support (DESIGN.md §15). Two fast paths live here:
//
//   - PlainExtents, the extent-EXPORT side: a read over fully-valid raw
//     clusters of a read-only image is translated into (file, offset,
//     length) runs instead of bytes, so a network server can sendfile the
//     payload straight from the container to the socket. Only read-only
//     images offer the contract — their cluster mappings are frozen, so the
//     returned physical offsets stay valid with no lock held.
//
//   - EnableMmap, the in-process side: the container is mapped read-only
//     and warm raw reads become a copy from the mapping instead of a pread
//     syscall per op, with madvise(WILLNEED) pre-faulting the metadata
//     tables. Gated by a flag because it trades address space for syscalls.

import (
	"vmicache/internal/zerocopy"
)

// PlainExtents implements zerocopy.ExtentSource: it appends the container-
// file extents covering the guest range [off, off+n) to dst and reports
// whether the WHOLE range is raw, fully valid, and owned by this image.
// ok == false — a compressed cluster, a partially-valid sub-cluster run, an
// unallocated run deferring to backing, a writable image, or a non-os-backed
// container anywhere in the range — means the caller must serve the entire
// request through the ordinary copy path. On success the image's guest-read
// counters are advanced, since the caller's I/O bypasses ReadAt.
func (img *Image) PlainExtents(off, n int64, dst []zerocopy.FileExtent) ([]zerocopy.FileExtent, bool) {
	if !img.ro || off < 0 || n <= 0 {
		return dst, false
	}
	sys := zerocopy.SysFile(img.f)
	if sys == nil {
		return dst, false
	}
	if err := img.enterRead(); err != nil {
		return dst, false
	}
	defer img.readers.Done()
	if off+n > int64(img.hdr.Size) {
		// The serve path clamps requests to the device size before asking;
		// a range the image cannot cover entirely goes to the copy path.
		return dst, false
	}

	base := len(dst)
	extp := img.getExtents()
	exts, _, terr := img.translateExtents(off, off+n, (*extp)[:0])
	*extp = exts
	ok := terr == nil
	if ok {
		for i := range exts {
			e := &exts[i]
			if e.kind != extRaw {
				ok = false
				break
			}
			// Coalesce across translation iterations too: fills allocate in
			// guest order, so physically adjacent runs are common.
			if k := len(dst); k > base && dst[k-1].Off+dst[k-1].Len == e.dataOff {
				dst[k-1].Len += e.length
			} else {
				dst = append(dst, zerocopy.FileExtent{F: sys, Off: e.dataOff, Len: e.length})
			}
		}
	}
	img.putExtents(extp)
	if !ok {
		return dst[:base], false
	}
	img.stats.GuestReadOps.Add(1)
	img.stats.GuestReadBytes.Add(n)
	if img.isCache {
		img.stats.LocalBytes.Add(n)
	}
	img.stats.ZeroCopyExports.Add(1)
	img.stats.ZeroCopyExportBytes.Add(n)
	return dst, true
}

// mmapRegion wraps the mapped container bytes behind an atomic pointer so
// the hot path pays one load, no lock.
type mmapRegion struct {
	data []byte
}

// EnableMmap maps the container read-only and switches warm raw reads to
// copy-from-mapping; the metadata tables reads walk (L1, allocated L2 tables
// and the sub-cluster bitmap) are madvise(WILLNEED)-prefaulted so the first
// boot does not fault them one page at a time. The refcount table is not:
// no read consults it, and Check reads it with pread. Only read-only images
// qualify (a growing container would need remaps), and the container must
// be os-backed; elsewhere zerocopy.ErrUnsupported is returned and the
// caller keeps the pread path.
func (img *Image) EnableMmap() error {
	if !img.ro {
		return ErrMmapWritable
	}
	sys := zerocopy.SysFile(img.f)
	if sys == nil {
		return zerocopy.ErrUnsupported
	}
	sz, err := img.f.Size()
	if err != nil {
		return err
	}
	m, err := zerocopy.Mmap(sys, sz)
	if err != nil {
		return err
	}
	// Pre-fault the metadata working set; advisory, so errors are ignored.
	zerocopy.AdviseWillNeed(m, int64(img.hdr.L1TableOffset), int64(img.hdr.L1Size)*l1EntrySize) //nolint:errcheck
	img.mu.RLock()
	if img.sub != nil {
		zerocopy.AdviseWillNeed(m, img.sub.tableOff, img.sub.clusters*8) //nolint:errcheck
	}
	for _, l1e := range img.l1 {
		if off := int64(l1e & entryOffsetMask); off != 0 {
			zerocopy.AdviseWillNeed(m, off, img.ly.clusterSize) //nolint:errcheck
		}
	}
	img.mu.RUnlock()
	if !img.mm.CompareAndSwap(nil, &mmapRegion{data: m}) {
		zerocopy.Munmap(m) //nolint:errcheck // losing racer releases its mapping
		return ErrMmapEnabled
	}
	return nil
}

// MmapEnabled reports whether the warm-read mapping is installed.
func (img *Image) MmapEnabled() bool { return img.mm.Load() != nil }

// closeMmap releases the mapping; called by Close after the reader drain, so
// no lock-free read can still be copying out of it.
func (img *Image) closeMmap() {
	if mm := img.mm.Swap(nil); mm != nil {
		zerocopy.Munmap(mm.data) //nolint:errcheck // advisory on teardown
	}
}

// mmapRead serves one raw extent from the mapping when it is installed and
// covers the run; reports whether it did. The copy is safe with no lock
// held for the same reason the pread path is: the image is read-only, so
// bound clusters never move and the file never shrinks.
func (img *Image) mmapRead(seg []byte, dataOff int64) bool {
	mm := img.mm.Load()
	if mm == nil || dataOff+int64(len(seg)) > int64(len(mm.data)) {
		return false
	}
	copy(seg, mm.data[dataOff:])
	img.stats.MmapReads.Add(1)
	img.stats.MmapReadBytes.Add(int64(len(seg)))
	return true
}
