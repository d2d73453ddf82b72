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
//   - mappedRead, the in-process side: a read-only image attached to a
//     shared table set copies its raw extents out of the set's one mapping
//     of the file instead of issuing a pread per extent.

import (
	"runtime/debug"

	"vmicache/internal/zerocopy"
)

// PlainExtents implements zerocopy.ExtentSource: it appends the container-
// file extents covering the guest range [off, off+n) to dst and reports
// whether the WHOLE range is raw and owned by this image. ok == false — a
// compressed cluster, an unallocated run deferring to backing, a writable
// image, or a non-os-backed container anywhere in the range — means the caller must serve the entire
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

// mappedRead serves one raw extent from the table set's mapping when the
// image is attached to a set whose file maps and the mapping covers the
// extent; it reports whether it did. The copy needs no lock: the image is
// read-only, bound clusters never move, and the set unmaps only after every
// attached image has closed. A fault inside the copy (the file truncated or
// its medium failing under the mapping) reports false, so the pread path
// reads the extent and returns the error it meets instead of the process
// dying of SIGBUS.
func (img *Image) mappedRead(seg []byte, dataOff int64) bool {
	if img.tables == nil {
		return false
	}
	m := img.tables.mapping(img.f)
	if dataOff+int64(len(seg)) > int64(len(m)) || !copyMapped(seg, m[dataOff:]) {
		return false
	}
	img.stats.MmapReads.Add(1)
	img.stats.MmapReadBytes.Add(int64(len(seg)))
	return true
}

// copyMapped copies src into dst with faults turned into a false return.
func copyMapped(dst, src []byte) (ok bool) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer func() {
		if r := recover(); r != nil {
			if _, fault := r.(interface{ Addr() uintptr }); !fault {
				panic(r)
			}
			ok = false
		}
	}()
	copy(dst, src)
	return true
}
