package qcow

import (
	"encoding/binary"
	"fmt"
	"strings"

	"vmicache/internal/backend"
)

// maxCheckErrors caps CheckResult.Errors: Check gates every publication of a
// peer-fetched container, so a file with N bad entries must not make it
// format N strings.
const maxCheckErrors = 64

// CheckResult summarises a consistency pass over an image, in the spirit of
// `qemu-img check`.
type CheckResult struct {
	// Errors are fatal inconsistencies (entries pointing outside the
	// file, a referenced cluster counted below its references): the first
	// maxCheckErrors of them; ErrorsOmitted counts the rest.
	Errors        []string
	ErrorsOmitted int
	// Leaks are clusters counted above their references — with no
	// referencing structure at all, or with fewer references than their
	// refcount. Either wastes space; neither can free a live cluster.
	Leaks int
	// AllocatedClusters counts reachable clusters of any kind.
	AllocatedClusters int64
	// DataClusters counts reachable guest-data clusters.
	DataClusters int64
}

// OK reports whether the image is consistent (leaks allowed).
func (r *CheckResult) OK() bool { return len(r.Errors) == 0 }

func (r *CheckResult) errorf(format string, args ...any) {
	if len(r.Errors) < maxCheckErrors {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	} else {
		r.ErrorsOmitted++
	}
}

// String renders the result in a human-readable form.
func (r *CheckResult) String() string {
	var b strings.Builder
	if r.OK() {
		fmt.Fprintf(&b, "No errors found. %d clusters allocated (%d data), %d leaked.\n",
			r.AllocatedClusters, r.DataClusters, r.Leaks)
		return b.String()
	}
	fmt.Fprintf(&b, "%d errors:\n", len(r.Errors)+r.ErrorsOmitted)
	for _, e := range r.Errors {
		fmt.Fprintf(&b, "  %s\n", e)
	}
	if r.ErrorsOmitted > 0 {
		fmt.Fprintf(&b, "  ... and %d more\n", r.ErrorsOmitted)
	}
	return b.String()
}

// Check walks all metadata and cross-validates it against the refcounts. It
// does I/O by the block — each L2 table and each refcount block is read once
// — and tallies the expected counts in a slice the refcount table bounds.
func (img *Image) Check() (*CheckResult, error) {
	img.mu.RLock()
	defer img.mu.RUnlock()
	if img.closed {
		return nil, ErrClosed
	}
	res := &CheckResult{}
	fileSize, err := img.f.Size()
	if err != nil {
		return nil, err
	}
	// A read-only image keeps no refcount table (only allocation needs
	// one), so Check reads its own; nothing on the image is written under
	// the shared lock.
	refTable := img.refTable
	if img.ro {
		if refTable, err = readRefTable(img.f, img.hdr, img.ly, fileSize); err != nil {
			return nil, err
		}
	}
	cs, rbe := img.ly.clusterSize, img.ly.refBlockEnts
	totalClusters := ceilDiv(fileSize, cs)
	// Every allocated cluster has a refcount, so a valid file is never
	// longer than its refcount table can index. The table was read from
	// the file; the length is only a number, and is not allocated for.
	if indexable := int64(len(refTable)) * rbe; totalClusters > indexable {
		res.errorf("file holds %d clusters, the refcount table indexes %d", totalClusters, indexable)
		return res, nil
	}
	expected := make([]uint32, totalClusters) // cluster -> expected refcount

	// ref tallies one reference to the cluster at off; a non-empty return
	// says why it could not, for the caller to report.
	ref := func(off int64) string {
		if off%cs != 0 {
			return "is not cluster aligned"
		}
		if off/cs >= totalClusters {
			return "lies beyond end of file"
		}
		expected[off/cs]++
		return ""
	}
	refMeta := func(off int64, what string, i int64) {
		if bad := ref(off); bad != "" {
			res.errorf("%s %d at %#x %s", what, i, off, bad)
		}
	}

	refMeta(0, "header cluster", 0)
	for i := int64(0); i < int64(img.hdr.RefTableClusters); i++ {
		refMeta(int64(img.hdr.RefTableOffset)+i*cs, "refcount table cluster", i)
	}
	for i, e := range refTable {
		if off := int64(e & entryOffsetMask); off != 0 {
			refMeta(off, "refcount block", int64(i))
		}
	}
	for i := int64(0); i < ceilDiv(int64(img.hdr.L1Size)*l1EntrySize, cs); i++ {
		refMeta(int64(img.hdr.L1TableOffset)+i*cs, "L1 table cluster", i)
	}
	// L2 tables and data clusters.
	for l1i, l1e := range img.l1 {
		l2Off := int64(l1e & entryOffsetMask)
		if l2Off == 0 {
			continue
		}
		refMeta(l2Off, "L2 table of L1 slot", int64(l1i))
		t, err := img.loadL2(l2Off)
		if err != nil {
			return nil, err
		}
		for l2i, e := range t {
			dOff := int64(e & entryOffsetMask)
			if dOff == 0 {
				continue
			}
			res.DataClusters++
			what, c := "data cluster", dOff
			if e&entryCompressed != 0 {
				// Compressed blobs pack several per cluster at 512 B
				// alignment; the cluster's refcount counts its live blobs.
				what, c = "compressed blob", dOff&^(cs-1)
			}
			if bad := ref(c); bad != "" {
				res.errorf("%s (L1[%d] L2[%d]) at %#x %s", what, l1i, l2i, dOff, bad)
			}
		}
	}
	// Compare against the stored refcounts, one read per refcount block.
	// An absent block counts 0 for all its clusters.
	blk := make([]byte, cs)
	for lo := int64(0); lo < totalClusters; lo += rbe {
		n := minI64(rbe, totalClusters-lo)
		stored := blk[:n*refcountEntrySz]
		if off := int64(refTable[lo/rbe] & entryOffsetMask); off == 0 {
			clear(stored)
		} else if err := backend.ReadFull(img.f, stored, off); err != nil {
			return nil, err
		}
		for i := int64(0); i < n; i++ {
			got, want := uint32(binary.BigEndian.Uint16(stored[i*refcountEntrySz:])), expected[lo+i]
			if want > 0 {
				res.AllocatedClusters++
			}
			// qemu-img's rule: a count below the references could free a
			// live cluster, a count above them only keeps one allocated.
			switch {
			case got < want:
				res.errorf("cluster %d: refcount %d, expected %d", lo+i, got, want)
			case got > want:
				res.Leaks++
			}
		}
	}
	return res, nil
}

// OpenVerified opens the image in f and runs a full consistency Check before
// returning it. An image whose metadata fails the check is closed and
// rejected with ErrCorrupt. This is the publication gate of the node cache
// manager: a cache is only renamed into its published (immutable) name after
// OpenVerified succeeds on the warmed temp file, so a partially-written or
// torn container can never be served.
//
// A read-only open given an empty, unretired opts.Tables fills it as it
// checks — the L1 and every L2 table the Check decodes — so the published
// file's first sessions read none of them again. A set that fails the check
// is retired; a set that is already filled is not taken (the check reads
// this file's own tables).
func OpenVerified(f backend.File, opts OpenOpts) (*Image, error) {
	img, err := open(f, opts, true)
	if err != nil {
		return nil, err
	}
	res, err := img.Check()
	if err == nil && !res.OK() {
		err = fmt.Errorf("%w: %s", ErrCorrupt, res.Errors[0])
	}
	if err != nil {
		if img.tables != nil {
			img.tables.Retire()
		}
		img.Close() //nolint:errcheck // already failing
		return nil, err
	}
	return img, nil
}

// Extent describes one run of the guest-visible mapping, as `qemu-img map`
// would print it.
type Extent struct {
	Start      int64 // virtual offset
	Length     int64
	Allocated  bool  // materialised in this image
	PhysOff    int64 // physical offset when allocated
	Compressed bool  // stored as a deflate blob
}

// Map returns the allocation extents of the image, coalescing contiguous
// clusters with the same disposition.
func (img *Image) Map() ([]Extent, error) {
	img.mu.RLock()
	defer img.mu.RUnlock()
	if img.closed {
		return nil, ErrClosed
	}
	var out []Extent
	size := int64(img.hdr.Size)
	clusters := ceilDiv(size, img.ly.clusterSize)
	for vc := int64(0); vc < clusters; vc++ {
		m, err := img.lookup(vc)
		if err != nil {
			return nil, err
		}
		start := vc * img.ly.clusterSize
		length := img.ly.clusterSize
		if start+length > size {
			length = size - start
		}
		alloc := m.dataOff != 0
		if n := len(out); n > 0 {
			last := &out[n-1]
			contiguousPhys := alloc && last.Allocated &&
				!m.compressed && !last.Compressed &&
				last.PhysOff+last.Length == m.dataOff
			bothHoles := !alloc && !last.Allocated
			if last.Start+last.Length == start && (contiguousPhys || bothHoles) {
				last.Length += length
				continue
			}
		}
		out = append(out, Extent{
			Start: start, Length: length, Allocated: alloc,
			PhysOff: m.dataOff, Compressed: m.compressed,
		})
	}
	return out, nil
}

// Info describes an image for humans (`qimg info`).
type Info struct {
	VirtualSize   int64
	FileSize      int64
	ClusterSize   int64
	BackingFile   string
	IsCache       bool
	CacheQuota    int64
	CacheUsed     int64
	DataClusters  int64
	FillRatio     float64 // cache used / quota
	L2CacheHits   int64
	L2CacheMisses int64
}

// Info collects summary information about the image.
func (img *Image) Info() (Info, error) {
	dc, err := img.AllocatedDataClusters()
	if err != nil {
		return Info{}, err
	}
	img.mu.RLock()
	defer img.mu.RUnlock()
	fsz, err := img.f.Size()
	if err != nil {
		return Info{}, err
	}
	in := Info{
		VirtualSize:   int64(img.hdr.Size),
		FileSize:      fsz,
		ClusterSize:   img.ly.clusterSize,
		BackingFile:   img.hdr.BackingFile,
		IsCache:       img.isCache,
		CacheQuota:    img.quota,
		CacheUsed:     img.usedBytes(),
		DataClusters:  dc,
		L2CacheHits:   img.stats.L2CacheHits.Load(),
		L2CacheMisses: img.stats.L2CacheMisses.Load(),
	}
	if img.quota > 0 {
		in.FillRatio = float64(in.CacheUsed) / float64(img.quota)
	}
	return in, nil
}

// String renders the info block.
func (in Info) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "virtual size: %d\n", in.VirtualSize)
	fmt.Fprintf(&b, "file size:    %d\n", in.FileSize)
	fmt.Fprintf(&b, "cluster size: %d\n", in.ClusterSize)
	if in.BackingFile != "" {
		fmt.Fprintf(&b, "backing file: %s\n", in.BackingFile)
	}
	if in.IsCache {
		fmt.Fprintf(&b, "cache image:  quota=%d used=%d (%.1f%%)\n",
			in.CacheQuota, in.CacheUsed, 100*in.FillRatio)
	}
	fmt.Fprintf(&b, "data clusters: %d\n", in.DataClusters)
	fmt.Fprintf(&b, "l2 cache:     hits=%d misses=%d\n", in.L2CacheHits, in.L2CacheMisses)
	return b.String()
}
