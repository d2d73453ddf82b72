package qcow

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"vmicache/internal/backend"
	"vmicache/internal/metrics"
)

// Stats counts data-path activity on one image. BackingBytes is the quantity
// Fig. 9/10 plot as "observed traffic at the storage node" when the backing
// image lives there.
type Stats struct {
	GuestReadOps    atomic.Int64
	GuestReadBytes  atomic.Int64
	GuestWriteOps   atomic.Int64
	GuestWriteBytes atomic.Int64

	// BackingReadOps/BackingBytes count data fetched from the backing
	// source, i.e. cold misses of this image.
	BackingReadOps atomic.Int64
	BackingBytes   atomic.Int64

	// LocalBytes counts guest-read bytes served from this image's own
	// clusters (warm hits for cache images).
	LocalBytes atomic.Int64

	// CacheFillOps/CacheFillBytes count copy-on-read fills performed by a
	// cache image; CacheFullEvents counts fills refused by the quota.
	CacheFillOps    atomic.Int64
	CacheFillBytes  atomic.Int64
	CacheFullEvents atomic.Int64

	// CowFillBytes counts partial-cluster backing fetches triggered by
	// guest writes (copy-on-write fills).
	CowFillBytes atomic.Int64

	// L2CacheHits/L2CacheMisses count L2-table translations served from
	// the in-memory L2 cache vs not (decoded here or by a concurrent miss).
	L2CacheHits   atomic.Int64
	L2CacheMisses atomic.Int64

	// CompressedClusters/CompressedBytes count clusters written through
	// WriteCompressedCluster and their deflate volume.
	CompressedClusters atomic.Int64
	CompressedBytes    atomic.Int64

	// FillWaits counts readers that attached to another reader's in-flight
	// copy-on-read fill instead of fetching themselves (singleflight
	// followers).
	FillWaits atomic.Int64

	// FillLatency records the duration (ns) of each successful leader
	// fill: the backing fetch plus allocation and binding.
	FillLatency metrics.AtomicHistogram

	// Zero-copy serve effectiveness (zerocopy.go). ZeroCopyExports and
	// ZeroCopyExportBytes count reads translated into container-file
	// extents by PlainExtents (bytes the serve path ships without a
	// user-space copy); MmapReads/MmapReadBytes count warm raw reads
	// served by copy-from-mapping instead of pread.
	ZeroCopyExports     atomic.Int64
	ZeroCopyExportBytes atomic.Int64
	MmapReads           atomic.Int64
	MmapReadBytes       atomic.Int64
}

// CreateOpts parameterises image creation, mirroring qemu-img's knobs plus
// the cache quota of §4.4.
type CreateOpts struct {
	// Size is the virtual disk size in bytes. With a backing file it may
	// be 0, meaning "inherit at open time" is NOT supported — callers
	// pass the base size explicitly (qemu-img does the same resolution).
	Size int64

	// ClusterBits selects the cluster size (9..21); 0 means the 64 KiB
	// default.
	ClusterBits int

	// BackingFile names the backing image ("" for standalone).
	BackingFile string

	// CacheQuota, when non-zero, creates a cache image limited to this
	// many bytes of physical file size (§4.3 create).
	CacheQuota int64
}

// OpenOpts parameterises opening an image.
type OpenOpts struct {
	// ReadOnly rejects all mutations, including cache fills.
	ReadOnly bool

	// Tables is the table set the read-only opens of an immutable file share
	// (see Tables); writable opens ignore it, and OpenVerified takes only an
	// empty one, which its Check fills.
	Tables *Tables
}

// Image is an open image file. Methods are safe for concurrent use by
// multiple goroutines. mu guards the metadata layer (L1, refcount table,
// allocator, cache-full flag): translations take it shared, mutations take it
// exclusive, and data I/O against allocated clusters runs with no image lock
// held at all (the container is responsible for its own I/O atomicity, and
// bound clusters are never moved or freed). See DESIGN.md "Concurrency
// model".
type Image struct {
	mu sync.RWMutex

	f      backend.File
	hdr    *Header
	ly     layout
	ro     bool
	closed bool

	// readers tracks in-flight lock-free data I/O so Close can drain it
	// before closing the container. Entered under mu (shared) after the
	// closed check; Close flips closed under mu (exclusive) first, so the
	// counter cannot rise once draining starts.
	readers sync.WaitGroup

	// fillMu guards fills, the singleflight registry of in-flight
	// copy-on-read fetches (fill.go). Each entry covers a contiguous
	// cluster-run interval; the list stays as small as the number of
	// concurrent cold misses, so linear scans beat per-cluster map entries.
	// fillMu is a leaf lock: nothing is acquired while holding it.
	fillMu sync.Mutex
	fills  []*fill

	// cbuf pools cluster-sized L2 decode buffers, shared by every image of
	// the cluster size, so a short-lived CoW top reuses the last one's;
	// extPool pools the per-ReadAt mapped-extent slices (stored as
	// *[]mappedExtent so recycling does not allocate). Commit reservations
	// come from spanBufs.
	cbuf    *bufPool
	extPool sync.Pool

	// l1 is the in-memory L1 table (write-through).
	l1 []uint64
	// refTable is the in-memory refcount table (write-through); nil on a
	// read-only image, which never allocates.
	refTable []uint64
	// l2c caches recently used L2 tables; l1 and l2c may be a shared set's.
	l2c *l2Cache
	// tables is the shared set the image is attached to (nil: its own
	// tables); its mapping serves the raw reads (mappedRead).
	tables *Tables
	// nextFree is the next unallocated cluster index (bump allocator).
	nextFree int64

	// backing is the recursion target for unallocated reads; nil for
	// standalone images.
	backing BlockSource

	// isCache and cacheFull implement the §4.3 protocol.
	isCache   bool
	quota     int64
	cacheFull bool

	// compCursor is the next 512-aligned free offset inside a partially
	// filled compressed-blob cluster (0 = none open).
	compCursor int64

	stats Stats
}

// MinCacheQuota reports the smallest admissible cache quota for an image of
// the given virtual size and cluster size: the initial metadata (header,
// refcount table and first block, L1 table) counts against the quota, so
// anything smaller is rejected by Create.
func MinCacheQuota(size int64, clusterBits int) int64 {
	if clusterBits == 0 {
		clusterBits = DefaultClusterBits
	}
	ly := newLayout(uint32(clusterBits))
	_, _, _, metaClusters := createLayout(ly, size)
	return metaClusters * ly.clusterSize
}

// createLayout computes the initial file layout for a new image: refcount
// table offset, first refcount block offset, L1 offset, and the total
// metadata cluster count.
func createLayout(ly layout, size int64) (refTableOff, firstRefBlockOff, l1Off, metaClusters int64) {
	l1Entries := ly.l1EntriesFor(size)
	l1Clusters := ly.clustersFor(l1Entries * l1EntrySize)
	maxClusters := ly.clustersFor(size) + l1Entries + l1Clusters + 1024
	refBlocks := ceilDiv(maxClusters, ly.refBlockEnts)
	refTableClusters := ly.clustersFor(refBlocks * refTableEntrySz)
	refTableOff = ly.clusterSize
	firstRefBlockOff = refTableOff + refTableClusters*ly.clusterSize
	l1Off = firstRefBlockOff + ly.clusterSize
	metaClusters = 1 + refTableClusters + 1 + l1Clusters
	return refTableOff, firstRefBlockOff, l1Off, metaClusters
}

// Create initialises a new image in f and returns it opened read-write.
//
// It truncates f to the image's final size once and then writes only the
// metadata bytes that are not zero — the header, the refcount-table slots in
// use, and one refcount entry per allocated cluster — each contiguous run in
// one write (a 1 GiB cache takes four at 512 B clusters, three at 64 KiB).
// The L1 table and every unused slot are the truncate's zeros, and no buffer
// spans the metadata region.
func Create(f backend.File, opts CreateOpts) (*Image, error) {
	cb := opts.ClusterBits
	if cb == 0 {
		cb = DefaultClusterBits
	}
	if cb < MinClusterBits || cb > MaxClusterBits {
		return nil, ErrBadClusterBits
	}
	if opts.Size <= 0 {
		return nil, ErrBadSize
	}
	ly := newLayout(uint32(cb))
	l1Entries := ly.l1EntriesFor(opts.Size)

	// Layout: [0] header | [1..rt] refcount table | [rt+1] first
	// refcount block | then L1 table clusters. The refcount table covers
	// the virtual size plus all possible metadata (one L2 table per L1
	// entry) and a margin, so it rarely needs relocation; relocation is
	// still implemented for correctness.
	refTableOff, firstRefBlockOff, l1Off, metaClusters := createLayout(ly, opts.Size)
	refTableClusters := (firstRefBlockOff - refTableOff) / ly.clusterSize

	hdr := &Header{
		Magic:            Magic,
		Version:          Version,
		ClusterBits:      uint32(cb),
		Size:             uint64(opts.Size),
		L1Size:           uint32(l1Entries),
		L1TableOffset:    uint64(l1Off),
		RefTableOffset:   uint64(refTableOff),
		RefTableClusters: uint32(refTableClusters),
		RefcountOrder:    refcountOrder,
		BackingFile:      opts.BackingFile,
	}
	if opts.CacheQuota > 0 {
		hdr.HasCacheExt = true
		hdr.CacheQuota = uint64(opts.CacheQuota)
		if opts.CacheQuota < metaClusters*ly.clusterSize {
			return nil, ErrQuotaTooSmall
		}
	}

	img := &Image{
		f:        f,
		hdr:      hdr,
		ly:       ly,
		cbuf:     &clusterBufs[ly.clusterBits],
		l1:       make([]uint64, l1Entries),
		refTable: make([]uint64, refTableClusters*ly.clusterSize/refTableEntrySz),
		l2c:      newL2Cache(defaultL2CacheTables(ly)),
		nextFree: metaClusters,
		isCache:  hdr.IsCache(),
		quota:    opts.CacheQuota,
	}
	// Account every metadata cluster: the refcount blocks this takes come
	// off the bump allocator, after the metadata.
	img.refTable[0] = uint64(firstRefBlockOff)
	for c := int64(0); c < metaClusters; c++ {
		img.coverRefcount(c)
	}
	if hdr.HasCacheExt {
		hdr.CacheUsed = uint64(img.usedBytes())
	}
	hdrBuf, err := hdr.marshal(ly.clusterSize)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(img.usedBytes()); err != nil {
		return nil, err
	}
	for _, r := range img.createRuns(hdrBuf) {
		if err := backend.WriteFull(f, r.b, r.off); err != nil {
			return nil, err
		}
	}
	return img, nil
}

// coverRefcount gives cluster c a refcount block in memory: a missing block
// is taken from the bump allocator and is itself covered. The table
// createLayout sizes covers the whole virtual disk, far past any metadata.
func (img *Image) coverRefcount(c int64) {
	rb := c / img.ly.refBlockEnts
	if img.refTable[rb] != 0 {
		return
	}
	off := img.nextFree * img.ly.clusterSize
	img.nextFree++
	img.refTable[rb] = uint64(off)
	img.coverRefcount(off / img.ly.clusterSize)
}

// byteRun is bytes to write at a file offset.
type byteRun struct {
	off int64
	b   []byte
}

// createRuns gathers the non-zero bytes of a new image in file order, adjacent
// pieces merged into one run: the header, the refcount-table slots in use,
// and in each refcount block the entries of the allocated clusters below
// nextFree, each 1.
func (img *Image) createRuns(hdrBuf []byte) []byteRun {
	ents := img.ly.refBlockEnts
	blocks := ceilDiv(img.nextFree, ents)
	slots := make([]byte, blocks*refTableEntrySz)
	for i := range blocks {
		binary.BigEndian.PutUint64(slots[i*refTableEntrySz:], img.refTable[i])
	}
	ones := make([]byte, min(ents, img.nextFree)*refcountEntrySz)
	for i := refcountEntrySz - 1; i < len(ones); i += refcountEntrySz {
		ones[i] = 1
	}
	pieces := []byteRun{{0, hdrBuf}, {int64(img.hdr.RefTableOffset), slots}}
	for i := range blocks {
		n := min(ents, img.nextFree-i*ents)
		pieces = append(pieces, byteRun{int64(img.refTable[i]), ones[:n*refcountEntrySz]})
	}
	slices.SortFunc(pieces, func(a, b byteRun) int { return cmp.Compare(a.off, b.off) })
	var runs []byteRun
	for i := 0; i < len(pieces); {
		j, end := i+1, pieces[i].off+int64(len(pieces[i].b))
		for ; j < len(pieces) && pieces[j].off == end; j++ {
			end += int64(len(pieces[j].b))
		}
		r := pieces[i]
		if j > i+1 {
			r.b = make([]byte, 0, end-r.off)
			for _, p := range pieces[i:j] {
				r.b = append(r.b, p.b...)
			}
		}
		runs = append(runs, r)
		i = j
	}
	return runs
}

// Open parses the image in f. The §4.3 permission dance (a backing file
// opens read-only and re-opens read-write when it turns out to be a cache
// image) is realised by the caller choosing opts.ReadOnly from IsCache; see
// core.OpenChain.
func Open(f backend.File, opts OpenOpts) (*Image, error) {
	return open(f, opts, false)
}

// open is Open; with fresh, a set that is already filled is not taken (the
// image reads its own L1), so the tables are this file's.
func open(f backend.File, opts OpenOpts, fresh bool) (*Image, error) {
	sz, err := f.Size()
	if err != nil {
		return nil, err
	}
	// One probe-sized read decodes the header (readHeader). Keeping the
	// open's reads few and small matters when the container sits behind a
	// counted or remote medium.
	hdr, err := readHeader(f, sz, headerProbe)
	if err != nil {
		return nil, err
	}
	ly := newLayout(hdr.ClusterBits)
	if int64(hdr.L1TableOffset)%ly.clusterSize != 0 || int64(hdr.RefTableOffset)%ly.clusterSize != 0 {
		return nil, fmt.Errorf("%w: misaligned tables", ErrCorrupt)
	}

	img := &Image{
		f:        f,
		hdr:      hdr,
		ly:       ly,
		cbuf:     &clusterBufs[ly.clusterBits],
		ro:       opts.ReadOnly,
		nextFree: ceilDiv(sz, ly.clusterSize),
		isCache:  hdr.IsCache(),
		quota:    int64(hdr.CacheQuota),
	}
	shared := false
	if opts.ReadOnly && opts.Tables != nil {
		if shared, err = opts.Tables.attach(img, sz, fresh); err != nil {
			return nil, err
		}
	}
	if !shared {
		img.l2c = newL2Cache(defaultL2CacheTables(ly))
		if img.l1, err = readL1(f, hdr, sz); err != nil {
			return nil, err
		}
	}
	// Only a writable image allocates, so only it needs the refcount table
	// in memory; Check reads its own copy.
	if !img.ro {
		if img.refTable, err = readRefTable(f, hdr, ly, sz); err != nil {
			return nil, err
		}
	}
	// A cache image that was filled to (or near) quota in a previous run
	// resumes in the "stop filling" state when it cannot take one more
	// cluster plus worst-case metadata.
	if img.isCache && img.usedBytes()+img.worstCaseFillBytes() > img.quota {
		img.cacheFull = true
	}
	return img, nil
}

// readL1 reads the L1 table, refusing one the file cannot hold unallocated.
func readL1(f backend.File, hdr *Header, sz int64) ([]uint64, error) {
	n := uint64(hdr.L1Size) * l1EntrySize
	if !within(hdr.L1TableOffset, n, sz) {
		return nil, fmt.Errorf("%w: L1 table beyond end of file", ErrCorrupt)
	}
	buf := tableBufs.get(int(n))
	defer tableBufs.put(buf)
	if err := backend.ReadFull(f, buf, int64(hdr.L1TableOffset)); err != nil {
		return nil, fmt.Errorf("qcow: reading L1 table: %w", err)
	}
	l1 := make([]uint64, hdr.L1Size)
	for i := range l1 {
		l1[i] = binary.BigEndian.Uint64(buf[i*8:])
	}
	return l1, nil
}

// within reports whether n bytes at off fit a file of sz bytes, overflow-safe.
func within(off, n uint64, sz int64) bool {
	return off <= uint64(sz) && n <= uint64(sz)-off
}

// Header returns a copy of the decoded header.
func (img *Image) Header() Header { return *img.hdr }

// Size reports the virtual disk size, implementing BlockSource.
func (img *Image) Size() int64 { return int64(img.hdr.Size) }

// ClusterSize reports the cluster size in bytes.
func (img *Image) ClusterSize() int64 { return img.ly.clusterSize }

// IsCache reports whether this is a cache image (quota > 0).
func (img *Image) IsCache() bool { return img.isCache }

// CacheFull reports whether the cache has stopped filling (space error seen
// or resumed at/near quota).
func (img *Image) CacheFull() bool {
	img.mu.RLock()
	defer img.mu.RUnlock()
	return img.cacheFull
}

// Quota reports the cache quota in bytes (0 for non-cache images).
func (img *Image) Quota() int64 { return img.quota }

// UsedBytes reports the current physical size of the image file — the
// "current size of the cache" header field for cache images.
func (img *Image) UsedBytes() int64 {
	img.mu.RLock()
	defer img.mu.RUnlock()
	return img.usedBytes()
}

func (img *Image) usedBytes() int64 { return img.nextFree * img.ly.clusterSize }

// SetBacking installs the backing source reads recurse to. It must be called
// before reads when the header names a backing file; chain.OpenChain does
// this automatically.
func (img *Image) SetBacking(b BlockSource) {
	img.mu.Lock()
	defer img.mu.Unlock()
	img.backing = b
}

// Backing returns the installed backing source (nil if none).
func (img *Image) Backing() BlockSource {
	img.mu.RLock()
	defer img.mu.RUnlock()
	return img.backing
}

// Stats exposes the image's data-path counters.
func (img *Image) Stats() *Stats { return &img.stats }

// BackingName reports the backing file name recorded in the header.
func (img *Image) BackingName() string { return img.hdr.BackingFile }

// syncCacheUsed persists the cache's current size into the header extension
// ("when closing a QCOW2 image, if the cache quota field is present, the
// (new) current size of the cache is written back", §4.3 close). Harmless
// no-op for non-cache images.
func (img *Image) syncCacheUsed() error {
	if !img.hdr.HasCacheExt {
		return nil
	}
	img.hdr.CacheUsed = uint64(img.usedBytes())
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], img.hdr.CacheUsed)
	return backend.WriteFull(img.f, b[:], img.hdr.cacheExtFileOffset()+8)
}

// Sync flushes metadata and the container. A read-only image wrote nothing and
// flushes nothing: a published cache was synced before its rename.
func (img *Image) Sync() error {
	img.mu.Lock()
	defer img.mu.Unlock()
	if img.closed {
		return ErrClosed
	}
	if img.ro {
		return nil
	}
	if err := img.syncCacheUsed(); err != nil {
		return err
	}
	return img.f.Sync()
}

// enterRead registers a lock-free data-path operation against Close. On
// success the caller must balance with img.readers.Done().
func (img *Image) enterRead() error {
	img.mu.RLock()
	if img.closed {
		img.mu.RUnlock()
		return ErrClosed
	}
	img.readers.Add(1)
	img.mu.RUnlock()
	return nil
}

// Close writes back the cache's current size (for cache images), syncs, and
// closes the container. Concurrent reads that already entered the data path
// are drained first; reads arriving after Close starts fail with ErrClosed.
func (img *Image) Close() error {
	img.mu.Lock()
	if img.closed {
		img.mu.Unlock()
		return ErrClosed
	}
	img.closed = true
	img.mu.Unlock()
	img.readers.Wait()
	if img.tables != nil {
		img.tables.detach()
	}
	if !img.ro {
		if err := img.syncCacheUsed(); err != nil {
			img.f.Close() //nolint:errcheck // best-effort release on error path
			return err
		}
		if err := img.f.Sync(); err != nil {
			img.f.Close() //nolint:errcheck
			return err
		}
	}
	return img.f.Close()
}
