package qcow

// Run-level translation. ReadAt used to re-acquire the shared metadata lock
// and translate once per cluster iteration; a 1 MiB sequential read over
// 512 B clusters paid 2048 lock acquisitions even when fully warm. Instead,
// translateExtents maps the *entire* request into a slice of homogeneous
// mapped extents under ONE RLock, and the data phase then runs completely
// lock-free. Extent slices are pooled per image so the warm path stays
// allocation-free.

// extentKind classifies how one translated extent is served.
type extentKind uint8

const (
	// extRaw is an allocated raw run: one container read.
	extRaw extentKind = iota
	// extCompressed is one allocated compressed cluster (inflate + copy).
	extCompressed
	// extUnalloc is a run of unallocated clusters with a backing source:
	// copy-on-read fill (cache images) or pass-through.
	extUnalloc
	// extZero is a run of unallocated clusters with no backing: zeros.
	extZero
)

// mappedExtent is one homogeneous piece of a translated guest request: a
// contiguous byte range the data phase serves with a single strategy and no
// image lock held.
type mappedExtent struct {
	kind    extentKind
	pos     int64 // guest byte offset of the extent
	length  int64 // request bytes the extent covers
	dataOff int64 // extRaw: physical offset of pos; extCompressed: blob offset
	vc      int64 // first virtual cluster
	run     int64 // clusters in the run (extUnalloc)
}

// readCtx captures the lock-dependent state the data phase needs, snapshotted
// inside the same critical section as the translation.
type readCtx struct {
	backing BlockSource
	// fillRun permits copy-on-read run fills (cache, writable, not full).
	fillRun bool
}

// translateExtents maps the request [pos, end) into extents appended to
// exts, under a single acquisition of the shared metadata lock. The
// translation is a *snapshot*: concurrent fills may allocate clusters the
// snapshot saw as unallocated (the fill singleflight re-validates and serves
// 0 bytes, making the caller re-translate). On a lookup
// error the extents accumulated so far are still returned, so the caller can
// serve the prefix before surfacing the error.
func (img *Image) translateExtents(pos, end int64, exts []mappedExtent) ([]mappedExtent, readCtx, error) {
	cs, cb := img.ly.clusterSize, img.ly.clusterBits
	img.mu.RLock()
	defer img.mu.RUnlock()
	ctx := readCtx{
		backing: img.backing,
		fillRun: img.isCache && !img.ro && !img.cacheFull,
	}
	rl := runLookup{img: img}
	for pos < end {
		vc := pos >> cb
		inOff := pos - vc<<cb
		m, err := rl.lookup(vc)
		if err != nil {
			return exts, ctx, err
		}
		e := mappedExtent{pos: pos, length: min(end-pos, cs-inOff), dataOff: m.dataOff, vc: vc}
		switch {
		case m.dataOff != 0 && m.compressed:
			e.kind = extCompressed
		case m.dataOff != 0:
			// Coalesce physically contiguous raw clusters into
			// one extent: cache fills allocate in guest-read order, so warm
			// reads are mostly one contiguous extent regardless of cluster
			// size.
			run, err := img.slotRun(&rl, vc, m.dataOff, end)
			if err != nil {
				return exts, ctx, err
			}
			e.kind, e.run, e.dataOff = extRaw, run, m.dataOff+inOff
			e.length = min(end-pos, run*cs-inOff)
		default:
			run, err := img.slotRun(&rl, vc, 0, end)
			if err != nil {
				return exts, ctx, err
			}
			e.kind, e.run = extZero, run
			if ctx.backing != nil {
				e.kind = extUnalloc
			}
			e.length = min(end, (vc+run)*cs) - pos
		}
		exts = append(exts, e)
		pos += e.length
	}
	return exts, ctx, nil
}

// getExtents returns a pooled extent slice (by pointer, so recycling does
// not allocate a box per call).
func (img *Image) getExtents() *[]mappedExtent {
	if v := img.extPool.Get(); v != nil {
		p := v.(*[]mappedExtent)
		*p = (*p)[:0]
		return p
	}
	p := new([]mappedExtent)
	*p = make([]mappedExtent, 0, 16)
	return p
}

func (img *Image) putExtents(p *[]mappedExtent) { img.extPool.Put(p) }
