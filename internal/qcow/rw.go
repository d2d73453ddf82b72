package qcow

import (
	"io"

	"vmicache/internal/backend"
)

// ReadAt implements guest reads with backing recursion (§4.3 read).
//
// For a plain CoW image, an unallocated cluster is read from the backing
// source *at request granularity* — on-demand transfer fetches only what the
// guest asked for. For a cache image, a miss fetches the *full cluster* from
// the backing source, stores it (copy-on-read), then serves the request;
// that cluster-granularity fill is exactly what makes 64 KiB cache clusters
// amplify base traffic in Fig. 9 and why §5.1 drops cache images to 512-byte
// clusters. A fill that would exceed the quota raises the internal space
// error: the image stops filling for the rest of its lifetime and serves all
// further misses by pass-through.
//
// ReadAt is the concurrent fast path: the whole request is translated into a
// mapped-extent slice under ONE acquisition of the shared metadata lock
// (translateExtents), then every extent's data I/O (container read, backing
// pass-through, or singleflight fill) runs with no image lock held, so
// parallel readers overlap their I/O and cold misses on distinct cluster
// runs fetch from the backing source in parallel.
func (img *Image) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, ErrOutOfRange
	}
	if err := img.enterRead(); err != nil {
		return 0, err
	}
	defer img.readers.Done()
	size := int64(img.hdr.Size)
	if off >= size {
		return 0, io.EOF
	}
	n := len(p)
	var errEOF error
	if off+int64(n) > size {
		n = int(size - off)
		errEOF = io.EOF
	}
	img.stats.GuestReadOps.Add(1)
	img.stats.GuestReadBytes.Add(int64(n))

	extp := img.getExtents()
	done, err := img.readExtents(p[:n], off, extp)
	img.putExtents(extp)
	if err != nil {
		return done, err
	}
	return n, errEOF
}

// ReadBatch fills every range of guest bytes as ReadAt would — a range past
// the virtual size fails with io.ErrUnexpectedEOF — but hands the raw extents
// of all of them to the container as ONE backend.ReadBatch, so over a remote
// container the whole batch is in flight at once. Zero extents are cleared;
// any other extent (compressed, deferred to this image's own backing) is
// served through readExtents after the batch.
func (img *Image) ReadBatch(rs []backend.Range) error {
	if err := img.enterRead(); err != nil {
		return err
	}
	defer img.readers.Done()
	size := int64(img.hdr.Size)
	extp := img.getExtents()
	defer img.putExtents(extp)
	var raw, slow []backend.Range
	for _, r := range rs {
		end := r.Off + int64(len(r.P))
		if r.Off < 0 || end > size {
			return io.ErrUnexpectedEOF
		}
		img.stats.GuestReadOps.Add(1)
		img.stats.GuestReadBytes.Add(int64(len(r.P)))
		exts, _, err := img.translateExtents(r.Off, end, (*extp)[:0])
		*extp = exts
		if err != nil {
			return err
		}
		for _, e := range exts {
			seg := r.P[e.pos-r.Off : e.pos-r.Off+e.length]
			switch e.kind {
			case extRaw:
				if !img.mappedRead(seg, e.dataOff) {
					raw = append(raw, backend.Range{P: seg, Off: e.dataOff})
				}
				if img.isCache {
					img.stats.LocalBytes.Add(e.length)
				}
			case extZero:
				clear(seg)
			default:
				slow = append(slow, backend.Range{P: seg, Off: e.pos})
			}
		}
	}
	if err := backend.ReadBatch(img.f, raw); err != nil {
		return err
	}
	for _, r := range slow {
		if _, err := img.readExtents(r.P, r.Off, extp); err != nil {
			return err
		}
	}
	return nil
}

// readExtents serves p (clamped to the virtual size) starting at guest
// offset off: translate the remainder into extents under one shared-lock
// acquisition, serve each extent lock-free, and re-translate whenever a fill
// reports that the allocation picture changed under it (short serve). The
// extent slice is threaded through extp so a pooled slice is grown at most
// once per image lifetime.
func (img *Image) readExtents(p []byte, off int64, extp *[]mappedExtent) (int, error) {
	n := len(p)
	done := 0
	for done < n {
		exts, ctx, terr := img.translateExtents(off+int64(done), off+int64(n), (*extp)[:0])
		*extp = exts
		stale := false
	serve:
		for i := range exts {
			e := &exts[i]
			seg := p[done : done+int(e.length)]
			switch e.kind {
			case extRaw:
				// Bound clusters are never moved or freed, so this read
				// needs no lock: the container serialises its own I/O.
				// An image attached to a table set copies from the set's
				// mapping instead of issuing a pread.
				if !img.mappedRead(seg, e.dataOff) {
					if err := backend.ReadFull(img.f, seg, e.dataOff); err != nil {
						return done, err
					}
				}
				if img.isCache {
					img.stats.LocalBytes.Add(e.length)
				}
				done += int(e.length)
			case extCompressed:
				data, err := img.readCompressed(e.dataOff)
				if err != nil {
					return done, err
				}
				copy(seg, data[e.pos-e.vc*img.ly.clusterSize:])
				if img.isCache {
					// A compressed cluster is still a local hit: count it
					// like the raw branch so the local/backing traffic
					// ratio stays truthful for compressed caches.
					img.stats.LocalBytes.Add(e.length)
				}
				done += int(e.length)
			case extUnalloc:
				if ctx.fillRun {
					served, err := img.fillRun(e.vc, e.run, e.pos, seg, ctx.backing)
					if err != nil {
						return done, err
					}
					done += served
					if served < int(e.length) {
						// The run was truncated or filled by a
						// concurrent fill: re-translate.
						stale = true
						break serve
					}
				} else {
					if err := img.readBacking(ctx.backing, seg, e.pos); err != nil {
						return done, err
					}
					done += int(e.length)
				}
			case extZero:
				clear(seg)
				done += int(e.length)
			}
		}
		// A translation error is returned only after the extents preceding
		// it were served — unless a short serve already invalidated the
		// snapshot, in which case the retry re-derives (or clears) it.
		if terr != nil && !stale {
			return done, terr
		}
	}
	return done, nil
}

// slotRun counts the clusters from vc on that intersect the request ending at
// reqEnd (byte offset) and continue vc's run: unallocated when dataOff is 0,
// else raw clusters physically following vc's data at dataOff.
// It scans the memoized L2 table's slots, fetching a table only when the run
// crosses into it; a missing table is a table's worth of unallocated
// clusters. A compressed entry carries its flag outside the offset mask, so
// it ends either kind of run. Always >= 1.
func (img *Image) slotRun(rl *runLookup, vc, dataOff, reqEnd int64) (int64, error) {
	last := (reqEnd - 1) >> img.ly.clusterBits
	next, step := uint64(dataOff), uint64(img.ly.clusterSize)
	if dataOff == 0 {
		step = 0
	}
	run := int64(1)
	for vc+run <= last {
		t, i, err := rl.slots(vc + run)
		if err != nil {
			return run, err
		}
		n := min(img.ly.l2Entries-i, last-(vc+run)+1)
		if t == nil {
			if dataOff != 0 {
				break
			}
			run += n
			continue
		}
		for _, e := range t[i : i+n] {
			if next += step; e&(entryOffsetMask|entryCompressed) != next {
				return run, nil
			}
			run++
		}
	}
	return run, nil
}

func minI64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// readBacking reads [pos, pos+len(seg)) from the given backing source,
// counting the traffic. Reads past the backing's size (a smaller base) read
// as zeros. Safe without the image lock: it touches only the backing source
// and atomic counters.
func (img *Image) readBacking(b BlockSource, seg []byte, pos int64) error {
	img.stats.BackingReadOps.Add(1)
	img.stats.BackingBytes.Add(int64(len(seg)))
	bsz := b.Size()
	if pos >= bsz {
		clear(seg)
		return nil
	}
	n := len(seg)
	if pos+int64(n) > bsz {
		n = int(bsz - pos)
	}
	if err := backend.ReadFull(b, seg[:n], pos); err != nil {
		return err
	}
	clear(seg[n:])
	return nil
}

// WriteAt implements guest writes (§4.3 write). Cache images are immutable
// with respect to the guest: "all writes coming from the VM itself go to the
// CoW image" (§3.1), so a guest write to a cache image is an error. For CoW
// images, writing part of an unallocated cluster triggers a copy-on-write
// fill: the remainder of the cluster is fetched from the backing chain so
// the newly allocated cluster is complete.
//
// Overwrites of already-allocated raw clusters — the steady state once a
// cluster has been written once — mirror ReadAt's locking: translate under
// the shared metadata lock, then perform the data write with no image lock
// held (bound clusters are never moved or freed, and the §5 model leaves
// data atomicity to the container). Only allocating paths (CoW fill,
// compressed rewrite) take the exclusive lock, and they re-translate after
// acquiring it because another writer may have allocated the cluster in the
// window between the locks.
func (img *Image) WriteAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, ErrOutOfRange
	}
	if err := img.enterRead(); err != nil {
		return 0, err
	}
	defer img.readers.Done()
	if img.ro {
		return 0, ErrReadOnly
	}
	if img.isCache {
		return 0, ErrCacheImmutable
	}
	size := int64(img.hdr.Size)
	if off+int64(len(p)) > size {
		return 0, ErrOutOfRange
	}
	n := len(p)
	img.stats.GuestWriteOps.Add(1)
	img.stats.GuestWriteBytes.Add(int64(n))

	done := 0
	for done < n {
		pos := off + int64(done)
		vc := pos / img.ly.clusterSize
		inOff := pos % img.ly.clusterSize

		// Fast path: the cluster is already allocated raw. Capture the
		// translation under the shared lock, write without it.
		img.mu.RLock()
		m, err := img.lookup(vc)
		if err != nil {
			img.mu.RUnlock()
			return done, err
		}
		if m.dataOff != 0 && !m.compressed {
			dataOff := m.dataOff
			img.mu.RUnlock()
			want := min(n-done, int(img.ly.clusterSize-inOff))
			if err := backend.WriteFull(img.f, p[done:done+want], dataOff+inOff); err != nil {
				return done, err
			}
			done += want
			continue
		}
		img.mu.RUnlock()

		img.mu.Lock()
		k, err := img.writeRunLocked(p[done:], pos)
		img.mu.Unlock()
		if err != nil {
			return done, err
		}
		done += k
	}
	return n, nil
}

// writeRunLocked writes guest bytes seg at pos under the exclusive lock,
// re-translating first (another writer may have allocated since the caller's
// shared-lock probe): a cluster allocated raw meanwhile is overwritten in
// place; otherwise the maximal run of unallocated or compressed clusters seg
// covers from pos on lands as ONE commit. Only a partial head or tail cluster
// is completed from what it held — the backing chain, or the blob it
// replaces — and the replaced blobs are released after the commit. It
// returns the bytes of seg written.
func (img *Image) writeRunLocked(seg []byte, pos int64) (int, error) {
	cs, cb, size := img.ly.clusterSize, img.ly.clusterBits, int64(img.hdr.Size)
	vc := pos >> cb
	rl := runLookup{img: img}
	head, err := rl.lookup(vc)
	if err != nil {
		return 0, err
	}
	if head.dataOff != 0 && !head.compressed {
		// Lost the race with another writer's allocation: plain
		// overwrite, already serialised by the lock we hold.
		k := min(len(seg), int(cs-(pos-vc<<cb)))
		return k, backend.WriteFull(img.f, seg[:k], head.dataOff+pos-vc<<cb)
	}
	end := pos + int64(len(seg))
	var blobs []int64 // the compressed clusters the run replaces
	n, tail := int64(1), head
	for m := head; ; n++ {
		if m.compressed {
			blobs = append(blobs, m.dataOff)
		}
		if (vc+n)<<cb >= end {
			break
		}
		if m, err = rl.lookup(vc + n); err != nil {
			return 0, err
		}
		if m.dataOff != 0 && !m.compressed {
			break
		}
		tail = m
	}
	end = minI64(end, (vc+n)<<cb)

	// edge completes cluster c of the run in data unless seg covers it.
	edge := func(data []byte, c int64, m mapping) error {
		lo, hi := c<<cb, minI64((c+1)<<cb, size)
		if pos <= lo && end >= hi {
			return nil
		}
		dst := data[(c-vc)*cs:][:hi-lo]
		switch {
		case m.compressed:
			old, err := img.readCompressed(m.dataOff)
			if err != nil {
				return err
			}
			copy(dst, old)
		case img.backing != nil:
			if err := img.readBacking(img.backing, dst, lo); err != nil {
				return err
			}
			img.stats.CowFillBytes.Add(hi - lo)
		}
		return nil
	}
	_, err = img.landRun(clusterRun{vc: vc, n: n}, func(data []byte) error {
		clear(data)
		if err := edge(data, vc, head); err != nil {
			return err
		}
		if n > 1 {
			if err := edge(data, vc+n-1, tail); err != nil {
				return err
			}
		}
		copy(data[pos-vc<<cb:], seg[:end-pos])
		return nil
	})
	if err != nil {
		return 0, err
	}
	for _, b := range blobs {
		if err := img.releaseBlobLocked(b); err != nil {
			return 0, err
		}
	}
	return int(end - pos), nil
}

// Allocated reports whether the cluster containing virtual offset off is
// materialised in this image (not deferring to backing).
func (img *Image) Allocated(off int64) (bool, error) {
	img.mu.RLock()
	defer img.mu.RUnlock()
	if img.closed {
		return false, ErrClosed
	}
	if off < 0 || off >= int64(img.hdr.Size) {
		return false, ErrOutOfRange
	}
	m, err := img.lookup(off / img.ly.clusterSize)
	if err != nil {
		return false, err
	}
	return m.dataOff != 0, nil
}

// AllocatedDataClusters counts materialised data clusters (excluding
// metadata); used by tests and `qimg info`.
func (img *Image) AllocatedDataClusters() (int64, error) {
	img.mu.RLock()
	defer img.mu.RUnlock()
	if img.closed {
		return 0, ErrClosed
	}
	var count int64
	for l1i, l1e := range img.l1 {
		l2Off := int64(l1e & entryOffsetMask)
		if l2Off == 0 {
			continue
		}
		t, err := img.loadL2(l2Off)
		if err != nil {
			return 0, err
		}
		_ = l1i
		for _, e := range t {
			if e&entryOffsetMask != 0 {
				count++
			}
		}
	}
	return count, nil
}
