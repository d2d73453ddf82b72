package qcow

// Chunk-validity export. The swarm distribution layer (internal/swarm)
// advertises which fixed-size spans of an image's *virtual* address space can
// be served from this node without touching the backing source — the
// BitTorrent-style piece map that lets a cache be shared while it is still
// warming. Validity is derived from the same state the read path uses:
//
//   - an allocated cluster, raw or compressed, is locally valid
//     (decompression is local);
//   - an unallocated cluster is valid only when the image has no backing
//     file at all (reads materialise zeros locally).
//
// A chunk is valid iff every cluster it overlaps is valid. Cluster validity
// is monotone while an image warms (fills only add clusters), so a snapshot
// taken mid-warm is a safe *lower* bound: a peer acting on a stale map can
// only under-fetch, never read a range the serving node would have to fault
// in from its own backing.

// ChunkBits is the log2 of the chunk map's granularity: 64 KiB spans, the
// swarm's unit of exchange (internal/swarm's ChunkSize is this constant).
const ChunkBits = 16

// ChunkSize is the span one chunk-map bit covers.
const ChunkSize = 1 << ChunkBits

// ValidChunkBitmap reports, for every ChunkSize-aligned span of the virtual
// disk, whether the span is fully readable from this image's own container.
// Bit i of the result (bit i&7 of byte i>>3) covers virtual bytes
// [i*ChunkSize, min((i+1)*ChunkSize, Size())). A chunk smaller than a
// cluster inherits its cluster's validity.
func (img *Image) ValidChunkBitmap() ([]byte, error) {
	size := img.Size()
	nchunks := (size + ChunkSize - 1) / ChunkSize
	bits := make([]byte, (nchunks+7)/8)
	cs := img.ly.clusterSize

	img.mu.RLock()
	defer img.mu.RUnlock()
	if img.closed {
		return nil, ErrClosed
	}
	noBacking := img.hdr.BackingFile == ""
	rl := runLookup{img: img}
	clusters := img.ly.clustersFor(size)
	// Walk clusters once, clearing every chunk a non-valid cluster touches.
	for i := range bits {
		bits[i] = 0xff
	}
	if pad := nchunks & 7; pad != 0 {
		bits[len(bits)-1] = byte(1<<pad) - 1
	}
	for vc := int64(0); vc < clusters; vc++ {
		if img.clusterLocallyValidLocked(&rl, vc, noBacking) {
			continue
		}
		c0 := vc * cs / ChunkSize
		c1 := (minI64((vc+1)*cs, size) - 1) / ChunkSize
		for c := c0; c <= c1; c++ {
			bits[c>>3] &^= 1 << (c & 7)
		}
	}
	return bits, nil
}

// clusterLocallyValidLocked reports whether cluster vc is readable without
// the backing source. Caller holds img.mu (read or write).
func (img *Image) clusterLocallyValidLocked(rl *runLookup, vc int64, noBacking bool) bool {
	m, err := rl.lookup(vc)
	if err != nil {
		return false
	}
	return m.dataOff != 0 || noBacking
}

// RangeLocallyValid reports whether [off, off+n) is fully readable from this
// image's own container — the serving-side guard the swarm exporter applies
// before a peer read, so a request for a not-yet-warm span is refused
// instead of faulting data in from the serving node's backing source.
func (img *Image) RangeLocallyValid(off, n int64) bool {
	if n <= 0 {
		return true
	}
	if off < 0 || off+n > img.Size() {
		return false
	}
	cs := img.ly.clusterSize
	img.mu.RLock()
	defer img.mu.RUnlock()
	if img.closed {
		return false
	}
	noBacking := img.hdr.BackingFile == ""
	rl := runLookup{img: img}
	for vc := off / cs; vc <= (off+n-1)/cs; vc++ {
		if !img.clusterLocallyValidLocked(&rl, vc, noBacking) {
			return false
		}
	}
	return true
}
