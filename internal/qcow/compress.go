package qcow

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"

	"vmicache/internal/backend"
)

// Compressed data clusters, mirroring QCOW2's compressed-cluster feature
// (and serving §8's "data compression ... in the context of VMI caches").
// An L2 entry with the compressed bit set points at a blob: a 4-byte
// big-endian deflate length followed by the deflate stream of exactly one
// cluster of guest data. Blobs are packed back to back at 512-byte
// alignment inside shared physical clusters (QCOW2 packs at sub-sector
// granularity; sector granularity keeps the entry's offset mask intact).
// A shared cluster's refcount equals the number of live blobs inside it.
//
// Compressed clusters are written by bulk import (WriteCompressedCluster /
// core.CreateBase with compression) and become ordinary read-only data:
// guest writes to a compressed cluster copy-on-write into a fresh
// uncompressed cluster, exactly like QCOW2.

// entryCompressed marks an L2 entry whose cluster holds a deflate blob.
const entryCompressed = uint64(1) << 62

// WriteCompressedCluster compresses one full cluster of guest data and
// installs it at cluster index vc. The data must be exactly one cluster
// (the final, partial cluster of an image may be shorter). Only unallocated
// clusters can be written compressed, and never on cache images (their
// quota accounting assumes raw fills).
func (img *Image) WriteCompressedCluster(vc int64, data []byte) error {
	img.mu.Lock()
	defer img.mu.Unlock()
	if img.closed {
		return ErrClosed
	}
	if img.ro {
		return ErrReadOnly
	}
	if img.isCache {
		return ErrCacheImmutable
	}
	cs := img.ly.clusterSize
	maxLen := cs
	if end := int64(img.hdr.Size) - vc*cs; end < maxLen {
		maxLen = end
	}
	if vc < 0 || maxLen <= 0 {
		return ErrOutOfRange
	}
	if int64(len(data)) != maxLen {
		return fmt.Errorf("qcow: compressed write needs exactly %d bytes, got %d", maxLen, len(data))
	}
	m, err := img.lookup(vc)
	if err != nil {
		return err
	}
	if m.dataOff != 0 {
		return fmt.Errorf("qcow: cluster %d already allocated", vc)
	}

	var blob bytes.Buffer
	blob.Write([]byte{0, 0, 0, 0}) // length placeholder
	fw, err := flate.NewWriter(&blob, flate.BestSpeed)
	if err != nil {
		return err
	}
	if _, err := fw.Write(data); err != nil {
		return err
	}
	if err := fw.Close(); err != nil {
		return err
	}
	binary.BigEndian.PutUint32(blob.Bytes()[0:4], uint32(blob.Len()-4))

	// Incompressible clusters are stored raw — never pay expansion.
	if int64(blob.Len()) >= cs {
		m2, err := img.ensureL2(vc)
		if err != nil {
			return err
		}
		dataOff, err := img.allocCluster(false)
		if err != nil {
			return err
		}
		padded := make([]byte, cs)
		copy(padded, data)
		if err := backend.WriteFull(img.f, padded, dataOff); err != nil {
			return err
		}
		return img.bindCluster(&m2, dataOff)
	}

	m2, err := img.ensureL2(vc)
	if err != nil {
		return err
	}
	blobOff, err := img.allocBlobSpaceLocked(int64(blob.Len()))
	if err != nil {
		return err
	}
	if err := backend.WriteFull(img.f, blob.Bytes(), blobOff); err != nil {
		return err
	}
	t, err := img.loadL2(m2.l2Off)
	if err != nil {
		return err
	}
	t[m2.l2Index] = uint64(blobOff) | entryCompressed
	img.stats.CompressedClusters.Add(1)
	img.stats.CompressedBytes.Add(int64(blob.Len()))
	return img.writeL2Entry(m2.l2Off, m2.l2Index, t[m2.l2Index])
}

// allocBlobSpaceLocked returns a 512-byte-aligned offset with room for n
// bytes, packing blobs into shared clusters. The containing cluster's
// refcount counts its live blobs.
func (img *Image) allocBlobSpaceLocked(n int64) (int64, error) {
	const blobAlign = 512
	need := ceilDiv(n, blobAlign) * blobAlign
	cs := img.ly.clusterSize
	// Fits in the current partially-filled cluster?
	if img.compCursor != 0 {
		cluster := img.compCursor / cs
		remaining := (cluster+1)*cs - img.compCursor
		if need <= remaining {
			off := img.compCursor
			img.compCursor += need
			if img.compCursor >= (cluster+1)*cs {
				img.compCursor = 0
			}
			rc, err := img.refcount(cluster)
			if err != nil {
				return 0, err
			}
			if rc < maxRefcountValue {
				if err := img.setRefcount(cluster, rc+1); err != nil {
					return 0, err
				}
			}
			return off, nil
		}
	}
	// Open a fresh cluster (refcount 1 = this first blob), zeroed so the
	// container stays cluster-aligned while blobs fill it.
	off, err := img.allocCluster(true)
	if err != nil {
		return 0, err
	}
	img.compCursor = off + need
	if img.compCursor >= off+cs {
		img.compCursor = 0
	}
	return off, nil
}

// readCompressed inflates the blob at blobOff and returns one cluster of
// guest data. Safe without the image lock: it reads only immutable blob
// bytes from the container (blobs are never moved once bound).
func (img *Image) readCompressed(blobOff int64) ([]byte, error) {
	var hdr [4]byte
	if err := backend.ReadFull(img.f, hdr[:], blobOff); err != nil {
		return nil, err
	}
	n := int64(binary.BigEndian.Uint32(hdr[:]))
	if n <= 0 || n > img.ly.clusterSize*2 {
		return nil, fmt.Errorf("%w: compressed blob length %d", ErrCorrupt, n)
	}
	comp := make([]byte, n)
	if err := backend.ReadFull(img.f, comp, blobOff+4); err != nil {
		return nil, err
	}
	fr := flate.NewReader(bytes.NewReader(comp))
	defer fr.Close() //nolint:errcheck // flate readers cannot fail on close
	out := make([]byte, 0, img.ly.clusterSize)
	buf := make([]byte, 32<<10)
	for {
		k, err := fr.Read(buf)
		out = append(out, buf[:k]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("%w: inflating cluster: %v", ErrCorrupt, err)
		}
		if int64(len(out)) > img.ly.clusterSize {
			return nil, fmt.Errorf("%w: compressed cluster inflates past cluster size", ErrCorrupt)
		}
	}
	return out, nil
}

// CompressionStats reports (clusters, compressedBytes) written compressed.
func (img *Image) CompressionStats() (int64, int64) {
	return img.stats.CompressedClusters.Load(), img.stats.CompressedBytes.Load()
}

// releaseBlobLocked drops one blob reference from its containing cluster
// after the blob's L2 entry has been replaced (copy-on-write out of a
// compressed cluster).
func (img *Image) releaseBlobLocked(blobOff int64) error {
	cluster := blobOff / img.ly.clusterSize
	rc, err := img.refcount(cluster)
	if err != nil {
		return err
	}
	if rc > 0 {
		rc--
	}
	return img.setRefcount(cluster, rc)
}
