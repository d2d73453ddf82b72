package qcow

import (
	"encoding/binary"
	"errors"
	"fmt"

	"vmicache/internal/backend"
)

// Header is the decoded fixed header plus the extensions this implementation
// understands. Field order and widths follow QCOW2 v3 (§4.1 of the paper
// sketches the same structure).
type Header struct {
	Magic             uint32
	Version           uint32
	BackingFileOffset uint64
	BackingFileSize   uint32
	ClusterBits       uint32
	Size              uint64 // virtual disk size
	CryptMethod       uint32
	L1Size            uint32 // entries
	L1TableOffset     uint64
	RefTableOffset    uint64
	RefTableClusters  uint32
	NbSnapshots       uint32
	SnapshotsOffset   uint64
	IncompatFeatures  uint64
	CompatFeatures    uint64
	AutoclearFeatures uint64
	RefcountOrder     uint32
	HeaderLength      uint32

	// Cache extension (§4.3). Present when HasCacheExt; Quota > 0 marks
	// the image as a cache image. CacheUsed is the current size of the
	// cache, maintained as the physical file length.
	HasCacheExt bool
	CacheQuota  uint64
	CacheUsed   uint64

	// Sub-cluster extension. Present when HasSubExt: allocated data
	// clusters may be partially valid, with per-sub-cluster validity
	// bits held in a bitmap table at SubTableOffset (one big-endian
	// uint64 word per virtual cluster). SubBits is the sub-cluster size
	// (log2). Guarded by IncompatSubclusters in IncompatFeatures.
	HasSubExt      bool
	SubBits        uint32
	SubTableOffset uint64

	// BackingFile is the decoded backing file name ("" if none).
	BackingFile string

	// cacheExtOff is the file offset of the cache extension payload,
	// recorded so the current-size field can be rewritten in place.
	cacheExtOff int64
}

// IsCache reports whether the header marks a cache image.
func (h *Header) IsCache() bool { return h.HasCacheExt && h.CacheQuota > 0 }

// encode serialises the header, its extensions, and the backing file name
// into a single buffer that must fit in the first cluster.
func (h *Header) encode(clusterSize int64) ([]byte, error) {
	buf := make([]byte, headerLength)
	be := binary.BigEndian
	be.PutUint32(buf[0:], h.Magic)
	be.PutUint32(buf[4:], h.Version)
	// Backing file offset/size are fixed up below once the extension
	// block length is known.
	be.PutUint32(buf[20:], h.ClusterBits)
	be.PutUint64(buf[24:], h.Size)
	be.PutUint32(buf[32:], h.CryptMethod)
	be.PutUint32(buf[36:], h.L1Size)
	be.PutUint64(buf[40:], h.L1TableOffset)
	be.PutUint64(buf[48:], h.RefTableOffset)
	be.PutUint32(buf[56:], h.RefTableClusters)
	be.PutUint32(buf[60:], h.NbSnapshots)
	be.PutUint64(buf[64:], h.SnapshotsOffset)
	be.PutUint64(buf[72:], h.IncompatFeatures)
	be.PutUint64(buf[80:], h.CompatFeatures)
	be.PutUint64(buf[88:], h.AutoclearFeatures)
	be.PutUint32(buf[96:], h.RefcountOrder)
	be.PutUint32(buf[100:], headerLength)

	// Extensions: [type u32][len u32][data padded to 8].
	if h.HasCacheExt {
		ext := make([]byte, 8+16)
		be.PutUint32(ext[0:], extCache)
		be.PutUint32(ext[4:], 16)
		be.PutUint64(ext[8:], h.CacheQuota)
		be.PutUint64(ext[16:], h.CacheUsed)
		buf = append(buf, ext...)
	}
	if h.HasSubExt {
		ext := make([]byte, 8+16)
		be.PutUint32(ext[0:], extSubcluster)
		be.PutUint32(ext[4:], 16)
		be.PutUint32(ext[8:], h.SubBits)
		be.PutUint64(ext[16:], h.SubTableOffset)
		buf = append(buf, ext...)
	}
	endExt := make([]byte, 8)
	be.PutUint32(endExt[0:], extEnd)
	buf = append(buf, endExt...)

	if h.BackingFile != "" {
		h.BackingFileOffset = uint64(len(buf))
		h.BackingFileSize = uint32(len(h.BackingFile))
		be.PutUint64(buf[8:], h.BackingFileOffset)
		be.PutUint32(buf[16:], h.BackingFileSize)
		buf = append(buf, []byte(h.BackingFile)...)
	}
	if int64(len(buf)) > clusterSize {
		return nil, ErrBackingNameSize
	}
	// Pad to the full cluster so the header cluster is fully defined.
	padded := make([]byte, clusterSize)
	copy(padded, buf)
	return padded, nil
}

// headerProbe is how much of the file one header read takes: the smallest
// cluster, so no image pays more bytes for its header than its first cluster,
// yet it holds the fixed header, this package's extensions and a backing name
// of up to ~350 bytes, so an open reads the header once at any cluster size.
const headerProbe = 1 << MinClusterBits

// errPastProbe is decodeHeader's verdict on a probe that ends before the
// extension list or the backing name does: decode the whole first cluster.
var errPastProbe = errors.New("qcow: header reaches past the probe")

// ReadHeader decodes the header of the image in f and loads no table: all a
// caller that needs only the virtual size or the geometry has to pay.
func ReadHeader(f backend.File) (*Header, error) {
	sz, err := f.Size()
	if err != nil {
		return nil, err
	}
	return readHeader(f, sz, headerProbe)
}

// readHeader reads the header of a file of sz bytes with one read of
// min(probe, sz) bytes, of which only the first cluster is decoded, and reads
// the whole first cluster only when the extensions or the backing name run
// past the probe. Either way the verdict is decodeHeader's on the first
// cluster; probe is a parameter so tests can force the fallback.
func readHeader(f backend.File, sz, probe int64) (*Header, error) {
	if sz < headerLength {
		return nil, ErrBadHeader
	}
	buf := make([]byte, min(max(probe, headerLength), sz))
	if err := backend.ReadFull(f, buf, 0); err != nil {
		return nil, err
	}
	if binary.BigEndian.Uint32(buf[0:]) != Magic {
		return nil, ErrBadMagic
	}
	cb := binary.BigEndian.Uint32(buf[20:])
	if cb < MinClusterBits || cb > MaxClusterBits {
		return nil, ErrBadClusterBits
	}
	first := min(int64(1)<<cb, sz)
	if int64(len(buf)) >= first {
		return decodeHeader(buf[:first], false)
	}
	if h, err := decodeHeader(buf, true); !errors.Is(err, errPastProbe) {
		return h, err
	}
	buf = make([]byte, first)
	if err := backend.ReadFull(f, buf, 0); err != nil {
		return nil, err
	}
	return decodeHeader(buf, false)
}

// decodeHeader parses a header cluster. With prefix set, buf is only the
// start of the first cluster, and every verdict that depends on bytes past
// it is errPastProbe instead.
func decodeHeader(buf []byte, prefix bool) (*Header, error) {
	if len(buf) < headerLength {
		return nil, ErrBadHeader
	}
	short := ErrBadHeader
	if prefix {
		short = errPastProbe
	}
	be := binary.BigEndian
	h := &Header{
		Magic:             be.Uint32(buf[0:]),
		Version:           be.Uint32(buf[4:]),
		BackingFileOffset: be.Uint64(buf[8:]),
		BackingFileSize:   be.Uint32(buf[16:]),
		ClusterBits:       be.Uint32(buf[20:]),
		Size:              be.Uint64(buf[24:]),
		CryptMethod:       be.Uint32(buf[32:]),
		L1Size:            be.Uint32(buf[36:]),
		L1TableOffset:     be.Uint64(buf[40:]),
		RefTableOffset:    be.Uint64(buf[48:]),
		RefTableClusters:  be.Uint32(buf[56:]),
		NbSnapshots:       be.Uint32(buf[60:]),
		SnapshotsOffset:   be.Uint64(buf[64:]),
		IncompatFeatures:  be.Uint64(buf[72:]),
		CompatFeatures:    be.Uint64(buf[80:]),
		AutoclearFeatures: be.Uint64(buf[88:]),
		RefcountOrder:     be.Uint32(buf[96:]),
		HeaderLength:      be.Uint32(buf[100:]),
	}
	if h.Magic != Magic {
		return nil, ErrBadMagic
	}
	if h.Version != Version {
		return nil, fmt.Errorf("%w: %d", ErrBadVersion, h.Version)
	}
	if h.ClusterBits < MinClusterBits || h.ClusterBits > MaxClusterBits {
		return nil, ErrBadClusterBits
	}
	if h.RefcountOrder != refcountOrder {
		return nil, fmt.Errorf("%w: refcount order %d", ErrBadHeader, h.RefcountOrder)
	}
	if h.HeaderLength < headerLength {
		return nil, ErrBadHeader
	}
	if unknown := h.IncompatFeatures &^ knownIncompat; unknown != 0 {
		return nil, fmt.Errorf("%w: unknown incompatible features %#x", ErrBadHeader, unknown)
	}

	// Walk extensions. When opening a QCOW2 image, "it is checked against
	// our new caching extension. If the extension is detected ... the
	// image is treated as a cache image" (§4.3). Unknown extensions are
	// skipped for backward compatibility. A list the cluster ends inside
	// ends there.
	pos := int(h.HeaderLength)
	for {
		if pos+8 > len(buf) {
			if prefix {
				return nil, errPastProbe
			}
			break
		}
		typ := be.Uint32(buf[pos:])
		length := int(be.Uint32(buf[pos+4:]))
		pos += 8
		if typ == extEnd {
			break
		}
		if pos+length > len(buf) {
			return nil, short
		}
		if typ == extCache && length == 16 {
			h.HasCacheExt = true
			h.CacheQuota = be.Uint64(buf[pos:])
			h.CacheUsed = be.Uint64(buf[pos+8:])
			h.cacheExtOff = int64(pos)
		}
		if typ == extSubcluster && length == 16 {
			h.HasSubExt = true
			h.SubBits = be.Uint32(buf[pos:])
			h.SubTableOffset = be.Uint64(buf[pos+8:])
		}
		pos += (length + 7) &^ 7
	}
	// The incompat bit and the extension must agree: a set bit without
	// the geometry (or vice versa) is a damaged header.
	if h.HasSubExt != (h.IncompatFeatures&IncompatSubclusters != 0) {
		return nil, fmt.Errorf("%w: subcluster extension/feature mismatch", ErrBadHeader)
	}
	if h.HasSubExt {
		if h.SubBits < MinClusterBits || h.SubBits >= h.ClusterBits || h.SubBits != subBitsFor(h.ClusterBits) {
			return nil, fmt.Errorf("%w: subcluster bits %d for cluster bits %d", ErrBadHeader, h.SubBits, h.ClusterBits)
		}
		if h.SubTableOffset == 0 || h.SubTableOffset%uint64(int64(1)<<h.ClusterBits) != 0 {
			return nil, fmt.Errorf("%w: misaligned subcluster table offset %#x", ErrBadHeader, h.SubTableOffset)
		}
	}

	if off := h.BackingFileOffset; off != 0 {
		if off < headerLength {
			return nil, ErrBadHeader
		}
		if off > uint64(len(buf)) || uint64(h.BackingFileSize) > uint64(len(buf))-off {
			return nil, short
		}
		h.BackingFile = string(buf[off : off+uint64(h.BackingFileSize)])
	}
	return h, nil
}

// cacheExtFileOffset computes where the cache extension's payload lives in
// the file, so the current-size field can be updated in place on close
// without rewriting the whole header. Returns 0 if the extension is absent.
func (h *Header) cacheExtFileOffset() int64 {
	if !h.HasCacheExt {
		return 0
	}
	if h.cacheExtOff != 0 {
		return h.cacheExtOff
	}
	// Images created by this package write the cache extension first in
	// the extension list: payload starts after the fixed header plus the
	// 8-byte extension header.
	return headerLength + 8
}
