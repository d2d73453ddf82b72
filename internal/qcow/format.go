// Package qcow implements a QCOW2-style virtual machine image format with
// the paper's VMI-cache extension.
//
// The on-disk layout follows the QCOW2 design described in §4.1 of the
// paper: a header in the first cluster, a two-level L1/L2 lookup translating
// virtual block addresses to physical cluster offsets, a refcount
// table/blocks pair accounting cluster usage, and data clusters allocated at
// the end of the file. Images may name a backing file; reads of unallocated
// clusters recurse to it (copy-on-write), exactly the on-demand-transfer
// scheme whose scalability the paper studies.
//
// The cache extension (§3, §4.3) adds two 8-byte fields — quota and current
// size — carried in a header extension for backward compatibility. An image
// whose quota is non-zero is a cache image: it is immutable with respect to
// guest writes, and populates itself by copy-on-read from its backing image
// until the quota is reached, after which fills stop ("space error") and
// reads pass through.
package qcow

import "vmicache/internal/backend"

// On-disk constants. The magic and header layout mirror QCOW2 version 3 so
// the format choices of the paper (header extension, 512-byte minimum
// cluster) carry over directly.
const (
	// Magic is "QFI\xfb", QCOW's magic number.
	Magic = 0x514649fb

	// Version is the implemented format version.
	Version = 3

	// MinClusterBits (512 B clusters) is the minimum the paper exploits
	// for cache images; MaxClusterBits (2 MiB) matches QCOW2's ceiling.
	MinClusterBits = 9
	MaxClusterBits = 21

	// DefaultClusterBits is QCOW2's default 64 KiB cluster size, used by
	// base and CoW images throughout the evaluation.
	DefaultClusterBits = 16

	// CacheClusterBits is the 512-byte cluster size §5.1 selects for
	// cache images to avoid cold-cache traffic amplification (Fig. 9).
	CacheClusterBits = 9

	// headerLength is the byte length of the fixed header (v3 layout).
	headerLength = 104

	// refcountOrder 4 means 16-bit refcount entries, QCOW2's default.
	refcountOrder    = 4
	refcountBits     = 1 << refcountOrder
	refcountEntrySz  = refcountBits / 8 // bytes per refcount entry
	l1EntrySize      = 8
	l2EntrySize      = 8
	refTableEntrySz  = 8
	maxRefcountValue = 1<<refcountBits - 1

	// Header extension type tags. extEnd terminates the extension list;
	// extCache carries the cache quota and current size (16 bytes).
	extEnd   = 0x00000000
	extCache = 0xcac4e0f1

	// knownIncompat is the set of incompatible-feature bits this
	// implementation understands: none, so any set bit fails open.
	knownIncompat = uint64(0)

	// l1Copied marks an L1/L2 entry whose cluster is private to this
	// image (refcount 1); kept for QCOW2 parity.
	entryCopied = uint64(1) << 63

	// entryOffsetMask extracts the physical offset from an L1/L2 entry.
	entryOffsetMask = uint64(0x00fffffffffffe00)
)

// layout captures the derived geometry of an image.
type layout struct {
	clusterBits  uint32
	clusterSize  int64
	l2Entries    int64 // entries per L2 table
	l2Bits       uint32
	l2Coverage   int64 // virtual bytes covered by one L2 table
	refBlockEnts int64 // refcount entries per refcount block
}

func newLayout(clusterBits uint32) layout {
	cs := int64(1) << clusterBits
	l2e := cs / l2EntrySize
	return layout{
		clusterBits:  clusterBits,
		clusterSize:  cs,
		l2Entries:    l2e,
		l2Bits:       clusterBits - 3,
		l2Coverage:   cs * l2e,
		refBlockEnts: cs / refcountEntrySz,
	}
}

// l1EntriesFor returns the number of L1 entries needed for a virtual size.
func (ly layout) l1EntriesFor(size int64) int64 {
	return ceilDiv(size, ly.l2Coverage)
}

// clustersFor returns how many clusters hold n bytes.
func (ly layout) clustersFor(n int64) int64 {
	return ceilDiv(n, ly.clusterSize)
}

func ceilDiv(a, b int64) int64 {
	return (a + b - 1) / b
}

// BlockSource is anything an image can read backing data from: another
// *Image, a raw backend file adapter, or an instrumented wrapper. Size
// reports the virtual size in bytes.
type BlockSource interface {
	ReadAt(p []byte, off int64) (int, error)
	Size() int64
}

// RawSource adapts a flat (raw-format) container to BlockSource, for base
// images that are raw files rather than qcow images.
type RawSource struct {
	R interface {
		ReadAt(p []byte, off int64) (int, error)
	}
	N int64
}

// ReadAt reads from the flat container; reads past N yield zeros so a raw
// base smaller than the virtual disk behaves like a zero-padded disk.
func (r RawSource) ReadAt(p []byte, off int64) (int, error) {
	if off >= r.N {
		for i := range p {
			p[i] = 0
		}
		return len(p), nil
	}
	n := len(p)
	pad := 0
	if off+int64(n) > r.N {
		pad = int(off + int64(n) - r.N)
		n -= pad
	}
	got, err := r.R.ReadAt(p[:n], off)
	if err != nil {
		return got, err
	}
	for i := n; i < len(p); i++ {
		p[i] = 0
	}
	return len(p), nil
}

// ReadBatch fills every range as ReadAt would, handing the in-bounds parts to
// the container as one backend.ReadBatch.
func (r RawSource) ReadBatch(rs []backend.Range) error {
	in := make([]backend.Range, 0, len(rs))
	for _, x := range rs {
		if x.Off >= r.N {
			clear(x.P)
			continue
		}
		if pad := x.Off + int64(len(x.P)) - r.N; pad > 0 {
			clear(x.P[len(x.P)-int(pad):])
			x.P = x.P[:len(x.P)-int(pad)]
		}
		in = append(in, x)
	}
	return backend.ReadBatch(r.R, in)
}

// Size reports the flat container's size.
func (r RawSource) Size() int64 { return r.N }
