package dedup

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// A Manifest describes one published cache image as an ordered sequence of
// content-defined chunks. It is the unit of the manifest-first transfer
// protocol: a receiver diffs the entry hashes against the blobs it already
// holds (from any cache of any image) and fetches only the missing ones.
// The whole-image checksum detects a rebuilt base image — same key,
// different content — and drives chunk-level re-publication.

// Entry is one chunk: its content hash and raw (uncompressed) length.
type Entry struct {
	Hash Key
	Len  uint32
}

// Manifest lists the chunks of one image in order plus the image total.
type Manifest struct {
	Entries  []Entry
	Length   int64 // sum of entry lengths
	Checksum Key   // SHA-256 of the whole image
}

const (
	manifestMagic   = 0x564D444D // "VMDM"
	manifestVersion = 1
	manifestHdrLen  = 4 + 1 + 3 + 8 + sha256.Size + 4
	manifestEntLen  = 4 + sha256.Size
)

// ErrBadManifest reports a manifest that fails structural validation.
var ErrBadManifest = errors.New("dedup: bad manifest")

// Encode renders the manifest in its binary wire/disk format.
func (m *Manifest) Encode() []byte {
	buf := make([]byte, manifestHdrLen+len(m.Entries)*manifestEntLen)
	binary.BigEndian.PutUint32(buf[0:], manifestMagic)
	buf[4] = manifestVersion
	binary.BigEndian.PutUint64(buf[8:], uint64(m.Length))
	copy(buf[16:], m.Checksum[:])
	binary.BigEndian.PutUint32(buf[16+sha256.Size:], uint32(len(m.Entries)))
	off := manifestHdrLen
	for _, e := range m.Entries {
		binary.BigEndian.PutUint32(buf[off:], e.Len)
		copy(buf[off+4:], e.Hash[:])
		off += manifestEntLen
	}
	return buf
}

// DecodeManifest parses an encoded manifest, validating magic, version,
// entry count, that every entry is a chunk the cutter could have produced
// (1..MaxChunk bytes — pooled MaxChunk buffers are sized from these lengths),
// and that entry lengths sum to the header length.
func DecodeManifest(b []byte) (*Manifest, error) {
	if len(b) < manifestHdrLen {
		return nil, fmt.Errorf("%w: %d byte header", ErrBadManifest, len(b))
	}
	if binary.BigEndian.Uint32(b[0:]) != manifestMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadManifest)
	}
	if b[4] != manifestVersion || b[5]|b[6]|b[7] != 0 { // version, then three reserved zeros
		return nil, fmt.Errorf("%w: version % x", ErrBadManifest, b[4:8])
	}
	m := &Manifest{Length: int64(binary.BigEndian.Uint64(b[8:]))}
	copy(m.Checksum[:], b[16:])
	count := binary.BigEndian.Uint32(b[16+sha256.Size:])
	if want := manifestHdrLen + int(count)*manifestEntLen; len(b) != want {
		return nil, fmt.Errorf("%w: %d bytes for %d entries", ErrBadManifest, len(b), count)
	}
	m.Entries = make([]Entry, count)
	var sum int64
	off := manifestHdrLen
	for i := range m.Entries {
		m.Entries[i].Len = binary.BigEndian.Uint32(b[off:])
		copy(m.Entries[i].Hash[:], b[off+4:])
		if n := m.Entries[i].Len; n == 0 || n > MaxChunk {
			return nil, fmt.Errorf("%w: entry %d names a %d byte chunk", ErrBadManifest, i, n)
		}
		sum += int64(m.Entries[i].Len)
		off += manifestEntLen
	}
	if sum != m.Length {
		return nil, fmt.Errorf("%w: entries sum %d, length %d", ErrBadManifest, sum, m.Length)
	}
	return m, nil
}

// Build chunks length bytes of r content-defined, calling emit once per
// chunk (in order) with its entry and raw bytes — the caller typically
// stores the blob — and returns the finished manifest. The raw slice is
// only valid during the call. Zero length yields an empty manifest whose
// checksum still covers the (empty) content. Build is the serial reference
// for BuildParallel, which produces byte-identical manifests.
func Build(r io.ReaderAt, length int64, emit func(e Entry, raw []byte) error) (*Manifest, error) {
	var fn func(e Entry, raw, comp []byte) error
	if emit != nil {
		fn = func(e Entry, raw, _ []byte) error { return emit(e, raw) }
	}
	return buildSerial(r, length, false, fn)
}

// Missing returns the distinct entries of m whose hashes fail the has
// predicate, plus the raw byte totals: want is the whole image, need the
// bytes that must actually move. need/want is the delta-transfer ratio the
// experiments gate on.
func (m *Manifest) Missing(has func(Key) bool) (missing []Entry, want, need int64) {
	seen := make(map[Key]bool, len(m.Entries))
	for _, e := range m.Entries {
		want += int64(e.Len)
		if seen[e.Hash] {
			continue
		}
		seen[e.Hash] = true
		if !has(e.Hash) {
			missing = append(missing, e)
			need += int64(e.Len)
		}
	}
	return missing, want, need
}
