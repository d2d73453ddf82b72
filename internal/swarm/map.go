// Package swarm implements chunk-level multi-source cache distribution: the
// BitTorrent-style layer that lets a flash crowd of nodes warm the same cache
// from each other instead of serialising on the storage node or on whichever
// single peer warmed first.
//
// The unit of exchange is a chunk — a fixed 64 KiB span of the image's
// *virtual* address space. Transfers never ship container bytes: every node
// warms its cache in its own order, so physical layouts differ, but the
// virtual address space is shared by construction. Each node advertises which
// chunks it can serve locally as a compact bitmap (Map, exported over the
// rblock OpMap request), refreshed as its own cache fills, so a cache is a
// useful source while it is still warming. Cluster validity is monotone
// during a warm — fills only add clusters — so a stale map is a safe lower bound: acting on it can under-fetch, never
// read a range the server would have to fault in from its own backing.
//
// The fetching side runs a Scheduler (rarest-first selection, a per-peer
// in-flight cap, failed-chunk reassignment, rendezvous-hashed storage
// fallback) driven by a Session whose workers pull assigned chunks
// through the cache's ordinary copy-on-read fill path via a Source installed
// as the image's backing — a swarm fetch and a concurrent guest demand miss
// share the same singleflight fill and never duplicate a backing read.
package swarm

import (
	"encoding/binary"
	"errors"

	"vmicache/internal/qcow"
)

// ChunkSize is the unit of exchange: 64 KiB of virtual address space, the
// granularity of qcow's chunk map. Every node of a swarm uses it; the map's
// wire header still names it, so a peer with another size is refused rather
// than misread.
const ChunkSize = qcow.ChunkSize

const chunkBits = qcow.ChunkBits

// Map errors.
var (
	ErrBadMap       = errors.New("swarm: malformed chunk map")
	ErrBadChunkBits = errors.New("swarm: map chunk size is not 64 KiB")
	ErrBadSize      = errors.New("swarm: map size must be positive")
)

// Map is a chunk-validity bitmap over an image's virtual address space: bit i
// (bit i&7 of byte i>>3) covers virtual bytes [i*ChunkSize, min((i+1)*
// ChunkSize, Size)).
type Map struct {
	Size int64  // virtual size in bytes
	Bits []byte // one bit per chunk, (NumChunks()+7)/8 bytes
}

// NumChunks reports how many chunks cover the image.
func (m *Map) NumChunks() int64 { return numChunks(m.Size) }

func numChunks(size int64) int64 { return (size + ChunkSize - 1) / ChunkSize }

// Has reports whether chunk c is valid. Out-of-range chunks are invalid.
func (m *Map) Has(c int64) bool {
	if c < 0 || c >= m.NumChunks() {
		return false
	}
	return m.Bits[c>>3]&(1<<(c&7)) != 0
}

func chunkSpan(size, c int64) (off, n int64) {
	off = c << chunkBits
	return off, min(ChunkSize, size-off)
}

// mapHeaderLen is the encoded header: u64 size | u8 chunkBits.
const mapHeaderLen = 9

// Encode serialises the map: u64 size (big-endian) | u8 chunkBits (16) |
// bitmap.
func (m *Map) Encode() []byte {
	out := make([]byte, mapHeaderLen+len(m.Bits))
	binary.BigEndian.PutUint64(out, uint64(m.Size))
	out[8] = chunkBits
	copy(out[mapHeaderLen:], m.Bits)
	return out
}

// EncodeBitmap wraps an externally produced bitmap (qcow's ValidChunkBitmap
// at ChunkSize) in the wire header without copying validation state.
func EncodeBitmap(size int64, bitmap []byte) []byte {
	return (&Map{Size: size, Bits: bitmap}).Encode()
}

// DecodeMap parses an encoded map, validating the header and bitmap length.
func DecodeMap(b []byte) (*Map, error) {
	if len(b) < mapHeaderLen {
		return nil, ErrBadMap
	}
	size := int64(binary.BigEndian.Uint64(b))
	if size <= 0 {
		return nil, ErrBadSize
	}
	if b[8] != chunkBits {
		return nil, ErrBadChunkBits
	}
	m := &Map{Size: size}
	nbytes := (m.NumChunks() + 7) / 8
	if int64(len(b)-mapHeaderLen) != nbytes {
		return nil, ErrBadMap
	}
	m.Bits = make([]byte, nbytes)
	copy(m.Bits, b[mapHeaderLen:])
	return m, nil
}
