package swarm

import (
	"bytes"
	"errors"
	"testing"
)

// withChunkBits returns a copy of an encoded map whose header names another
// chunk size.
func withChunkBits(enc []byte, bits byte) []byte {
	b := bytes.Clone(enc)
	b[8] = bits
	return b
}

// testMap builds a map over a size-byte image with the listed chunks valid.
func testMap(size int64, valid ...int64) *Map {
	m := &Map{Size: size}
	m.Bits = make([]byte, (m.NumChunks()+7)/8)
	for _, c := range valid {
		m.Bits[c>>3] |= 1 << (c & 7)
	}
	return m
}

func TestMapBasics(t *testing.T) {
	m := testMap(1<<20+5, 0, 16) // 17 chunks, last one 5 bytes
	if got := m.NumChunks(); got != 17 {
		t.Fatalf("NumChunks = %d, want 17", got)
	}
	if !m.Has(0) || !m.Has(16) || m.Has(1) {
		t.Fatal("Has mismatch")
	}
	// Out of range is invalid.
	if m.Has(17) || m.Has(-1) {
		t.Fatal("out-of-range chunk reported valid")
	}
	// Tail chunk span is clamped.
	off, n := chunkSpan(m.Size, 16)
	if off != 1<<20 || n != 5 {
		t.Fatalf("chunkSpan(16) = (%d, %d), want (%d, 5)", off, n, 1<<20)
	}
	off, n = chunkSpan(m.Size, 0)
	if off != 0 || n != 1<<16 {
		t.Fatalf("chunkSpan(0) = (%d, %d), want (0, %d)", off, n, 1<<16)
	}
}

func TestMapEncodeDecode(t *testing.T) {
	m := testMap(3*ChunkSize, 1)
	enc := m.Encode()
	got, err := DecodeMap(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Size != m.Size || !bytes.Equal(got.Bits, m.Bits) {
		t.Fatalf("roundtrip mismatch: %+v vs %+v", got, m)
	}
	// Decoded map is a copy, not an alias.
	enc[mapHeaderLen] = 0xff
	if got.Bits[0] == 0xff {
		t.Fatal("DecodeMap aliased the input")
	}
}

func TestMapDecodeErrors(t *testing.T) {
	good := testMap(1 << 20).Encode()

	cases := []struct {
		name string
		b    []byte
		want error
	}{
		{"short", good[:4], ErrBadMap},
		{"truncated bitmap", good[:len(good)-1], ErrBadMap},
		{"oversized bitmap", append(append([]byte{}, good...), 0), ErrBadMap},
		// Only 64 KiB chunks are spoken: a peer naming any other size,
		// a neighbouring one included, is refused rather than misread.
		{"chunk bits 42", withChunkBits(good, 42), ErrBadChunkBits},
		{"32 KiB chunks", withChunkBits(good, 15), ErrBadChunkBits},
		{"128 KiB chunks", withChunkBits(good, 17), ErrBadChunkBits},
		{"512 B chunks", withChunkBits(good, 9), ErrBadChunkBits},
		{"zero size", func() []byte {
			b := append([]byte{}, good...)
			for i := 0; i < 8; i++ {
				b[i] = 0
			}
			return b
		}(), ErrBadSize},
	}
	for _, tc := range cases {
		if _, err := DecodeMap(tc.b); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestEncodeBitmapMatchesMapEncode(t *testing.T) {
	m := testMap(5*ChunkSize, 2, 4)
	if !bytes.Equal(EncodeBitmap(m.Size, m.Bits), m.Encode()) {
		t.Fatal("EncodeBitmap differs from Map.Encode")
	}
}

// FuzzDecodeMap feeds DecodeMap arbitrary OpMap replies, as a peer may send:
// it must not panic, every map it accepts must re-encode to exactly the
// bytes it was given, and a header naming any chunk size but 64 KiB must be
// refused.
func FuzzDecodeMap(f *testing.F) {
	for _, size := range []int64{1, ChunkSize, 1<<20 + 5, 3 * ChunkSize} {
		good := testMap(size, 0, (size-1)/ChunkSize).Encode()
		f.Add(good)
		f.Add(good[:len(good)-1])                       // truncated bitmap
		f.Add(append(bytes.Clone(good), 0))             // oversized bitmap
		f.Add(bytes.Clone(good[:mapHeaderLen-1]))       // truncated header
		f.Add(withChunkBits(good, 15))                  // 32 KiB chunks
		f.Add(withChunkBits(good, 17))                  // 128 KiB chunks
		f.Add(withChunkBits(good[:mapHeaderLen], 0xff)) // header only
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := DecodeMap(b)
		if len(b) >= mapHeaderLen && b[8] != chunkBits && err == nil {
			t.Fatalf("accepted a map of %d-bit chunks", b[8])
		}
		if err != nil {
			return
		}
		if enc := m.Encode(); !bytes.Equal(enc, b) {
			t.Fatalf("re-encoded %x, decoded from %x", enc, b)
		}
	})
}
