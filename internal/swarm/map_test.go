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

func TestMapBasics(t *testing.T) {
	m, err := NewMap(1<<20 + 5) // 17 chunks, last one 5 bytes
	if err != nil {
		t.Fatal(err)
	}
	if got := m.NumChunks(); got != 17 {
		t.Fatalf("NumChunks = %d, want 17", got)
	}
	if m.Has(0) || m.Has(16) {
		t.Fatal("fresh map should be empty")
	}
	m.Set(0)
	m.Set(16)
	if !m.Has(0) || !m.Has(16) || m.Has(1) {
		t.Fatal("Set/Has mismatch")
	}
	if got := m.Count(); got != 2 {
		t.Fatalf("Count = %d, want 2", got)
	}
	// Out of range is invalid, and Set ignores it.
	if m.Has(17) || m.Has(-1) {
		t.Fatal("out-of-range chunk reported valid")
	}
	m.Set(17)
	m.Set(-1)
	if got := m.Count(); got != 2 {
		t.Fatalf("Count after out-of-range Set = %d, want 2", got)
	}
	// Tail chunk span is clamped.
	off, n := m.ChunkSpan(16)
	if off != 1<<20 || n != 5 {
		t.Fatalf("ChunkSpan(16) = (%d, %d), want (%d, 5)", off, n, 1<<20)
	}
	off, n = m.ChunkSpan(0)
	if off != 0 || n != 1<<16 {
		t.Fatalf("ChunkSpan(0) = (%d, %d), want (0, %d)", off, n, 1<<16)
	}
}

func TestMapEncodeDecode(t *testing.T) {
	m, _ := NewMap(3 * ChunkSize)
	m.Set(1)
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
	m, _ := NewMap(1 << 20)
	good := m.Encode()

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

func TestNewMapErrors(t *testing.T) {
	if _, err := NewMap(0); !errors.Is(err, ErrBadSize) {
		t.Errorf("size 0: %v", err)
	}
	if _, err := NewMap(-1); !errors.Is(err, ErrBadSize) {
		t.Errorf("size -1: %v", err)
	}
}

func TestEncodeBitmapMatchesMapEncode(t *testing.T) {
	m, _ := NewMap(5 * ChunkSize)
	m.Set(2)
	m.Set(4)
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
		m, _ := NewMap(size)
		m.Set(0)
		m.Set(m.NumChunks() - 1)
		good := m.Encode()
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
