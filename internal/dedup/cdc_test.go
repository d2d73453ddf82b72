package dedup

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"
)

// randBytes returns deterministic pseudo-random content.
func randBytes(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b) //nolint:errcheck // never fails
	return b
}

func chunkLens(p []byte) []int {
	var lens []int
	Chunks(p, func(off int64, c []byte) { lens = append(lens, len(c)) })
	return lens
}

func TestChunksZeroLength(t *testing.T) {
	calls := 0
	Chunks(nil, func(off int64, c []byte) { calls++ })
	Chunks([]byte{}, func(off int64, c []byte) { calls++ })
	if calls != 0 {
		t.Fatalf("zero-length input produced %d chunks", calls)
	}
	m, err := Build(bytes.NewReader(nil), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Entries) != 0 || m.Length != 0 {
		t.Fatalf("empty Build: %+v", m)
	}
	if m.Checksum != Key(sha256.Sum256(nil)) {
		t.Fatalf("empty checksum = %v", m.Checksum)
	}
	// Empty manifests must survive the wire format.
	back, err := DecodeManifest(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if back.Checksum != m.Checksum || back.Length != 0 {
		t.Fatalf("empty round trip: %+v", back)
	}
}

func TestChunksCoverInput(t *testing.T) {
	for _, n := range []int{1, MinChunk - 1, MinChunk, MinChunk + 1, 1 << 20} {
		data := randBytes(int64(n), n)
		var total int
		var rebuilt []byte
		Chunks(data, func(off int64, c []byte) {
			if int(off) != total {
				t.Fatalf("n=%d: chunk at %d, expected %d", n, off, total)
			}
			if len(c) < MinChunk && int(off)+len(c) != n {
				t.Fatalf("n=%d: interior chunk of %d < MinChunk", n, len(c))
			}
			if len(c) > MaxChunk {
				t.Fatalf("n=%d: chunk of %d > MaxChunk", n, len(c))
			}
			total += len(c)
			rebuilt = append(rebuilt, c...)
		})
		if total != n || !bytes.Equal(rebuilt, data) {
			t.Fatalf("n=%d: chunks cover %d bytes", n, total)
		}
	}
}

func TestChunkSizeDistribution(t *testing.T) {
	lens := chunkLens(randBytes(7, 8<<20))
	if len(lens) < 2 {
		t.Fatalf("8 MiB made %d chunks", len(lens))
	}
	avg := (8 << 20) / len(lens)
	// The gear mask targets ~16 KiB + the MinChunk warm-up; accept a wide
	// band — the point is "neither one giant chunk nor per-byte dust".
	if avg < AvgChunk/2 || avg > 4*AvgChunk {
		t.Fatalf("average chunk %d, target ~%d", avg, AvgChunk)
	}
}

// TestInsertionShift is the reason chunking is content-defined: inserting
// one byte near the front must re-key only a bounded neighbourhood, not
// every downstream chunk (fixed-size chunking re-keys them all).
func TestInsertionShift(t *testing.T) {
	base := randBytes(42, 4<<20)
	edited := append(append(append([]byte{}, base[:1000]...), 0xA5), base[1000:]...)

	hashes := func(p []byte) map[Key]int {
		set := make(map[Key]int)
		Chunks(p, func(off int64, c []byte) { set[Key(sha256.Sum256(c))]++ })
		return set
	}
	a, b := hashes(base), hashes(edited)
	var shared, total int
	for k, n := range b {
		total += n
		if a[k] > 0 {
			shared += n
		}
	}
	if total < 10 {
		t.Fatalf("only %d chunks; test needs a longer tail", total)
	}
	// All but a handful of chunks (those spanning the edit point) must be
	// byte-identical, hence content-addressed-shareable.
	if missed := total - shared; missed > 4 {
		t.Fatalf("1-byte insertion re-keyed %d of %d chunks", missed, total)
	}
}

func TestManifestRoundTrip(t *testing.T) {
	data := randBytes(3, 300<<10)
	m, err := Build(bytes.NewReader(data), int64(len(data)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Checksum != Key(sha256.Sum256(data)) {
		t.Fatal("whole-image checksum mismatch")
	}
	back, err := DecodeManifest(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if back.Length != m.Length || back.Checksum != m.Checksum || len(back.Entries) != len(m.Entries) {
		t.Fatalf("round trip: %+v vs %+v", back, m)
	}
	for i := range m.Entries {
		if back.Entries[i] != m.Entries[i] {
			t.Fatalf("entry %d differs", i)
		}
	}
	// Build must emit chunks that match the manifest exactly, in order.
	i := 0
	_, err = Build(bytes.NewReader(data), int64(len(data)), func(e Entry, raw []byte) error {
		if e != m.Entries[i] {
			t.Fatalf("emit %d: %v vs %v", i, e, m.Entries[i])
		}
		if Key(sha256.Sum256(raw)) != e.Hash {
			t.Fatalf("emit %d: raw bytes do not hash to entry", i)
		}
		i++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDecodeManifestRejectsGarbage(t *testing.T) {
	m := &Manifest{Entries: []Entry{{Len: 5}}, Length: 5}
	good := m.Encode()
	for name, mutate := range map[string]func([]byte) []byte{
		"short":      func(b []byte) []byte { return b[:3] },
		"magic":      func(b []byte) []byte { b[0] ^= 0xFF; return b },
		"version":    func(b []byte) []byte { b[4] = 99; return b },
		"reserved":   func(b []byte) []byte { b[6] = 1; return b },
		"truncated":  func(b []byte) []byte { return b[:len(b)-1] },
		"length-sum": func(b []byte) []byte { b[15] ^= 1; return b },
		// Entry lengths no cutter produces; the header length agrees with
		// them, so only the per-entry bound can refuse.
		"empty-chunk": func(b []byte) []byte { b[15], b[manifestHdrLen+3] = 0, 0; return b },
		"oversized-chunk": func(b []byte) []byte {
			binary.BigEndian.PutUint64(b[8:], MaxChunk+1)
			binary.BigEndian.PutUint32(b[manifestHdrLen:], MaxChunk+1)
			return b
		},
	} {
		b := mutate(append([]byte{}, good...))
		if _, err := DecodeManifest(b); !errors.Is(err, ErrBadManifest) {
			t.Errorf("%s: decode of a corrupt manifest: %v", name, err)
		}
	}
}

// FuzzDecodeManifest feeds the manifest decoder — the first thing a delta
// warm parses from a peer — arbitrary bytes. It must not panic, must not
// allocate beyond what the input's own length pays for, and whatever it
// accepts must be a manifest of producible chunks that encodes back to the
// input byte for byte.
func FuzzDecodeManifest(f *testing.F) {
	ent := func(n uint32, fill byte) Entry {
		return Entry{Hash: Key(bytes.Repeat([]byte{fill}, sha256.Size)), Len: n}
	}
	// Small seeds (≈ 100 B), as FuzzPackScan learned: every interesting
	// input is minimized byte by byte.
	zero := (&Manifest{Checksum: Key(sha256.Sum256(nil))}).Encode()
	one := (&Manifest{Entries: []Entry{ent(5, 1)}, Length: 5}).Encode()
	three := (&Manifest{Entries: []Entry{ent(MinChunk, 1), ent(MaxChunk, 2), ent(1, 1)}, Length: MinChunk + MaxChunk + 1}).Encode()
	f.Add(zero)
	f.Add(one)
	f.Add(three)
	f.Add(one[:manifestHdrLen-5])            // truncated header
	f.Add(three[:len(three)-manifestEntLen]) // count says three, two follow
	wrongSum := append([]byte{}, three...)
	wrongSum[15]++ // header length one more than the entries' sum
	f.Add(wrongSum)
	huge := append([]byte{}, one...)
	copy(huge[manifestHdrLen:], []byte{0xFF, 0xFF, 0xFF, 0xFF}) // a 4 GiB chunk
	f.Add(huge)
	many := append([]byte{}, zero...)
	copy(many[manifestHdrLen-4:], []byte{0xFF, 0xFF, 0xFF, 0xFF}) // 4 Gi entries in 52 bytes
	f.Add(many)

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeManifest(data)
		if err != nil {
			if m != nil || !errors.Is(err, ErrBadManifest) {
				t.Fatalf("rejected with manifest %v, error %v", m != nil, err)
			}
			return
		}
		if manifestHdrLen+len(m.Entries)*manifestEntLen != len(data) {
			t.Fatalf("%d entries decoded from %d bytes", len(m.Entries), len(data))
		}
		var sum int64
		for i, e := range m.Entries {
			if e.Len == 0 || e.Len > MaxChunk {
				t.Fatalf("entry %d: accepted a %d byte chunk", i, e.Len)
			}
			sum += int64(e.Len)
		}
		if sum != m.Length {
			t.Fatalf("entries sum to %d, length %d", sum, m.Length)
		}
		if !bytes.Equal(m.Encode(), data) {
			t.Fatal("accepted manifest does not re-encode to its input")
		}
	})
}

func TestMissing(t *testing.T) {
	data := randBytes(9, 1<<20)
	m, err := Build(bytes.NewReader(data), int64(len(data)), nil)
	if err != nil {
		t.Fatal(err)
	}
	have := make(map[Key]bool)
	for i, e := range m.Entries {
		if i%2 == 0 {
			have[e.Hash] = true
		}
	}
	missing, want, need := m.Missing(func(k Key) bool { return have[k] })
	if want != m.Length {
		t.Fatalf("want %d != length %d", want, m.Length)
	}
	if need <= 0 || need >= want {
		t.Fatalf("need %d out of range (want %d)", need, want)
	}
	for _, e := range missing {
		if have[e.Hash] {
			t.Fatal("Missing returned a held chunk")
		}
	}
	// Nothing held: everything distinct is missing. Everything held: none.
	all, w2, n2 := m.Missing(func(Key) bool { return false })
	if n2 != w2 && len(all) != len(m.Entries) {
		t.Fatalf("all-missing: need %d want %d", n2, w2)
	}
	none, _, n3 := m.Missing(func(Key) bool { return true })
	if len(none) != 0 || n3 != 0 {
		t.Fatalf("none-missing: %d entries, need %d", len(none), n3)
	}
}

// Chunks splits p into content-defined chunks, calling fn with the offset
// and bytes of each. The subslices alias p. Zero-length input yields zero
// chunks.
func Chunks(p []byte, fn func(off int64, chunk []byte)) {
	var off int64
	for len(p) > 0 {
		n := cutPoint(p)
		fn(off, p[:n])
		off += int64(n)
		p = p[n:]
	}
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
