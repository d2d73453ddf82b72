package dedup

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"sync/atomic"
	"testing"

	"vmicache/internal/backend"
)

// countedReader counts the preads a resident file serves.
type countedReader struct {
	r     io.ReaderAt
	reads atomic.Int64
}

func (c *countedReader) ReadAt(p []byte, off int64) (int, error) {
	c.reads.Add(1)
	return c.r.ReadAt(p, off)
}

// placeIn places the entries of m that pick chooses in a resident file f
// holding m's image, at their offsets in it, and returns the raw bytes the
// places cover.
func placeIn(m *Manifest, name string, f io.ReaderAt, pick func(i int) bool) (map[Key]Place, int64) {
	places := make(map[Key]Place)
	var off, n int64
	for i, e := range m.Entries {
		if pick(i) {
			places[e.Hash] = Place{Name: name, F: f, Off: off}
			n += int64(e.Len)
		}
		off += int64(e.Len)
	}
	return places, n
}

// materializeWith writes m from s and the resident places into a fresh mem
// file and returns its bytes.
func materializeWith(t *testing.T, m *Manifest, s *BlobStore, places map[Key]Place) ([]byte, error) {
	t.Helper()
	out := backend.NewMemFileSize(m.Length)
	if _, err := StartMaterialize(out, m, s, 2, nil, 0, places).Wait(); err != nil {
		return nil, err
	}
	got := make([]byte, m.Length)
	if err := backend.ReadFull(out, got, 0); err != nil {
		t.Fatal(err)
	}
	return got, nil
}

// TestMaterializeResidentMix takes two of every three entries from a resident
// file and the rest from the packs: the image is byte-equal, only the packed
// entries are inflated, and the copied bytes are counted apart.
func TestMaterializeResidentMix(t *testing.T) {
	data := randBytes(21, 3<<20+999)
	s, err := OpenBlobStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := buildInto(t, s, "img", data, 2)
	if len(distinctKeys(m)) != len(m.Entries) {
		t.Fatal("random image repeats a chunk")
	}
	places, placed := placeIn(m, "v1", bytes.NewReader(data), func(i int) bool { return i%3 != 0 })
	before := s.Stats()
	got, err := materializeWith(t, m, s, places)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("materialized bytes differ")
	}
	st := s.Stats()
	if n, want := st.Decodes-before.Decodes, int64(len(m.Entries)-len(places)); n != want {
		t.Errorf("%d blobs inflated, want the %d packed entries", n, want)
	}
	if n := st.ResidentBytes - before.ResidentBytes; n != placed {
		t.Errorf("%d bytes copied from the resident file, want %d", n, placed)
	}
}

// TestMaterializeResidentRuns pins the resident reads: each run of slots that
// lie back to back in one window and one resident file is one pread, and a
// window holding no packed slot reads no pack.
func TestMaterializeResidentRuns(t *testing.T) {
	data := randBytes(22, 4<<20+4321)
	s, err := OpenBlobStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := buildInto(t, s, "img", data, 2)
	for _, gap := range []int{0, 10} {
		pick := func(i int) bool { return gap == 0 || i%gap != gap-1 }
		// The runs dispatch's windows cut the picked entries into.
		var runs int64
		n, in := 0, false
		for i, e := range m.Entries {
			if pick(i) && !in {
				runs++
			}
			in = pick(i)
			if n += int(e.Len); n >= windowTarget {
				n, in = 0, false
			}
		}
		f := &countedReader{r: bytes.NewReader(data)}
		places, _ := placeIn(m, "v1", f, pick)
		before := s.Stats()
		got, err := materializeWith(t, m, s, places)
		if err != nil {
			t.Fatalf("gap %d: %v", gap, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("gap %d: materialized bytes differ", gap)
		}
		if got := f.reads.Load(); got != runs {
			t.Errorf("gap %d: %d resident preads, want one per run: %d", gap, got, runs)
		}
		if packReads := s.Stats().Reads - before.Reads; gap == 0 && packReads != 0 {
			t.Errorf("every chunk resident, yet %d pack preads", packReads)
		}
	}
}

// TestMaterializeResidentCorrupt flips a byte of one chunk in the resident
// file: the image fails its checksum, the re-check names the resident file and
// that chunk, and the packs are left alone — every blob stays indexed and the
// image materializes from them.
func TestMaterializeResidentCorrupt(t *testing.T) {
	data := randBytes(23, 2<<20+77)
	s, err := OpenBlobStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := buildInto(t, s, "img", data, 2)
	bad := append([]byte(nil), data...)
	victim := len(m.Entries) / 2
	var off int64
	for _, e := range m.Entries[:victim] {
		off += int64(e.Len)
	}
	bad[off+int64(m.Entries[victim].Len)/2] ^= 0xFF
	places, _ := placeIn(m, "v1", bytes.NewReader(bad), func(int) bool { return true })
	_, err = materializeWith(t, m, s, places)
	var cre *CorruptResidentError
	if !errors.As(err, &cre) {
		t.Fatalf("err = %v, want a CorruptResidentError", err)
	}
	if k := m.Entries[victim].Hash; cre.Key != k || cre.Name != "v1" || !strings.Contains(err.Error(), k.String()) {
		t.Fatalf("err = %v, want resident v1 and chunk %v named", err, k)
	}
	if st := s.Stats(); st.Blobs != len(m.Entries) || st.Manifests != 1 {
		t.Fatalf("the packs were touched: %d blobs, %d manifests", st.Blobs, st.Manifests)
	}
	got, err := materializeWith(t, m, s, nil)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("from the packs alone: err %v, equal %v", err, bytes.Equal(got, data))
	}
}
