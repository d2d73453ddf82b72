package qcow

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"vmicache/internal/backend"
)

func TestHeaderEncodeDecodeRoundTrip(t *testing.T) {
	h := &Header{
		Magic:            Magic,
		Version:          Version,
		ClusterBits:      12,
		Size:             10 << 30,
		L1Size:           1234,
		L1TableOffset:    3 * 4096,
		RefTableOffset:   4096,
		RefTableClusters: 2,
		RefcountOrder:    refcountOrder,
		BackingFile:      "nfs:centos.img",
		HasCacheExt:      true,
		CacheQuota:       250 << 20,
		CacheUsed:        93 << 20,
	}
	buf, err := h.encode(4096)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != 4096 {
		t.Fatalf("encoded length %d", len(buf))
	}
	got, err := decodeHeader(buf, false)
	if err != nil {
		t.Fatal(err)
	}
	if got.Size != h.Size || got.ClusterBits != h.ClusterBits ||
		got.L1Size != h.L1Size || got.L1TableOffset != h.L1TableOffset ||
		got.RefTableOffset != h.RefTableOffset || got.RefTableClusters != h.RefTableClusters {
		t.Fatalf("fixed fields: %+v", got)
	}
	if got.BackingFile != h.BackingFile {
		t.Fatalf("backing: %q", got.BackingFile)
	}
	if !got.HasCacheExt || got.CacheQuota != h.CacheQuota || got.CacheUsed != h.CacheUsed {
		t.Fatalf("cache ext: %+v", got)
	}
	if !got.IsCache() {
		t.Fatal("IsCache false")
	}
}

// Property: headers with random sizes/names round-trip exactly.
func TestHeaderQuickRoundTrip(t *testing.T) {
	check := func(size uint64, nameLen uint8, quota uint64, hasExt bool) bool {
		name := strings.Repeat("x", int(nameLen)%200)
		h := &Header{
			Magic: Magic, Version: Version, ClusterBits: 16,
			Size: size, RefcountOrder: refcountOrder,
			BackingFile: name, HasCacheExt: hasExt,
			CacheQuota: quota,
		}
		buf, err := h.encode(64 << 10)
		if err != nil {
			return false
		}
		got, err := decodeHeader(buf, false)
		if err != nil {
			return false
		}
		ok := got.Size == size && got.BackingFile == name
		if hasExt {
			ok = ok && got.HasCacheExt && got.CacheQuota == quota
		} else {
			ok = ok && !got.HasCacheExt
		}
		return ok
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Hostile input: Open must reject corrupted headers with errors, never
// panic or loop.
func TestOpenHostileHeaders(t *testing.T) {
	// Start from a valid image, then corrupt specific header fields.
	mk := func(mutate func(b []byte)) error {
		f := backend.NewMemFile()
		img, err := Create(f, CreateOpts{Size: testMB, ClusterBits: 12})
		if err != nil {
			t.Fatal(err)
		}
		if err := img.Sync(); err != nil {
			t.Fatal(err)
		}
		sz, _ := f.Size()
		raw := make([]byte, sz)
		if err := backend.ReadFull(f, raw, 0); err != nil {
			t.Fatal(err)
		}
		mutate(raw)
		f2 := backend.NewMemFile()
		if err := backend.WriteFull(f2, raw, 0); err != nil {
			t.Fatal(err)
		}
		_, err = Open(f2, OpenOpts{})
		return err
	}

	if err := mk(func(b []byte) { b[0] = 0 }); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("bad magic: %v", err)
	}
	if err := mk(func(b []byte) { b[7] = 9 }); err == nil {
		t.Fatal("bad version accepted")
	}
	if err := mk(func(b []byte) { b[23] = 40 }); !errors.Is(err, ErrBadClusterBits) {
		t.Fatalf("absurd cluster bits: %v", err)
	}
	if err := mk(func(b []byte) { b[99] = 7 }); err == nil {
		t.Fatal("bad refcount order accepted")
	}
	// L1 offset misaligned.
	if err := mk(func(b []byte) { b[47] = 0x13 }); err == nil {
		t.Fatal("misaligned L1 accepted")
	}
	// An L1 the file cannot hold is refused before its 2^32-1 entries (a
	// 32 GiB table, 64 GiB with its read buffer) are allocated; so is an
	// aligned L1 offset past the end of the file.
	if err := mk(func(b []byte) { binary.BigEndian.PutUint32(b[36:], 1<<32-1) }); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("L1 size past end of file: %v", err)
	}
	if err := mk(func(b []byte) { binary.BigEndian.PutUint64(b[40:], 1<<40) }); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("L1 offset past end of file: %v", err)
	}
}

// Hostile input: random bytes never crash Open.
func TestOpenRandomGarbageNeverPanics(t *testing.T) {
	rnd := rand.New(rand.NewSource(12))
	for i := 0; i < 200; i++ {
		n := rnd.Intn(8192) + 1
		raw := make([]byte, n)
		rnd.Read(raw)
		f := backend.NewMemFile()
		if err := backend.WriteFull(f, raw, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(f, OpenOpts{}); err == nil {
			t.Fatalf("garbage %d opened successfully", i)
		}
	}
}

// Hostile input: a header claiming a huge backing-name offset past the
// cluster must be rejected, not read out of bounds.
func TestOpenTruncatedImage(t *testing.T) {
	f := backend.NewMemFile()
	img, err := Create(f, CreateOpts{Size: testMB, ClusterBits: 12})
	if err != nil {
		t.Fatal(err)
	}
	if err := img.Sync(); err != nil {
		t.Fatal(err)
	}
	sz, _ := f.Size()
	raw := make([]byte, sz)
	if err := backend.ReadFull(f, raw, 0); err != nil {
		t.Fatal(err)
	}
	// Truncate mid-L1: Open must fail cleanly.
	f2 := backend.NewMemFile()
	if err := backend.WriteFull(f2, raw[:5000], 0); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(f2, OpenOpts{}); err == nil {
		t.Fatal("truncated image opened")
	}
	// Truncate to a few bytes.
	f3 := backend.NewMemFile()
	if err := backend.WriteFull(f3, raw[:50], 0); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(f3, OpenOpts{}); err == nil {
		t.Fatal("stub image opened")
	}
}

// wholeClusterHeader is the decode Open did before the probe: check the
// magic and cluster bits of the fixed header, then decode the whole first
// cluster. FuzzHeader holds readHeader to its verdicts.
func wholeClusterHeader(data []byte) (*Header, error) {
	if len(data) < headerLength {
		return nil, ErrBadHeader
	}
	if binary.BigEndian.Uint32(data[0:]) != Magic {
		return nil, ErrBadMagic
	}
	cb := binary.BigEndian.Uint32(data[20:])
	if cb < MinClusterBits || cb > MaxClusterBits {
		return nil, ErrBadClusterBits
	}
	return decodeHeader(data[:min(int64(1)<<cb, int64(len(data)))], false)
}

// subclusterHeader encodes h the way the retired sub-cluster cache format
// did: incompatible feature bit 0 set, and a "SUBC" extension (4 KiB
// sub-cluster bits, the validity bitmap's offset) between the cache extension
// and the end marker. This package no longer reads such a container.
func subclusterHeader(tb testing.TB, h Header, cs int64) []byte {
	tb.Helper()
	h.Magic, h.Version, h.RefcountOrder = Magic, Version, refcountOrder
	h.IncompatFeatures |= 1
	b, err := h.encode(cs)
	if err != nil {
		tb.Fatal(err)
	}
	at := headerLength
	if h.HasCacheExt {
		at += 24
	}
	ext := make([]byte, 24)
	binary.BigEndian.PutUint32(ext[0:], 0x53554243) // "SUBC"
	binary.BigEndian.PutUint32(ext[4:], 16)
	binary.BigEndian.PutUint32(ext[8:], 12)
	binary.BigEndian.PutUint64(ext[16:], uint64(cs))
	out := append(append(append([]byte{}, b[:at]...), ext...), b[at:len(b)-len(ext)]...)
	if off := binary.BigEndian.Uint64(b[8:]); off != 0 {
		binary.BigEndian.PutUint64(out[8:], off+uint64(len(ext)))
	}
	return out
}

// TestUnknownIncompatFeatureRejected: an incompatible feature bit this
// package does not implement fails every open — among them bit 0, which the
// retired sub-cluster caches set, so such a cache is refused, never misread.
func TestUnknownIncompatFeatureRejected(t *testing.T) {
	for _, tc := range []struct {
		name   string
		header func(h Header) []byte
	}{
		{"bit 17", func(h Header) []byte {
			h.IncompatFeatures |= 1 << 17
			b, err := h.encode(1 << h.ClusterBits)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}},
		{"sub-cluster cache", func(h Header) []byte {
			b := subclusterHeader(t, h, 1<<h.ClusterBits)
			// Only the feature bit refuses it: without the bit, the SUBC
			// extension is an unknown one and the header decodes whole.
			clean := append([]byte{}, b...)
			binary.BigEndian.PutUint64(clean[72:], 0)
			if got, err := decodeHeader(clean, false); err != nil || got.BackingFile != h.BackingFile || got.CacheQuota != h.CacheQuota {
				t.Fatalf("sub-cluster header without its bit: %+v, %v", got, err)
			}
			return b
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mem := backend.NewMemFile()
			img, err := Create(backend.NopClose(mem), CreateOpts{
				Size: testMB, ClusterBits: 16, BackingFile: "base", CacheQuota: 4 * testMB,
			})
			if err != nil {
				t.Fatal(err)
			}
			img.SetBacking(patSource{n: testMB})
			if err := backend.ReadFull(img, make([]byte, 64<<10), 0); err != nil {
				t.Fatal(err)
			}
			h := img.Header()
			if err := img.Close(); err != nil {
				t.Fatal(err)
			}
			if err := backend.WriteFull(mem, tc.header(h), 0); err != nil {
				t.Fatal(err)
			}
			if _, err := ReadHeader(mem); !errors.Is(err, ErrBadHeader) {
				t.Fatalf("ReadHeader: %v, want ErrBadHeader", err)
			}
			for _, ro := range []bool{true, false} {
				if _, err := Open(backend.NopClose(mem), OpenOpts{ReadOnly: ro}); !errors.Is(err, ErrBadHeader) {
					t.Fatalf("Open (read-only=%v): %v, want ErrBadHeader", ro, err)
				}
				if _, err := OpenVerified(backend.NopClose(mem), OpenOpts{ReadOnly: ro}); !errors.Is(err, ErrBadHeader) {
					t.Fatalf("OpenVerified (read-only=%v): %v, want ErrBadHeader", ro, err)
				}
			}
		})
	}
}

// FuzzHeader is differential: reading the header with a probe (and the
// fallback to the whole first cluster) must reach the verdict decoding the
// whole first cluster does — the same Header or the same error — in at most
// two reads, one when the file fits in the probe. The probe size is
// an input, so seeds of a couple of hundred bytes reach the fallback.
func FuzzHeader(f *testing.F) {
	enc := func(h Header, cs int64) []byte {
		h.Magic, h.Version, h.RefcountOrder = Magic, Version, refcountOrder
		b, err := h.encode(cs)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	cache := enc(Header{ClusterBits: 9, Size: 1 << 20, HasCacheExt: true, CacheQuota: 1 << 20, BackingFile: "nfs:base.img"}, 512)
	sub := subclusterHeader(f, Header{ClusterBits: 16, Size: 1 << 20, HasCacheExt: true, CacheQuota: 1 << 20,
		BackingFile: "b"}, 64<<10)
	if _, err := decodeHeader(sub, false); !errors.Is(err, ErrBadHeader) {
		f.Fatalf("sub-cluster header decoded: %v", err)
	}
	plain := enc(Header{ClusterBits: 12, Size: 1 << 20}, 4096)
	f.Add(cache[:200], uint16(120))  // extensions end past the probe
	f.Add(cache[:200], uint16(4096)) // one read covers the file
	f.Add(cache[:200], uint16(140))  // backing name past the probe
	f.Add(cache[:140], uint16(104))  // backing name cut by the end of the file
	f.Add(sub[:220], uint16(150))    // retired sub-cluster format, extension past the probe
	f.Add(sub[:120], uint16(0))      // the same, probe clamped to the fixed header
	f.Add(plain[:112], uint16(112))  // end marker exactly at the probe
	f.Add(plain[:200], uint16(0))    // no extensions, no backing name
	long := append([]byte{}, plain[:240]...)
	binary.BigEndian.PutUint32(long[104:], 0x7a7a7a7a) // an unknown extension...
	binary.BigEndian.PutUint32(long[108:], 100)        // ...of 100 bytes
	f.Add(long, uint16(160))
	wrap := append([]byte{}, plain[:200]...)
	binary.BigEndian.PutUint64(wrap[8:], 1<<63-1) // offset + length overflows an int
	binary.BigEndian.PutUint32(wrap[16:], 5)
	f.Add(wrap, uint16(0))
	f.Add([]byte("QFI\xfb not a header at all, and shorter than the fixed one"), uint16(64))
	hugeL1 := append([]byte{}, plain[:200]...)
	binary.BigEndian.PutUint32(hugeL1[36:], 1<<32-1) // an L1 far past the end of the file
	binary.BigEndian.PutUint64(hugeL1[40:], 4096)
	f.Add(hugeL1, uint16(0))

	f.Fuzz(func(t *testing.T, data []byte, probe uint16) {
		want, wantErr := wholeClusterHeader(data)
		mem := backend.NewMemFile()
		if err := backend.WriteFull(mem, data, 0); err != nil {
			t.Fatal(err)
		}
		reads := 0
		hf := backend.NewHookFile(mem)
		hf.OnRead = func(int64, int) { reads++ }
		got, err := readHeader(hf, int64(len(data)), int64(probe))
		switch {
		case (err == nil) != (wantErr == nil), err != nil && err.Error() != wantErr.Error():
			t.Fatalf("probe %d: error %v, whole cluster: %v", probe, err, wantErr)
		case !reflect.DeepEqual(got, want):
			t.Fatalf("probe %d: %+v, whole cluster: %+v", probe, got, want)
		}
		if fits := len(data) <= max(int(probe), headerLength); reads > 2 || fits && reads > 1 {
			t.Fatalf("%d reads of a %d byte file with a %d byte probe", reads, len(data), probe)
		}
		// Open sizes its tables from header fields; whatever they claim, it
		// allocates no more than the file holds and accepts only an L1
		// that lies inside the file.
		if err != nil {
			return
		}
		img, err := Open(mem, OpenOpts{ReadOnly: true})
		if err != nil {
			return
		}
		defer img.Close() //nolint:errcheck // read-only
		if !within(got.L1TableOffset, uint64(got.L1Size)*l1EntrySize, int64(len(data))) {
			t.Fatalf("opened with L1 %d×8 B at %d in a %d byte file", got.L1Size, got.L1TableOffset, len(data))
		}
	})
}
