package qcow

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	"vmicache/internal/backend"
)

// checkReference is the per-cluster Check this package shipped before the
// by-the-block rewrite — a map of expected counts and one two-byte read per
// cluster — kept as the oracle the rewrite's verdicts are compared against.
// It returns its error count, not the strings. It reads the refcount table
// itself, as a read-only image holds none.
func checkReference(t *testing.T, img *Image) (errs int, res CheckResult) {
	t.Helper()
	cs := img.ly.clusterSize
	fileSize, err := img.f.Size()
	if err != nil {
		t.Fatal(err)
	}
	refTable, err := readRefTable(img.f, img.hdr, img.ly, fileSize)
	if err != nil {
		t.Fatal(err)
	}
	totalClusters := ceilDiv(fileSize, cs)
	expected := make(map[int64]int64)
	ref := func(off int64) {
		switch {
		case off%cs != 0, off/cs >= totalClusters:
			errs++
		default:
			expected[off/cs]++
		}
	}
	ref(0)
	for i := int64(0); i < int64(img.hdr.RefTableClusters); i++ {
		ref(int64(img.hdr.RefTableOffset) + i*cs)
	}
	for _, e := range refTable {
		if off := int64(e & entryOffsetMask); off != 0 {
			ref(off)
		}
	}
	for i := int64(0); i < ceilDiv(int64(img.hdr.L1Size)*l1EntrySize, cs); i++ {
		ref(int64(img.hdr.L1TableOffset) + i*cs)
	}
	for _, l1e := range img.l1 {
		l2Off := int64(l1e & entryOffsetMask)
		if l2Off == 0 {
			continue
		}
		ref(l2Off)
		tbl, err := img.loadL2(l2Off)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range tbl {
			dOff := int64(e & entryOffsetMask)
			if dOff == 0 {
				continue
			}
			res.DataClusters++
			if e&entryCompressed == 0 {
				ref(dOff)
			} else if c := dOff / cs; c >= totalClusters {
				errs++
			} else {
				expected[c]++
			}
		}
	}
	if s := img.sub; s != nil {
		for i := int64(0); i < subTableClusters(img.ly, int64(img.hdr.Size)); i++ {
			ref(s.tableOff + i*cs)
		}
		for vc := int64(0); vc < s.clusters; vc++ {
			m, err := img.lookup(vc)
			if err != nil {
				t.Fatal(err)
			}
			w, full := s.words[vc].Load(), s.fullMask(vc)
			switch {
			case w&^full != 0:
				errs++
			case m.dataOff == 0 || m.compressed:
				if w != 0 {
					errs++
				}
			case w == 0:
				errs++
			case w != full:
				res.PartialClusters++
			}
		}
	}
	res.AllocatedClusters = int64(len(expected))
	rbe := img.ly.refBlockEnts
	for c := int64(0); c < totalClusters; c++ {
		var got uint16
		if rb := c / rbe; rb < int64(len(refTable)) && refTable[rb]&entryOffsetMask != 0 {
			var b [refcountEntrySz]byte
			off := int64(refTable[rb]&entryOffsetMask) + c%rbe*refcountEntrySz
			if err := backend.ReadFull(img.f, b[:], off); err != nil {
				t.Fatal(err)
			}
			got = binary.BigEndian.Uint16(b[:])
		}
		switch want := expected[c]; {
		case int64(got) == want:
		case want == 0:
			res.Leaks++
		default:
			errs++
		}
	}
	return errs, res
}

// put64 and put16 patch one big-endian word of a container.
func put64(t *testing.T, f backend.File, off int64, v uint64) {
	t.Helper()
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	if err := backend.WriteFull(f, b[:], off); err != nil {
		t.Fatal(err)
	}
}

func put16(t *testing.T, f backend.File, off int64, v uint16) {
	t.Helper()
	var b [2]byte
	binary.BigEndian.PutUint16(b[:], v)
	if err := backend.WriteFull(f, b[:], off); err != nil {
		t.Fatal(err)
	}
}

// TestCheckVerdictEquivalence damages a warmed cache one way at a time and
// requires the by-the-block Check to reach the verdict the per-cluster one
// did: same error count, same leaks, same cluster tallies.
func TestCheckVerdictEquivalence(t *testing.T) {
	const size = 4 << 20
	// warmed builds a cache with clusters 0..5 filled (and, with sub, cluster
	// 8 partially) and returns its container plus the geometry the damage
	// needs: the first L2 table, the first refcount block, the bitmap table.
	type geom struct {
		cs, l2Off, rbOff, subOff, clusters int64
	}
	warmed := func(t *testing.T, cb int, sub bool) (*backend.MemFile, geom) {
		mem := backend.NewMemFile()
		img, err := Create(backend.NopClose(mem), CreateOpts{
			Size: size, ClusterBits: cb, BackingFile: "b", CacheQuota: 2 * size, Subclusters: sub,
		})
		if err != nil {
			t.Fatal(err)
		}
		img.SetBacking(patSource{n: size})
		cs := img.ClusterSize()
		if err := backend.ReadFull(img, make([]byte, 6*cs), 0); err != nil {
			t.Fatal(err)
		}
		if sub {
			if err := backend.ReadFull(img, make([]byte, 100), 8*cs); err != nil {
				t.Fatal(err)
			}
		}
		g := geom{
			cs:     cs,
			l2Off:  int64(img.l1[0] & entryOffsetMask),
			rbOff:  int64(img.refTable[0] & entryOffsetMask),
			subOff: int64(img.hdr.SubTableOffset),
		}
		if err := img.Close(); err != nil {
			t.Fatal(err)
		}
		sz, _ := mem.Size()
		g.clusters = sz / cs
		return mem, g
	}
	cases := []struct {
		name      string
		cb        int
		sub       bool
		damage    func(t *testing.T, f *backend.MemFile, g geom)
		wantOK    bool
		wantLeaks int // a redirected slot orphans the cluster it pointed at
	}{
		{name: "clean", cb: 9, wantOK: true},
		{name: "clean sub-cluster", cb: 16, sub: true, wantOK: true},
		{name: "refcount mismatch", cb: 9, damage: func(t *testing.T, f *backend.MemFile, g geom) {
			put16(t, f, g.rbOff+(g.clusters-1)*refcountEntrySz, 2) // the last data cluster
		}},
		{name: "refcount wiped", cb: 9, damage: func(t *testing.T, f *backend.MemFile, g geom) {
			put16(t, f, g.rbOff, 0) // the header cluster
		}},
		{name: "leak", cb: 9, wantOK: true, wantLeaks: 1, damage: func(t *testing.T, f *backend.MemFile, g geom) {
			if err := f.Truncate((g.clusters + 2) * g.cs); err != nil {
				t.Fatal(err)
			}
			put16(t, f, g.rbOff+g.clusters*refcountEntrySz, 1)
		}},
		{name: "data cluster beyond EOF", cb: 9, wantLeaks: 1, damage: func(t *testing.T, f *backend.MemFile, g geom) {
			put64(t, f, g.l2Off+3*l2EntrySize, uint64((g.clusters+40)*g.cs)|entryCopied)
		}},
		{name: "data cluster misaligned and beyond EOF", cb: 12, wantLeaks: 1, damage: func(t *testing.T, f *backend.MemFile, g geom) {
			put64(t, f, g.l2Off+2*l2EntrySize, uint64(g.clusters*g.cs+512)|entryCopied)
		}},
		{name: "misaligned data cluster", cb: 12, wantLeaks: 1, damage: func(t *testing.T, f *backend.MemFile, g geom) {
			put64(t, f, g.l2Off+1*l2EntrySize, uint64((g.clusters-2)*g.cs+512)|entryCopied)
		}},
		{name: "two slots share a cluster", cb: 9, wantLeaks: 1, damage: func(t *testing.T, f *backend.MemFile, g geom) {
			put64(t, f, g.l2Off+5*l2EntrySize, uint64((g.clusters-3)*g.cs)|entryCopied)
		}},
		{name: "torn: bits on an unallocated cluster", cb: 16, sub: true, damage: func(t *testing.T, f *backend.MemFile, g geom) {
			put64(t, f, g.subOff+20*8, 0x3)
		}},
		{name: "torn: bound cluster without bits", cb: 16, sub: true, damage: func(t *testing.T, f *backend.MemFile, g geom) {
			put64(t, f, g.subOff+2*8, 0)
		}},
		{name: "bits beyond the cluster", cb: 13, sub: true, damage: func(t *testing.T, f *backend.MemFile, g geom) {
			put64(t, f, g.subOff+1*8, 0xff)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mem, g := warmed(t, tc.cb, tc.sub)
			if tc.damage != nil {
				tc.damage(t, mem, g)
			}
			// A read-only open reads the refcount table in Check, a
			// writable one at open: the verdicts must not differ.
			var byMode [2]*CheckResult
			for i, ro := range []bool{true, false} {
				img, err := Open(backend.NopClose(mem), OpenOpts{ReadOnly: ro})
				if err != nil {
					t.Fatal(err)
				}
				got, err := img.Check()
				if err != nil {
					t.Fatal(err)
				}
				refErrs, ref := checkReference(t, img)
				if err := img.Close(); err != nil {
					t.Fatal(err)
				}
				if got.OK() != tc.wantOK || got.Leaks != tc.wantLeaks {
					t.Errorf("read-only=%v: verdict ok=%v leaks=%d, want ok=%v leaks=%d: %s", ro, got.OK(), got.Leaks, tc.wantOK, tc.wantLeaks, got)
				}
				if n := len(got.Errors) + got.ErrorsOmitted; n != refErrs {
					t.Errorf("read-only=%v: %d errors, the per-cluster check found %d: %s", ro, n, refErrs, got)
				}
				if got.Leaks != ref.Leaks || got.AllocatedClusters != ref.AllocatedClusters ||
					got.DataClusters != ref.DataClusters || got.PartialClusters != ref.PartialClusters {
					t.Errorf("read-only=%v: tallies %+v, the per-cluster check had %+v", ro, *got, ref)
				}
				byMode[i] = got
			}
			if !reflect.DeepEqual(byMode[0], byMode[1]) {
				t.Errorf("read-only open: %+v, writable open: %+v", *byMode[0], *byMode[1])
			}
		})
	}
}

// TestCheckBoundedOnHostileInput: a container a peer shipped must not make
// Check work in proportion to its damage or to a length it merely claims.
func TestCheckBoundedOnHostileInput(t *testing.T) {
	const size = 4 << 20
	mem := backend.NewMemFile()
	img, err := Create(backend.NopClose(mem), CreateOpts{
		Size: size, ClusterBits: 9, BackingFile: "b", CacheQuota: 2 * size,
	})
	if err != nil {
		t.Fatal(err)
	}
	img.SetBacking(patSource{n: size})
	if err := backend.ReadFull(img, make([]byte, 256<<10), 0); err != nil { // 512 clusters, 8 tables
		t.Fatal(err)
	}
	l1 := append([]uint64(nil), img.l1[:8]...)
	if err := img.Close(); err != nil {
		t.Fatal(err)
	}

	// Every one of the 512 bound slots points past the end of the file.
	for _, e := range l1 {
		for i := int64(0); i < 64; i++ {
			put64(t, mem, int64(e&entryOffsetMask)+i*l2EntrySize, uint64(1)<<40|entryCopied)
		}
	}
	// checkBoth runs Check on a read-only and on a writable open and
	// requires the same result from both.
	checkBoth := func() *CheckResult {
		t.Helper()
		var byMode [2]*CheckResult
		for i, ro := range []bool{true, false} {
			re, err := Open(backend.NopClose(mem), OpenOpts{ReadOnly: ro})
			if err != nil {
				t.Fatal(err)
			}
			if byMode[i], err = re.Check(); err != nil {
				t.Fatal(err)
			}
			if err := re.Close(); err != nil {
				t.Fatal(err)
			}
		}
		if !reflect.DeepEqual(byMode[0], byMode[1]) {
			t.Fatalf("read-only open: %+v, writable open: %+v", *byMode[0], *byMode[1])
		}
		return byMode[0]
	}
	res := checkBoth()
	if len(res.Errors) != maxCheckErrors || res.ErrorsOmitted < 512-maxCheckErrors {
		t.Fatalf("%d errors kept, %d omitted; want the cap of %d and the rest counted",
			len(res.Errors), res.ErrorsOmitted, maxCheckErrors)
	}
	if s := res.String(); !strings.Contains(s, "more") || strings.Count(s, "\n") > maxCheckErrors+2 {
		t.Fatalf("capped result renders as %d lines", strings.Count(s, "\n"))
	}
	for _, ro := range []bool{true, false} {
		if _, err := OpenVerified(backend.NopClose(mem), OpenOpts{ReadOnly: ro}); err == nil {
			t.Fatalf("OpenVerified (read-only=%v) accepted the damaged container", ro)
		}
	}

	// A length the refcount table cannot index is rejected, not allocated
	// for: a petabyte of claimed clusters would be a terabyte of tally.
	if err := mem.Truncate(1 << 50); err != nil {
		t.Fatal(err)
	}
	if res := checkBoth(); res.OK() || !strings.Contains(res.Errors[0], "refcount table indexes") {
		t.Fatalf("oversized container not rejected: %s", res)
	}
}

// patternImage returns a closed 1 MiB standalone image (4 KiB clusters)
// holding patSource's bytes, and those bytes.
func patternImage(t *testing.T) (*backend.MemFile, []byte) {
	t.Helper()
	const size = 1 << 20
	mem := backend.NewMemFile()
	img, err := Create(backend.NopClose(mem), CreateOpts{Size: size, ClusterBits: 12})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, size)
	if _, err := (patSource{n: size}).ReadAt(want, 0); err != nil {
		t.Fatal(err)
	}
	if err := backend.WriteFull(img, want, 0); err != nil {
		t.Fatal(err)
	}
	if err := img.Close(); err != nil {
		t.Fatal(err)
	}
	return mem, want
}

// TestReadOnlyOpenSkipsRefcountTable: reads never consult refcounts, so a
// read-only open no longer loads the refcount table — an image whose table
// points past the end of the file opens read-only and serves correct
// bytes. Everything that does need the table still refuses it: a writable
// open, and OpenVerified in either mode (the publication and recovery gate).
func TestReadOnlyOpenSkipsRefcountTable(t *testing.T) {
	mem, want := patternImage(t)
	sz, _ := mem.Size()
	put64(t, mem, 48, uint64(sz+64*4096)) // Header.RefTableOffset
	img, err := Open(backend.NopClose(mem), OpenOpts{ReadOnly: true})
	if err != nil {
		t.Fatalf("read-only open: %v", err)
	}
	got := make([]byte, len(want))
	if err := backend.ReadFull(img, got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("read-only image served wrong bytes")
	}
	if _, err := img.Check(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Check on the damaged table: %v, want ErrCorrupt", err)
	}
	if err := img.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(backend.NopClose(mem), OpenOpts{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("writable open: %v, want ErrCorrupt", err)
	}
	for _, ro := range []bool{true, false} {
		if _, err := OpenVerified(backend.NopClose(mem), OpenOpts{ReadOnly: ro}); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("OpenVerified (read-only=%v): %v, want ErrCorrupt", ro, err)
		}
	}
}

// TestConcurrentCheckAndRead runs Check beside guest reads on one read-only
// image: Check reads its own refcount table and writes nothing on the image
// under the shared lock (run with -race).
func TestConcurrentCheckAndRead(t *testing.T) {
	mem, want := patternImage(t)
	img, err := Open(backend.NopClose(mem), OpenOpts{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer img.Close() //nolint:errcheck // read-only
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]byte, 8192)
			for i := 0; i < 20; i++ {
				if w%2 == 0 {
					if res, err := img.Check(); err != nil || !res.OK() {
						t.Errorf("Check: %v %v", err, res)
						return
					}
					continue
				}
				off := int64((i*37+w)%120) * 8192
				if err := backend.ReadFull(img, buf, off); err != nil || !bytes.Equal(buf, want[off:off+8192]) {
					t.Errorf("read at %d: %v", off, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
