package qcow

import (
	"encoding/binary"
	"strings"
	"testing"

	"vmicache/internal/backend"
)

// checkReference is the per-cluster Check this package shipped before the
// by-the-block rewrite — a map of expected counts and one two-byte read per
// cluster — kept as the oracle the rewrite's verdicts are compared against.
// It returns its error count, not the strings.
func checkReference(t *testing.T, img *Image) (errs int, res CheckResult) {
	t.Helper()
	cs := img.ly.clusterSize
	fileSize, err := img.f.Size()
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
	for _, e := range img.refTable {
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
	for c := int64(0); c < totalClusters; c++ {
		got, err := img.refcount(c)
		if err != nil {
			t.Fatal(err)
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
			img, err := Open(backend.NopClose(mem), OpenOpts{ReadOnly: true})
			if err != nil {
				t.Fatal(err)
			}
			defer img.Close() //nolint:errcheck // read-only
			got, err := img.Check()
			if err != nil {
				t.Fatal(err)
			}
			refErrs, ref := checkReference(t, img)
			if got.OK() != tc.wantOK || got.Leaks != tc.wantLeaks {
				t.Errorf("verdict ok=%v leaks=%d, want ok=%v leaks=%d: %s", got.OK(), got.Leaks, tc.wantOK, tc.wantLeaks, got)
			}
			if n := len(got.Errors) + got.ErrorsOmitted; n != refErrs {
				t.Errorf("%d errors, the per-cluster check found %d: %s", n, refErrs, got)
			}
			if got.Leaks != ref.Leaks || got.AllocatedClusters != ref.AllocatedClusters ||
				got.DataClusters != ref.DataClusters || got.PartialClusters != ref.PartialClusters {
				t.Errorf("tallies %+v, the per-cluster check had %+v", *got, ref)
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
	re, err := Open(backend.NopClose(mem), OpenOpts{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := re.Check()
	if err != nil {
		t.Fatal(err)
	}
	re.Close() //nolint:errcheck // read-only
	if len(res.Errors) != maxCheckErrors || res.ErrorsOmitted < 512-maxCheckErrors {
		t.Fatalf("%d errors kept, %d omitted; want the cap of %d and the rest counted",
			len(res.Errors), res.ErrorsOmitted, maxCheckErrors)
	}
	if s := res.String(); !strings.Contains(s, "more") || strings.Count(s, "\n") > maxCheckErrors+2 {
		t.Fatalf("capped result renders as %d lines", strings.Count(s, "\n"))
	}
	if _, err := OpenVerified(backend.NopClose(mem), OpenOpts{ReadOnly: true}); err == nil {
		t.Fatal("OpenVerified accepted the damaged container")
	}

	// A length the refcount table cannot index is rejected, not allocated
	// for: a petabyte of claimed clusters would be a terabyte of tally.
	if err := mem.Truncate(1 << 50); err != nil {
		t.Fatal(err)
	}
	re, err = Open(backend.NopClose(mem), OpenOpts{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close() //nolint:errcheck // read-only
	res, err = re.Check()
	if err != nil {
		t.Fatal(err)
	}
	if res.OK() || !strings.Contains(res.Errors[0], "refcount table indexes") {
		t.Fatalf("oversized container not rejected: %s", res)
	}
}
