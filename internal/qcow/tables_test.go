package qcow

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"sync"
	"testing"

	"vmicache/internal/backend"
)

// tablesImage writes a 1 MiB patterned image of 512 B clusters (32 L2
// tables) and returns its container and content.
func tablesImage(t *testing.T) (*backend.MemFile, []byte) {
	t.Helper()
	const size = 1 << 20
	mem := backend.NewMemFile()
	img, err := Create(backend.NopClose(mem), CreateOpts{Size: size, ClusterBits: 9})
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

// phaseReads holds the container offsets read by an open and by the
// whole-image read after it.
type phaseReads struct{ open, replay []int64 }

// openAndRead opens mem with opts and reads the whole image back.
func openAndRead(t *testing.T, mem *backend.MemFile, want []byte, opts OpenOpts) (*Image, phaseReads) {
	t.Helper()
	var pr phaseReads
	dst := &pr.open
	hf := backend.NewHookFile(backend.NopClose(mem))
	hf.OnRead = func(off int64, _ int) { *dst = append(*dst, off) }
	img, err := Open(hf, opts)
	if err != nil {
		t.Fatal(err)
	}
	dst = &pr.replay
	got := make([]byte, len(want))
	if err := backend.ReadFull(img, got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("image served wrong bytes")
	}
	return img, pr
}

// TestSharedTablesReadOnce: the first read-only open that takes a set reads
// the header and the L1 and decodes every L2 table it touches; a later open
// with the same set reads the header probe and nothing else of the metadata,
// and its replay hits every table.
func TestSharedTablesReadOnce(t *testing.T) {
	mem, want := tablesImage(t)
	set := NewTables()
	first, pr := openAndRead(t, mem, want, OpenOpts{ReadOnly: true, Tables: set})
	if len(pr.open) != 2 || pr.open[0] != 0 || pr.open[1] != int64(first.hdr.L1TableOffset) {
		t.Fatalf("first open read %v, want the header and the L1", pr.open)
	}
	if m := first.Stats().L2CacheMisses.Load(); m != 32 {
		t.Fatalf("first open decoded %d L2 tables, want 32", m)
	}

	second, pr := openAndRead(t, mem, want, OpenOpts{ReadOnly: true, Tables: set})
	if len(pr.open) != 1 || pr.open[0] != 0 {
		t.Fatalf("second open read %v, want the header probe only", pr.open)
	}
	if m := second.Stats().L2CacheMisses.Load(); m != 0 {
		t.Fatalf("second open missed %d L2 tables, want 0", m)
	}
	// The first image closing leaves the set serving the second.
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4096)
	if err := backend.ReadFull(second, got, 8192); err != nil || !bytes.Equal(got, want[8192:8192+4096]) {
		t.Fatalf("read after the filling image closed: %v", err)
	}
	if err := second.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestOpenVerifiedFillsTables: a verify given an empty set fills it with the
// L1 and every L2 table its Check decodes, so the next open of the file reads
// only the header probe and decodes no table; a verify that fails retires the
// set it was given, so no open takes its tables.
func TestOpenVerifiedFillsTables(t *testing.T) {
	mem, want := tablesImage(t)
	set := NewTables()
	img, err := OpenVerified(backend.NopClose(mem), OpenOpts{ReadOnly: true, Tables: set})
	if err != nil {
		t.Fatal(err)
	}
	if m := img.Stats().L2CacheMisses.Load(); m != 32 {
		t.Fatalf("the verify decoded %d L2 tables, want 32", m)
	}
	if err := img.Close(); err != nil {
		t.Fatal(err)
	}
	next, pr := openAndRead(t, mem, want, OpenOpts{ReadOnly: true, Tables: set})
	defer next.Close() //nolint:errcheck // read-only
	if len(pr.open) != 1 || pr.open[0] != 0 {
		t.Fatalf("the open after the verify read %v, want the header probe only", pr.open)
	}
	if m := next.Stats().L2CacheMisses.Load(); m != 0 {
		t.Fatalf("the open after the verify decoded %d L2 tables, want 0", m)
	}

	// Point an L2 entry between clusters: the check fails.
	sz, _ := mem.Size()
	raw := make([]byte, sz)
	if err := backend.ReadFull(mem, raw, 0); err != nil {
		t.Fatal(err)
	}
	bad := backend.NewMemFile()
	if err := backend.WriteFull(bad, raw, 0); err != nil {
		t.Fatal(err)
	}
	l2 := int64(next.l1[0] & entryOffsetMask)
	if err := backend.WriteFull(bad, binary.BigEndian.AppendUint64(nil, 0x12345), l2); err != nil {
		t.Fatal(err)
	}
	failed := NewTables()
	if _, err := OpenVerified(backend.NopClose(bad), OpenOpts{ReadOnly: true, Tables: failed}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("verify of a damaged file: %v, want ErrCorrupt", err)
	}
	img, pr = openAndRead(t, mem, want, OpenOpts{ReadOnly: true, Tables: failed})
	img.Close() //nolint:errcheck // read-only
	if len(pr.open) < 2 {
		t.Fatalf("an open took the tables of a failed verify (it read only %v)", pr.open)
	}
}

// TestSharedTablesIgnored: writable opens, OpenVerified given a filled set
// and opens of a retired set read their own L1; a set filled from another
// image's header is refused.
func TestSharedTablesIgnored(t *testing.T) {
	mem, want := tablesImage(t)
	set := NewTables()
	img, _ := openAndRead(t, mem, want, OpenOpts{ReadOnly: true, Tables: set})
	img.Close() //nolint:errcheck // read-only
	l1 := int64(img.hdr.L1TableOffset)

	readsL1 := func(name string, open func(f backend.File) (*Image, error)) {
		t.Helper()
		var offs []int64
		hf := backend.NewHookFile(backend.NopClose(mem))
		hf.OnRead = func(off int64, _ int) { offs = append(offs, off) }
		img, err := open(hf)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		defer img.Close() //nolint:errcheck // nothing written
		for _, off := range offs {
			if off == l1 {
				return
			}
		}
		t.Errorf("%s read %v: not its own L1", name, offs)
	}
	readsL1("writable open", func(f backend.File) (*Image, error) {
		return Open(f, OpenOpts{Tables: set})
	})
	readsL1("OpenVerified", func(f backend.File) (*Image, error) {
		return OpenVerified(f, OpenOpts{ReadOnly: true, Tables: set})
	})
	set.Retire()
	readsL1("retired set", func(f backend.File) (*Image, error) {
		return Open(f, OpenOpts{ReadOnly: true, Tables: set})
	})

	filled := NewTables()
	img, _ = openAndRead(t, mem, want, OpenOpts{ReadOnly: true, Tables: filled})
	img.Close() //nolint:errcheck // read-only
	otherMem := backend.NewMemFile()
	other, err := Create(backend.NopClose(otherMem), CreateOpts{Size: 2 << 20, ClusterBits: 9})
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(otherMem, OpenOpts{ReadOnly: true, Tables: filled}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("set of another image: %v, want ErrCorrupt", err)
	}
}

// TestL2LoadSingleflight: sixteen readers missing one L2 table together
// cause exactly one read of it from the container (run with -race).
func TestL2LoadSingleflight(t *testing.T) {
	mem, want := patternImage(t)
	gate := make(chan struct{})
	l2Off := int64(-1) // set once the open has read the header
	var c backend.Counters
	hf := backend.NewHookFile(backend.NopClose(mem))
	hf.OnRead = func(off int64, _ int) {
		if off == l2Off {
			c.ReadOps.Add(1)
			<-gate
		}
	}
	img, err := Open(hf, OpenOpts{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer img.Close() //nolint:errcheck // read-only
	l2Off = int64(img.l1[0] & entryOffsetMask)

	const readers = 16
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			off := int64(r) * 4096
			got := make([]byte, 4096)
			if err := backend.ReadFull(img, got, off); err != nil {
				errs <- err
			} else if !bytes.Equal(got, want[off:off+4096]) {
				errs <- errors.New("wrong bytes")
			}
		}(r)
	}
	// Release the load once every reader has missed the table.
	for img.Stats().L2CacheMisses.Load() < readers {
		runtime.Gosched()
	}
	close(gate)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := c.ReadOps.Load(); n != 1 {
		t.Fatalf("%d reads of the L2 table, want 1", n)
	}
}

// TestReadOnlySyncTouchesNothing: a read-only image's Sync reaches no
// container; a writable image's still syncs its own.
func TestReadOnlySyncTouchesNothing(t *testing.T) {
	mem, _ := patternImage(t)
	for _, ro := range []bool{true, false} {
		cf := backend.NewCountingFile(backend.NopClose(mem), nil)
		img, err := Open(cf, OpenOpts{ReadOnly: ro})
		if err != nil {
			t.Fatal(err)
		}
		if err := img.Sync(); err != nil {
			t.Fatal(err)
		}
		want := int64(1)
		if ro {
			want = 0
		}
		if s, w := cf.Counters().SyncOps.Load(), cf.Counters().WriteOps.Load(); s != want || ro && w != 0 {
			t.Fatalf("read-only=%v: Sync issued %d syncs and %d writes, want %d syncs", ro, s, w, want)
		}
		if err := img.Close(); err != nil {
			t.Fatal(err)
		}
		if err := img.Sync(); !errors.Is(err, ErrClosed) {
			t.Fatalf("read-only=%v: Sync after Close: %v", ro, err)
		}
	}
}
