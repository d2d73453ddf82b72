package cachemgr_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vmicache/internal/backend"
	"vmicache/internal/cachemgr"
	"vmicache/internal/qcow"
)

// checkPublished runs a full qcow.Check over every published cache in dir and
// fails the test on any inconsistency.
func checkPublished(t *testing.T, dir string) int {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".vmic") {
			continue
		}
		f, err := backend.OpenOSFile(filepath.Join(dir, e.Name()), true)
		if err != nil {
			t.Fatalf("opening published %s: %v", e.Name(), err)
		}
		img, err := qcow.OpenVerified(f, qcow.OpenOpts{ReadOnly: true})
		if err != nil {
			t.Fatalf("published cache %s fails verification: %v", e.Name(), err)
		}
		img.Close() //nolint:errcheck
		n++
	}
	return n
}

// TestCrashSafePublication kills a warm mid-fill with an injected write
// fault, then proves the partial temp is never served: the failing manager
// publishes nothing, a restarted manager discards the temp, re-warming
// succeeds, and the published cache passes a full consistency check.
func TestCrashSafePublication(t *testing.T) {
	s := newStorageNode(t)
	s.addBase(t, "base.img", 2*mb, 42)
	dir := t.TempDir()

	m1 := newManager(t, s, func(c *cachemgr.Config) {
		c.Dir = dir
		c.WrapWarmFile = func(f backend.File) backend.File {
			ff := backend.NewFaultyFile(f)
			// Dies mid-commit: the window's metadata and data are
			// written, its refcount-table and L1 slots are not.
			ff.FailWriteAfter(2)
			return ff
		}
	})
	_, err := m1.Acquire("base.img")
	if err == nil {
		t.Fatal("Acquire succeeded despite the injected write fault")
	}
	if !errors.Is(err, backend.ErrInjected) {
		t.Fatalf("warm failed with %v, want the injected fault", err)
	}
	key := m1.KeyFor("base.img")
	if _, err := os.Stat(filepath.Join(dir, key+".tmp")); err != nil {
		t.Fatalf("failed warm left no temp file: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, key)); !os.IsNotExist(err) {
		t.Fatalf("partial warm reached the published name (err=%v)", err)
	}
	st := m1.Stats()
	if st.Published != 0 || st.WarmFailures != 1 {
		t.Fatalf("after failed warm: %+v", st)
	}
	if n := checkPublished(t, dir); n != 0 {
		t.Fatalf("%d published caches exist after a failed warm", n)
	}
	if err := m1.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": a fresh manager over the same directory. The crashed temp
	// is discarded during recovery and never served.
	m2 := newManager(t, s, func(c *cachemgr.Config) { c.Dir = dir })
	if got := m2.Stats().DiscardedTemps; got != 1 {
		t.Fatalf("discarded temps after restart = %d, want 1", got)
	}
	if _, err := os.Stat(filepath.Join(dir, key+".tmp")); !os.IsNotExist(err) {
		t.Fatalf("crashed temp still present after recovery (err=%v)", err)
	}
	if m2.Stats().Resident != 0 {
		t.Fatalf("recovery seeded %d caches from a dir with only a crashed temp", m2.Stats().Resident)
	}

	// Re-warming on the recovered manager succeeds and serves correct data.
	sess, err := m2.Boot("base.img", "vm0")
	if err != nil {
		t.Fatalf("re-warm after recovery: %v", err)
	}
	buf := make([]byte, 2*mb)
	if err := backend.ReadFull(sess.Chain, buf, 0); err != nil {
		t.Fatal(err)
	}
	if string(buf) != string(s.patterns["base.img"]) {
		t.Fatal("re-warmed cache served wrong content")
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if m2.Stats().ColdWarms != 1 {
		t.Fatalf("cold warms after re-warm = %d, want 1", m2.Stats().ColdWarms)
	}
	if n := checkPublished(t, dir); n != 1 {
		t.Fatalf("%d published caches after re-warm, want 1", n)
	}
}

// TestFailedWarmRetriesInPlace: after a failed warm the same manager can
// retry without a restart — the stale temp is overwritten, not served.
func TestFailedWarmRetriesInPlace(t *testing.T) {
	s := newStorageNode(t)
	s.addBase(t, "base.img", mb, 43)

	var inject bool
	m := newManager(t, s, func(c *cachemgr.Config) {
		c.WrapWarmFile = func(f backend.File) backend.File {
			if !inject {
				return f
			}
			ff := backend.NewFaultyFile(f)
			ff.FailWriteAfter(1) // mid-commit, as above
			return ff
		}
	})
	inject = true
	if _, err := m.Acquire("base.img"); !errors.Is(err, backend.ErrInjected) {
		t.Fatalf("first warm: %v, want injected fault", err)
	}
	inject = false
	lease, err := m.Acquire("base.img")
	if err != nil {
		t.Fatalf("retry after failed warm: %v", err)
	}
	lease.Release()
	if n := checkPublished(t, m.Dir()); n != 1 {
		t.Fatalf("%d published caches after retry, want 1", n)
	}
}

// subclusterHeader rewrites a published cache's header cluster in the retired
// sub-cluster format: incompatible feature bit 0 set, and a 24-byte "SUBC"
// extension (4 KiB sub-cluster bits, the validity bitmap's offset) spliced in
// before the end marker, which follows the cache extension; the backing name
// moves up behind it.
func subclusterHeader(first []byte) []byte {
	const fixed, cacheExt = 104, 24
	be := binary.BigEndian
	ext := make([]byte, 24)
	be.PutUint32(ext[0:], 0x53554243) // "SUBC"
	be.PutUint32(ext[4:], 16)
	be.PutUint32(ext[8:], 12)
	be.PutUint64(ext[16:], uint64(len(first)))
	at := fixed + cacheExt
	b := append(append(append([]byte{}, first[:at]...), ext...), first[at:len(first)-len(ext)]...)
	be.PutUint64(b[72:], be.Uint64(b[72:])|1) // IncompatFeatures bit 0
	if off := be.Uint64(first[8:]); off != 0 {
		be.PutUint64(b[8:], off+uint64(len(ext))) // BackingFileOffset
	}
	return b
}

// TestRecoveryDropsCorrupt: a published cache whose contents were torn after
// the fact (bit rot, torn rename) is dropped at startup, not served. Three
// damages: a smashed L1 table; a refcount table moved past the end of the
// file — which a read-only open no longer reads, but verification does; and
// the header of the retired sub-cluster cache format, which no open accepts.
func TestRecoveryDropsCorrupt(t *testing.T) {
	damages := []struct {
		name string
		// at returns the bytes to write and where, found through the
		// header (and the raw header cluster) so the test does not depend
		// on the fill layout.
		at func(t *testing.T, h qcow.Header, first []byte, size int64) (int64, []byte)
	}{
		{"L1 table smashed", func(_ *testing.T, h qcow.Header, _ []byte, _ int64) (int64, []byte) {
			return int64(h.L1TableOffset), bytes.Repeat([]byte{0xff}, 256)
		}},
		{"refcount table past EOF", func(_ *testing.T, _ qcow.Header, _ []byte, size int64) (int64, []byte) {
			return 48, binary.BigEndian.AppendUint64(nil, uint64(size+64<<10)) // Header.RefTableOffset
		}},
		{"sub-cluster format", func(t *testing.T, h qcow.Header, first []byte, _ int64) (int64, []byte) {
			b := subclusterHeader(first)
			// Only the feature bit refuses it: without the bit, the SUBC
			// extension is an unknown one and the header decodes whole.
			clean := backend.NewMemFile()
			if err := backend.WriteFull(clean, b, 0); err != nil {
				t.Fatal(err)
			}
			if err := backend.WriteFull(clean, make([]byte, 8), 72); err != nil {
				t.Fatal(err)
			}
			if got, err := qcow.ReadHeader(clean); err != nil || got.BackingFile != h.BackingFile || got.CacheQuota != h.CacheQuota {
				t.Fatalf("sub-cluster header without its bit: %+v, %v", got, err)
			}
			return 0, b
		}},
	}
	for _, dmg := range damages {
		t.Run(dmg.name, func(t *testing.T) {
			s := newStorageNode(t)
			s.addBase(t, "base.img", mb, 44)
			dir := t.TempDir()
			m1 := newManager(t, s, func(c *cachemgr.Config) { c.Dir = dir })
			lease, err := m1.Acquire("base.img")
			if err != nil {
				t.Fatal(err)
			}
			key := lease.Key()
			lease.Release()
			if err := m1.Close(); err != nil {
				t.Fatal(err)
			}

			path := filepath.Join(dir, key)
			rf, err := backend.OpenOSFile(path, true)
			if err != nil {
				t.Fatal(err)
			}
			hdr, err := qcow.ReadHeader(rf)
			if err != nil {
				t.Fatal(err)
			}
			size, _ := rf.Size()
			first := make([]byte, 512) // the whole header cluster at the default geometry
			if err := backend.ReadFull(rf, first, 0); err != nil {
				t.Fatal(err)
			}
			off, b := dmg.at(t, *hdr, first, size)
			rf.Close() //nolint:errcheck // read-only
			if err := os.Chmod(path, 0o644); err != nil {
				t.Fatal(err)
			}
			f, err := os.OpenFile(path, os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteAt(b, off); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}

			m2 := newManager(t, s, func(c *cachemgr.Config) { c.Dir = dir })
			st := m2.Stats()
			if st.DroppedCorrupt != 1 || st.Resident != 0 {
				t.Fatalf("after corruption: dropped=%d resident=%d, want 1, 0", st.DroppedCorrupt, st.Resident)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("corrupt cache still on disk (err=%v)", err)
			}
			// The manager recovers by re-warming from storage.
			lease, err = m2.Acquire("base.img")
			if err != nil {
				t.Fatalf("re-warm after dropping corrupt cache: %v", err)
			}
			lease.Release()
			if st := m2.Stats(); st.ColdWarms != 1 {
				t.Fatalf("%d cold warms after dropping the cache, want 1", st.ColdWarms)
			}
			if n := checkPublished(t, dir); n != 1 {
				t.Fatalf("%d published caches after re-warm, want 1", n)
			}
		})
	}
}
