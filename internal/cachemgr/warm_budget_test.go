package cachemgr_test

import (
	"bytes"
	"path/filepath"
	"testing"

	"vmicache/internal/backend"
	"vmicache/internal/cachemgr"
	"vmicache/internal/qcow"
)

// TestProfileWarmSyscallBudget pins what a cold warm costs the container in
// exact operation counts, from the temp's creation on: creation truncates
// once and writes at most four runs; fills commit a plan window at a time, so
// a profile warm of C 512-byte clusters adds at most C/32 writes (it paid 3
// per cluster once, then about C/14 committing a run at a time); nothing asks
// the container its size, as nothing opens it; and verifying the result reads
// each metadata cluster at most once. The published bytes must
// still equal the base over every warmed extent.
func TestProfileWarmSyscallBudget(t *testing.T) {
	s := newStorageNode(t)
	const size = 32 * mb
	s.addBase(t, "base.img", size, 11)

	var warm backend.Counters
	m := newManager(t, s, func(cfg *cachemgr.Config) {
		cfg.WarmProfile = "centos"
		cfg.WrapWarmFile = func(f backend.File) backend.File {
			return backend.NewCountingFile(f, &warm)
		}
	})
	lease, err := m.Acquire("base.img")
	if err != nil {
		t.Fatal(err)
	}
	defer lease.Release()

	f, err := backend.OpenOSFile(filepath.Join(m.Dir(), lease.Key()), true)
	if err != nil {
		t.Fatal(err)
	}
	var verify backend.Counters
	img, err := qcow.OpenVerified(backend.NewCountingFile(f, &verify), qcow.OpenOpts{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer img.Close() //nolint:errcheck // read-only
	verifyReads := verify.ReadOps.Load()
	res, err := img.Check()
	if err != nil || !res.OK() {
		t.Fatalf("published cache: %v %v", err, res)
	}

	c := res.DataClusters
	if c < 512 {
		t.Fatalf("profile warm filled only %d clusters; the budget below would be vacuous", c)
	}
	// The temp's creation goes through the same wrapper: one truncate and
	// at most four writes (qcow.TestCreateWrites), then the warm's own.
	if w := warm.WriteOps.Load(); w > 4+c/32 {
		t.Errorf("creation and a warm of %d clusters issued %d container writes, budget 4+%d", c, w, c/32)
	}
	if n := warm.SizeOps.Load(); n != 0 {
		t.Errorf("creation and warm asked the container its size %d times, want 0: it is never opened", n)
	}
	if n := warm.TruncateOps.Load(); n != 1 {
		t.Errorf("creation and warm truncated the container %d times, want creation's 1", n)
	}
	if meta := res.AllocatedClusters - c; verifyReads > meta+16 {
		t.Errorf("OpenVerified read %d times for %d metadata clusters", verifyReads, meta)
	}

	exts, err := img.Map()
	if err != nil {
		t.Fatal(err)
	}
	var warmed int64
	for _, e := range exts {
		if !e.Allocated {
			continue
		}
		got := make([]byte, e.Length)
		if err := backend.ReadFull(img, got, e.Start); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, s.patterns["base.img"][e.Start:e.Start+e.Length]) {
			t.Fatalf("published extent %d+%d differs from the base", e.Start, e.Length)
		}
		warmed += e.Length
	}
	if warmed != c*img.ClusterSize() {
		t.Fatalf("extents cover %d bytes, %d clusters are bound", warmed, c)
	}
	t.Logf("clusters=%d writes=%d sizes=%d truncates=%d verify reads=%d (metadata clusters %d)",
		c, warm.WriteOps.Load(), warm.SizeOps.Load(), warm.TruncateOps.Load(), verifyReads, res.AllocatedClusters-c)
}
