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
// exact operation counts: fills commit a plan window at a time, so a profile
// warm of C 512-byte clusters stays within C/32 writes (it paid 3 per cluster
// once, then about C/14 committing a run at a time), never asks the container
// its size and truncates nothing; and verifying the
// result reads each metadata cluster at most once. The published bytes must
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
	if w := warm.WriteOps.Load(); w > c/32 {
		t.Errorf("warm of %d clusters issued %d container writes, budget %d", c, w, c/32)
	}
	if n := warm.SizeOps.Load(); n > 2 {
		t.Errorf("warm asked the container its size %d times, want only the open's", n)
	}
	if n := warm.TruncateOps.Load(); n != 0 {
		t.Errorf("warm truncated the container %d times", n)
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
