package cachemgr_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"vmicache/internal/backend"
	"vmicache/internal/cachemgr"
)

// publishedSize returns the size of the single published cache in dir.
func publishedSize(t *testing.T, dir string) int64 {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "*.vmic"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("published caches in %s: %v (err %v)", dir, matches, err)
	}
	fi, err := os.Stat(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestProfileGuidedWarm checks the profile-driven prewarm end to end: a
// manager configured with a boot profile warms only that profile's (scaled)
// read footprint in plan windows, publishes a cache that is a
// fraction of the full-warm one, and still serves exact content — reads
// outside the footprint pass through to the storage node on demand.
func TestProfileGuidedWarm(t *testing.T) {
	s := newStorageNode(t)
	const size = 4 * mb
	s.addBase(t, "base.img", size, 7)

	var profDir string
	prof := newManager(t, s, func(cfg *cachemgr.Config) {
		profDir = cfg.Dir
		cfg.WarmProfile = "debian"
	})
	sess, err := prof.Boot("base.img", "vm0")
	if err != nil {
		t.Fatalf("profile-warmed boot: %v", err)
	}
	buf := make([]byte, size)
	if err := backend.ReadFull(sess.Chain, buf, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, s.patterns["base.img"]) {
		t.Fatal("profile-warmed session read wrong content")
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}

	var fullDir string
	full := newManager(t, s, func(cfg *cachemgr.Config) { fullDir = cfg.Dir })
	fsess, err := full.Boot("base.img", "vm0")
	if err != nil {
		t.Fatalf("full-warmed boot: %v", err)
	}
	if err := fsess.Close(); err != nil {
		t.Fatal(err)
	}

	profSize, fullSize := publishedSize(t, profDir), publishedSize(t, fullDir)
	// The debian profile scaled to a 4 MiB base has a working set around the
	// 64 KiB scaling floor; its cache must come out far smaller than the
	// whole-image warm or the plan was ignored.
	if profSize >= fullSize/2 {
		t.Fatalf("profile warm published %d bytes vs full warm %d: footprint not respected",
			profSize, fullSize)
	}
}

// TestProfileWarmUnknownProfile surfaces a bad profile name as a boot error
// instead of silently falling back to a full warm.
func TestProfileWarmUnknownProfile(t *testing.T) {
	s := newStorageNode(t)
	s.addBase(t, "base.img", mb, 3)
	m := newManager(t, s, func(cfg *cachemgr.Config) { cfg.WarmProfile = "solaris" })
	if _, err := m.Boot("base.img", "vm0"); err == nil {
		t.Fatal("boot with unknown warm profile succeeded")
	}
}
