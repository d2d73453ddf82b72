package cachemgr_test

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"vmicache/internal/backend"
	"vmicache/internal/cachemgr"
	"vmicache/internal/qcow"
)

// syncWatch reports each Sync of a temp publish opened, with whether the
// temp was still unpublished when the fsync returned.
type syncWatch struct {
	backend.File
	path   string
	report func(beforeRename bool)
}

func (f syncWatch) Sync() error {
	err := f.File.Sync()
	_, tmpErr := os.Stat(f.path)
	f.report(tmpErr == nil)
	return err
}

// TestColdWarmFsyncsOnce: over its whole life a copy-on-read temp is fsynced
// once — by publish, beside its verify, before the rename. Its creation and
// the warm chain's Close write the cache but sync nothing, and the storage
// node never syncs the base it only read.
func TestColdWarmFsyncsOnce(t *testing.T) {
	log := newOpLog()
	s := newStorageNodeOver(t, func(st backend.Store) backend.Store { return logStore{st, log} })
	s.addBase(t, "base.img", 2*mb, 5)
	var mu sync.Mutex
	var publishSyncs []bool
	cachemgr.SetOpenTemp(t, func(path string, _ bool, f backend.File) backend.File {
		return syncWatch{File: f, path: path, report: func(before bool) {
			mu.Lock()
			publishSyncs = append(publishSyncs, before)
			mu.Unlock()
		}}
	})
	m := newManager(t, s, nil)
	m.WrapLocalStores(func(st backend.Store) backend.Store { return logStore{st, log} })
	key := m.KeyFor("base.img")

	bootAndCheck(t, m, s, "base.img", "vm0")
	if ops := log.take(key + ".tmp"); len(ops) == 0 || ops[0] != "create" ||
		slices.Contains(ops, "sync") || !slices.Contains(ops, "write") {
		t.Errorf("creation and the warm chain did %v to the temp, want its creation, writes and no sync", ops)
	}
	if ops := log.take("base.img"); slices.Contains(ops, "sync") || len(ops) == 0 {
		t.Errorf("the storage node served %v for the base, want reads and no sync", ops)
	}
	mu.Lock()
	defer mu.Unlock()
	if !slices.Equal(publishSyncs, []bool{true}) {
		t.Fatalf("publish fsynced the temp %d times (before the rename: %v), want once, before it",
			len(publishSyncs), publishSyncs)
	}
}

// flipFile corrupts every read past the header probe: the first table
// entry it returns points one 512 B cluster away, so the verify finds
// clusters referenced that the refcounts do not count.
type flipFile struct{ backend.File }

func (f flipFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := f.File.ReadAt(p, off)
	if off > 0 && n >= 8 {
		p[6] ^= 0x02
	}
	return n, err
}

// TestFailedVerifyPublishesNothing: a temp whose verify fails installs no
// table set, reaches no published name and is not counted published; the
// next warm, verified clean, publishes and installs its set.
func TestFailedVerifyPublishesNothing(t *testing.T) {
	s := newStorageNode(t)
	s.addBase(t, "base.img", mb, 6)
	corrupt := true
	cachemgr.SetOpenTemp(t, func(_ string, _ bool, f backend.File) backend.File {
		if corrupt {
			return flipFile{f}
		}
		return f
	})
	m := newManager(t, s, nil)
	key := m.KeyFor("base.img")
	if _, err := m.Acquire("base.img"); !errors.Is(err, qcow.ErrCorrupt) {
		t.Fatalf("warm whose temp fails verification: %v, want ErrCorrupt", err)
	}
	if sets, _ := m.TableSets(); len(sets) != 0 {
		t.Fatalf("a failed verify installed table sets for %v", sets)
	}
	if _, err := os.Stat(filepath.Join(m.Dir(), key)); !os.IsNotExist(err) || m.Stats().Published != 0 {
		t.Fatalf("a failed verify published %s (stat: %v, published %d)", key, err, m.Stats().Published)
	}
	corrupt = false
	bootAndCheck(t, m, s, "base.img", "vm0")
	if sets, _ := m.TableSets(); !slices.Equal(sets, []string{key}) {
		t.Fatalf("table sets after a clean publish: %v, want [%s]", sets, key)
	}
}
