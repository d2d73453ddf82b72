package cachemgr_test

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"vmicache/internal/backend"
	"vmicache/internal/boot"
	"vmicache/internal/cachemgr"
	"vmicache/internal/core"
	"vmicache/internal/qcow"
	"vmicache/internal/rblock"
)

// opLog records, per file name, the container operations made through a
// logStore, in order: "create", "open", "stat", "read <len>@<off>", "write",
// "sync", "close".
type opLog struct {
	mu  sync.Mutex
	ops map[string][]string
}

func newOpLog() *opLog { return &opLog{ops: map[string][]string{}} }

func (l *opLog) add(name, op string) {
	l.mu.Lock()
	l.ops[name] = append(l.ops[name], op)
	l.mu.Unlock()
}

// take returns and forgets what name has logged so far.
func (l *opLog) take(name string) []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	ops := l.ops[name]
	delete(l.ops, name)
	return ops
}

type logStore struct {
	backend.Store
	log *opLog
}

func (s logStore) Create(name string) (backend.File, error) {
	f, err := s.Store.Create(name)
	if err != nil {
		return nil, err
	}
	s.log.add(name, "create")
	return logFile{File: f, name: name, log: s.log}, nil
}

func (s logStore) Open(name string, readOnly bool) (backend.File, error) {
	f, err := s.Store.Open(name, readOnly)
	if err != nil {
		return nil, err
	}
	s.log.add(name, "open")
	return logFile{File: f, name: name, log: s.log}, nil
}

type logFile struct {
	backend.File
	name string
	log  *opLog
}

func (f logFile) ReadAt(p []byte, off int64) (int, error) {
	f.log.add(f.name, fmt.Sprintf("read %d@%d", len(p), off))
	return f.File.ReadAt(p, off)
}

func (f logFile) WriteAt(p []byte, off int64) (int, error) {
	f.log.add(f.name, "write")
	return f.File.WriteAt(p, off)
}

func (f logFile) Size() (int64, error) { f.log.add(f.name, "stat"); return f.File.Size() }
func (f logFile) Sync() error          { f.log.add(f.name, "sync"); return f.File.Sync() }
func (f logFile) Close() error         { f.log.add(f.name, "close"); return f.File.Close() }

// kinds drops the arguments of logged operations.
func kinds(ops []string) []string {
	out := make([]string, len(ops))
	for i, op := range ops {
		out[i] = strings.Fields(op)[0]
	}
	return out
}

// readBack reads the session's whole disk, 64 KiB at a time, and compares
// it with want.
func readBack(sess *cachemgr.Session, want []byte) error {
	got := make([]byte, len(want))
	for off := 0; off < len(want); off += 64 << 10 {
		if err := backend.ReadFull(sess.Chain, got[off:off+64<<10], int64(off)); err != nil {
			return err
		}
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("%s read the wrong bytes", sess.Chain.Locators[0].Name)
	}
	return nil
}

func readAll(t *testing.T, sess *cachemgr.Session, want []byte) {
	t.Helper()
	if err := readBack(sess, want); err != nil {
		t.Fatal(err)
	}
}

// TestWarmAttachBudget pins what a session of a published cache costs
// beyond its data reads. The verify before publication filled the cache's
// shared table set, so even the first session's replay, which touches every
// L2 table, decodes none; a second reads nothing of the cache's metadata but
// the header probe of its open — its CoW top is sized from the set — and
// decodes none either. A guest flush syncs the CoW top and
// nothing below it: no fsync of the cache, nothing to the storage node,
// whose base sees only the attach's open, stat, two reads and the close.
func TestWarmAttachBudget(t *testing.T) {
	s := newStorageNode(t)
	const base = "base.img"
	s.addBase(t, base, 4*mb, 1)
	log := newOpLog()
	m := newManager(t, s, func(cfg *cachemgr.Config) { cfg.Backing = logStore{cfg.Backing, log} })
	m.WrapLocalStores(func(st backend.Store) backend.Store { return logStore{st, log} })
	want := s.patterns[base]

	first, err := m.Boot(base, "vm0")
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, first, want)
	cache := first.Chain.CacheImage()
	key := first.Chain.Locators[1].Name
	if n := cache.Stats().L2CacheMisses.Load(); n != 0 {
		t.Fatalf("first session decoded %d L2 tables of the cache, want 0: the verify loaded all 128", n)
	}
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}
	log.take(key)
	log.take(base)

	sess, err := m.Boot(base, "vm1")
	if err != nil {
		t.Fatal(err)
	}
	probe := []string{"open", "stat", "read 512@0"}
	if ops := log.take(key); !slices.Equal(ops, probe) {
		t.Errorf("attach did %v to the cache, want %v", ops, probe)
	}
	readAll(t, sess, want)
	if err := backend.WriteFull(sess.Chain, []byte("guest"), 0); err != nil {
		t.Fatal(err)
	}
	if err := sess.Chain.Sync(); err != nil {
		t.Fatal(err)
	}
	top := sess.Chain.Locators[0].Name
	if ops := log.take(top); !slices.Contains(ops, "sync") {
		t.Errorf("the guest flush did not sync the CoW top: %v", ops)
	}
	cache = sess.Chain.CacheImage()
	if n := cache.Stats().L2CacheMisses.Load(); n != 0 {
		t.Errorf("second session decoded %d L2 tables of the cache, want 0", n)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	for _, op := range log.take(key) {
		if !strings.HasPrefix(op, "read ") && op != "close" {
			t.Errorf("replay, flush and close did %q to the read-only cache", op)
		}
	}
	if ops, want := kinds(log.take(base)), []string{"open", "stat", "read", "read", "close"}; !slices.Equal(ops, want) {
		t.Errorf("the storage node served %v for the base, want %v", ops, want)
	}
}

// checkTableSets requires the manager to hold a table set for exactly the
// caches resident in its pool.
func checkTableSets(t *testing.T, m *cachemgr.Manager) {
	t.Helper()
	if sets, resident := m.TableSets(); !slices.Equal(sets, resident) {
		t.Fatalf("table sets for %v, resident caches %v", sets, resident)
	}
}

// TestTableSetsNeverStale re-publishes different content under a key whose
// cache left the pool, once by Invalidate with a session still attached and
// once by eviction (which has to wait for the session: a leased cache is
// pinned). The old session keeps its bytes, new sessions get the new ones
// through a fresh set, and no set outlives its cache.
func TestTableSetsNeverStale(t *testing.T) {
	t.Run("invalidate", func(t *testing.T) {
		s := newStorageNode(t)
		s.addBase(t, "a.img", mb, 1)
		v1 := s.patterns["a.img"]
		m := newManager(t, s, nil)
		old, err := m.Boot("a.img", "old")
		if err != nil {
			t.Fatal(err)
		}
		defer old.Close() //nolint:errcheck // checked below
		readAll(t, old, v1)
		if err := m.Invalidate("a.img"); err != nil {
			t.Fatal(err)
		}
		checkTableSets(t, m)
		s.addBase(t, "a.img", mb, 2)
		republishedReads(t, m, "a.img", s.patterns["a.img"])
		readAll(t, old, v1)
		if err := old.Close(); err != nil {
			t.Fatal(err)
		}
		checkTableSets(t, m)
	})
	t.Run("evict", func(t *testing.T) {
		s := newStorageNode(t)
		for i, name := range []string{"a.img", "b.img", "c.img"} {
			s.addBase(t, name, mb, int64(i+1))
		}
		v1 := s.patterns["a.img"]
		m := newManager(t, s, func(cfg *cachemgr.Config) { cfg.Budget = 3 * mb / 2 }) // one cache
		old, err := m.Boot("a.img", "old")
		if err != nil {
			t.Fatal(err)
		}
		defer old.Close() //nolint:errcheck // checked below
		readAll(t, old, v1)
		lease, err := m.Acquire("b.img")
		if err != nil {
			t.Fatal(err)
		}
		lease.Release()
		if sets, _ := m.TableSets(); len(sets) != 2 {
			t.Fatalf("the leased cache was evicted: sets %v", sets)
		}
		checkTableSets(t, m)
		s.addBase(t, "a.img", mb, 4)
		readAll(t, old, v1)
		if err := old.Close(); err != nil {
			t.Fatal(err)
		}
		if lease, err = m.Acquire("c.img"); err != nil { // evicts a and b
			t.Fatal(err)
		}
		lease.Release()
		if sets, _ := m.TableSets(); len(sets) != 1 {
			t.Fatalf("sets %v after evicting down to one cache", sets)
		}
		checkTableSets(t, m)
		republishedReads(t, m, "a.img", s.patterns["a.img"])
		checkTableSets(t, m)
	})
}

// republishedReads boots two sessions of base, whose cache is re-published
// by the first: both read want, and the second through the set the first
// filled.
func republishedReads(t *testing.T, m *cachemgr.Manager, base string, want []byte) {
	t.Helper()
	for i := 0; i < 2; i++ {
		sess, err := m.Boot(base, fmt.Sprintf("new%d", i))
		if err != nil {
			t.Fatal(err)
		}
		readAll(t, sess, want)
		if n := sess.Chain.CacheImage().Stats().L2CacheMisses.Load(); i == 1 && n != 0 {
			t.Errorf("second session of the re-published cache decoded %d L2 tables", n)
		}
		if err := sess.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// invalidatingStore runs hit before the first open of key: an Invalidate
// landing between a Boot's Acquire and its attach.
type invalidatingStore struct {
	backend.Store
	key  string
	once *sync.Once
	hit  func()
}

func (s invalidatingStore) Open(name string, readOnly bool) (backend.File, error) {
	if name == s.key {
		s.once.Do(s.hit)
	}
	return s.Store.Open(name, readOnly)
}

// TestBootSurvivesInvalidate invalidates the cache a Boot has just leased,
// before the Boot opens it: the Boot acquires again — re-warming the cache —
// and reads the right bytes, and the stale lease's release leaves the new
// cache's pins alone.
func TestBootSurvivesInvalidate(t *testing.T) {
	s := newStorageNode(t)
	s.addBase(t, "a.img", mb, 1)
	m := newManager(t, s, func(cfg *cachemgr.Config) { cfg.Budget = 3 * mb / 2 }) // one cache
	key := m.KeyFor("a.img")
	lease, err := m.Acquire("a.img")
	if err != nil {
		t.Fatal(err)
	}
	lease.Release()
	var invalidated error
	m.WrapLocalStores(func(st backend.Store) backend.Store {
		return invalidatingStore{Store: st, key: key, once: new(sync.Once),
			hit: func() { invalidated = m.Invalidate("a.img") }}
	})
	sess, err := m.Boot("a.img", "vm")
	if err != nil {
		t.Fatal(err)
	}
	if invalidated != nil {
		t.Fatal(invalidated)
	}
	readAll(t, sess, s.patterns["a.img"])
	if cw := m.Stats().ColdWarms; cw != 2 {
		t.Fatalf("%d cold warms, want the first and the re-warm", cw)
	}
	checkTableSets(t, m)
	// The session's pin holds the re-published cache against eviction.
	s.addBase(t, "b.img", mb, 2)
	other, err := m.Acquire("b.img")
	if err != nil {
		t.Fatal(err)
	}
	other.Release()
	if _, resident := m.TableSets(); !slices.Contains(resident, key) {
		t.Fatalf("the leased cache was evicted: resident %v", resident)
	}
	readAll(t, sess, s.patterns["a.img"])
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	checkTableSets(t, m)
}

// TestTableSetsUnderChurn runs rounds of eight sessions replaying against
// one cache while one goroutine evicts it by publishing a second base and
// another invalidates it, and evicts it again between rounds, so every round
// re-publishes it: each session reads the right bytes through whichever set
// it attached with — copying them from that set's mapping — and a Boot whose
// cache is invalidated under its lease acquires again. No Acquire fails: the
// budget holds one cache, so a publication may evict the other base's at any
// time, and a warmer leaves with its publication pinned while a waiter that
// finds the cache gone again warms it once more. The manager holds sets
// only for resident caches, and once every session and the manager have
// closed, each set a session read through mapped its file exactly once and
// unmapped it once, and the sets leases only pinned never mapped (run with
// -race -count 20).
func TestTableSetsUnderChurn(t *testing.T) {
	s := newStorageNode(t)
	s.addBase(t, "a.img", mb, 1)
	s.addBase(t, "b.img", mb, 2)
	want := s.patterns["a.img"]
	m := newManager(t, s, func(cfg *cachemgr.Config) { cfg.Budget = 3 * mb / 2 }) // one cache
	sets := &setLog{read: map[*qcow.Tables]bool{}, pinned: map[*qcow.Tables]bool{}}
	// evictA publishes b, which evicts a unless a session holds it, and
	// invalidates b so that the next call publishes it again.
	evictA := func() error {
		lease, err := m.Acquire("b.img")
		if err != nil {
			return err
		}
		sets.add(sets.pinned, lease.TableSet())
		lease.Release()
		return m.Invalidate("b.img")
	}
	const workers, rounds = 8, 4
	for r := 0; r < rounds; r++ {
		var wg sync.WaitGroup
		errs := make(chan error, workers+2)
		wg.Add(workers + 2)
		go func() {
			defer wg.Done()
			if err := evictA(); err != nil {
				errs <- err
			}
		}()
		go func() {
			defer wg.Done()
			if err := m.Invalidate("a.img"); err != nil {
				errs <- err
			}
		}()
		for w := 0; w < workers; w++ {
			go func(vm string) {
				defer wg.Done()
				if err := replayOnce(m, "a.img", vm, want, sets); err != nil {
					errs <- err
				}
			}(fmt.Sprintf("vm%d-%d", r, w))
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		// The invalidation may have come last: publish a again so that
		// evictA evicts it.
		if err := replayOnce(m, "a.img", fmt.Sprintf("vm%d-last", r), want, sets); err != nil {
			t.Fatal(err)
		}
		if err := evictA(); err != nil { // no session holds a now
			t.Fatal(err)
		}
		checkTableSets(t, m)
	}
	if ev := m.Stats().Evictions; ev < rounds {
		t.Fatalf("%d evictions over %d rounds", ev, rounds)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if len(sets.read) < rounds {
		t.Fatalf("sessions read through %d sets over %d rounds", len(sets.read), rounds)
	}
	for set := range sets.read {
		if maps, unmaps := set.Mappings(); maps != 1 || unmaps != 1 {
			t.Errorf("a set sessions read through: %d maps, %d unmaps; want 1, 1", maps, unmaps)
		}
	}
	for set := range sets.pinned {
		if maps, unmaps := set.Mappings(); maps != 0 || unmaps != 0 {
			t.Errorf("a set only leased: %d maps, %d unmaps; want 0, 0", maps, unmaps)
		}
	}
}

// setLog collects table sets by how they were used.
type setLog struct {
	mu           sync.Mutex
	read, pinned map[*qcow.Tables]bool
}

func (l *setLog) add(to map[*qcow.Tables]bool, set *qcow.Tables) {
	l.mu.Lock()
	to[set] = true
	l.mu.Unlock()
}

// replayOnce boots one session of base, reads its whole disk against want
// and closes it. With sets non-nil it records the set the session read
// through the mapping of.
func replayOnce(m *cachemgr.Manager, base, vm string, want []byte, sets *setLog) error {
	sess, err := m.Boot(base, vm)
	if err != nil {
		return err
	}
	err = readBack(sess, want)
	if sets != nil && sess.Chain.CacheImage().Stats().MmapReads.Load() > 0 {
		sets.add(sets.read, sess.TableSet())
	}
	if cerr := sess.Close(); err == nil {
		err = cerr
	}
	return err
}

// BenchmarkWarmAttach is the in-process form of bench/e2e's warm_boot op on
// its geometry: a 1 GiB base of 64 KiB clusters on a loopback rblock server,
// a node whose cache was warmed with the centos profile, and per op a Boot,
// a replay of the profile scaled to the base, and a Close. It reports the
// L2 tables decoded and the storage-node requests per op beside allocs/op.
func BenchmarkWarmAttach(b *testing.B) { benchWarmAttach(b, 1) }

// BenchmarkWarmAttachPair is BenchmarkWarmAttach with two sessions booting
// and replaying side by side per op — warm_boot's two clients on one cache.
func BenchmarkWarmAttachPair(b *testing.B) { benchWarmAttach(b, 2) }

func benchWarmAttach(b *testing.B, sessions int) {
	s := newStorageNode(b)
	const base, size = "base.img", 1 << 30
	if err := core.CreateBase(core.NewNamespace("s", s.store), core.Locator{Store: "s", Name: base},
		size, 16, nil); err != nil {
		b.Fatal(err)
	}
	client, err := rblock.Dial(s.addr, 0)
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close() //nolint:errcheck // benchmark teardown
	m, err := cachemgr.New(cachemgr.Config{
		Dir: b.TempDir(), Backing: rblock.RemoteStore{C: client}, WarmProfile: "centos",
	})
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close() //nolint:errcheck // benchmark teardown
	lease, err := m.Acquire(base)
	if err != nil {
		b.Fatal(err)
	}
	lease.Release()
	p := boot.CentOS.Scale(float64(size) / float64(boot.CentOS.ImageSize))
	p.ImageSize = size
	w := boot.Generate(p)

	var l2Misses atomic.Int64
	session := func(vm string) error {
		sess, err := m.Boot(base, vm)
		if err != nil {
			return err
		}
		if _, err := boot.Replay(w, sess.Chain, boot.ReplayOpts{}); err != nil {
			sess.Close() //nolint:errcheck // already failing
			return err
		}
		for _, img := range sess.Chain.Images {
			l2Misses.Add(img.Stats().L2CacheMisses.Load())
		}
		return sess.Close()
	}
	reqs := client.Stats().Requests
	errs := make(chan error, sessions)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for v := 0; v < sessions; v++ {
			go func(vm string) { errs <- session(vm) }(fmt.Sprintf("vm%d", v))
		}
		for v := 0; v < sessions; v++ {
			if err := <-errs; err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(l2Misses.Load())/float64(b.N), "l2-misses/op")
	b.ReportMetric(float64(client.Stats().Requests-reqs)/float64(b.N), "storage-reqs/op")
}
