package core

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"vmicache/internal/backend"
	"vmicache/internal/qcow"
)

const mb = 1 << 20

// testEnv is a two-medium namespace: "nfs" (default, storage node) and
// "disk" (compute node), with a patterned base image on nfs.
type testEnv struct {
	ns      *Namespace
	nfs     *backend.MemStore
	disk    *backend.MemStore
	pattern []byte
	size    int64
}

func newTestEnv(t *testing.T, size int64) *testEnv {
	t.Helper()
	nfs := backend.NewMemStore()
	disk := backend.NewMemStore()
	ns := NewNamespace("nfs", nfs)
	ns.Register("disk", disk)

	pat := make([]byte, size)
	rand.New(rand.NewSource(77)).Read(pat)
	content := backend.NewMemFileSize(size)
	if err := backend.WriteFull(content, pat, 0); err != nil {
		t.Fatal(err)
	}
	err := CreateBase(ns, Locator{Store: "nfs", Name: "base.img"}, size, 16,
		qcow.RawSource{R: content, N: size})
	if err != nil {
		t.Fatalf("CreateBase: %v", err)
	}
	return &testEnv{ns: ns, nfs: nfs, disk: disk, pattern: pat, size: size}
}

func TestParseLocator(t *testing.T) {
	l := ParseLocator("disk:images/cow.img")
	if l.Store != "disk" || l.Name != "images/cow.img" {
		t.Fatalf("locator: %+v", l)
	}
	if l.String() != "disk:images/cow.img" {
		t.Fatalf("string: %s", l)
	}
	bare := ParseLocator("base.img")
	if bare.Store != "" || bare.Name != "base.img" || bare.String() != "base.img" {
		t.Fatalf("bare: %+v", bare)
	}
}

func TestNamespaceResolution(t *testing.T) {
	st := backend.NewMemStore()
	ns := NewNamespace("main", st)
	if got, err := ns.Store(""); err != nil || got != backend.Store(st) {
		t.Fatalf("default store: %v", err)
	}
	if _, err := ns.Store("nope"); err == nil {
		t.Fatal("unknown store resolved")
	}
	if ns.Default() != "main" {
		t.Fatal("default name")
	}
}

func TestWorkflowCreatesBootableChain(t *testing.T) {
	env := newTestEnv(t, 2*mb)
	base := Locator{Store: "nfs", Name: "base.img"}
	cache := Locator{Store: "disk", Name: "base.cache"}
	cow := Locator{Store: "disk", Name: "vm0.cow"}

	// §4.4 two-step workflow.
	if err := CreateCache(env.ns, cache, base, env.size, mb, 0); err != nil {
		t.Fatalf("CreateCache: %v", err)
	}
	if err := CreateCoW(env.ns, cow, cache, env.size, 0); err != nil {
		t.Fatalf("CreateCoW: %v", err)
	}

	c, err := OpenChain(env.ns, cow, ChainOpts{})
	if err != nil {
		t.Fatalf("OpenChain: %v", err)
	}
	defer c.Close() //nolint:errcheck
	if len(c.Images) != 3 {
		t.Fatalf("chain length = %d, want 3", len(c.Images))
	}
	if c.CacheImage() == nil || !c.Images[1].IsCache() {
		t.Fatal("cache image not in position 1")
	}
	if c.Size() != env.size {
		t.Fatalf("chain size = %d", c.Size())
	}

	// Boot-style read: correct data, cache warms.
	buf := make([]byte, 4096)
	if err := backend.ReadFull(c, buf, 512*9); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, env.pattern[512*9:512*9+4096]) {
		t.Fatal("chain read mismatch")
	}
	if c.CacheImage().Stats().CacheFillOps.Load() == 0 {
		t.Fatal("cache did not warm")
	}

	// Guest write then read-back.
	if err := backend.WriteFull(c, []byte("hello"), 100); err != nil {
		t.Fatal(err)
	}
	if err := backend.ReadFull(c, buf[:5], 100); err != nil {
		t.Fatal(err)
	}
	if string(buf[:5]) != "hello" {
		t.Fatal("write-read mismatch")
	}
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
}

func TestOpenChainPermissionDance(t *testing.T) {
	env := newTestEnv(t, mb)
	base := Locator{Store: "nfs", Name: "base.img"}
	cow := Locator{Store: "disk", Name: "direct.cow"}
	if err := CreateCoW(env.ns, cow, base, env.size, 0); err != nil {
		t.Fatal(err)
	}
	c, err := OpenChain(env.ns, cow, ChainOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close() //nolint:errcheck
	// The base is not a cache: it must have been re-opened read-only, so
	// a write must fail with the image-level read-only error.
	if _, err := c.Images[1].WriteAt([]byte{1}, 0); !errors.Is(err, qcow.ErrReadOnly) {
		t.Fatalf("base image writable: %v", err)
	}
	// Whereas a cache in the middle of a chain stays writable (it needs
	// to warm itself).
	cache := Locator{Store: "disk", Name: "c.cache"}
	cow2 := Locator{Store: "disk", Name: "c.cow"}
	if err := CreateCache(env.ns, cache, base, env.size, mb, 0); err != nil {
		t.Fatal(err)
	}
	if err := CreateCoW(env.ns, cow2, cache, env.size, 0); err != nil {
		t.Fatal(err)
	}
	c2, err := OpenChain(env.ns, cow2, ChainOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close() //nolint:errcheck
	buf := make([]byte, 512)
	if err := backend.ReadFull(c2, buf, 0); err != nil {
		t.Fatal(err)
	}
	if c2.Images[1].Stats().CacheFillOps.Load() == 0 {
		t.Fatal("mid-chain cache could not fill (write permission lost)")
	}
}

func TestOpenChainRawBase(t *testing.T) {
	// A raw (non-qcow) base at the end of the chain.
	nfs := backend.NewMemStore()
	ns := NewNamespace("nfs", nfs)
	raw, err := nfs.Create("raw.img")
	if err != nil {
		t.Fatal(err)
	}
	pat := bytes.Repeat([]byte{0x5a}, mb)
	if err := backend.WriteFull(raw, pat, 0); err != nil {
		t.Fatal(err)
	}
	cow := Locator{Store: "nfs", Name: "over-raw.cow"}
	if err := CreateCoW(ns, cow, Locator{Store: "nfs", Name: "raw.img"}, mb, 0); err != nil {
		t.Fatal(err)
	}
	c, err := OpenChain(ns, cow, ChainOpts{})
	if err != nil {
		t.Fatalf("OpenChain over raw base: %v", err)
	}
	defer c.Close() //nolint:errcheck
	buf := make([]byte, 100)
	if err := backend.ReadFull(c, buf, 5000); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, pat[5000:5100]) {
		t.Fatal("raw base read mismatch")
	}
}

func TestOpenChainDetectsCycle(t *testing.T) {
	nfs := backend.NewMemStore()
	ns := NewNamespace("nfs", nfs)
	// a backs b backs a.
	mk := func(name, backing string) {
		f, err := nfs.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		img, err := qcow.Create(f, qcow.CreateOpts{Size: mb, ClusterBits: 16, BackingFile: backing})
		if err != nil {
			t.Fatal(err)
		}
		if err := img.Close(); err != nil {
			t.Fatal(err)
		}
	}
	mk("a.img", "b.img")
	mk("b.img", "a.img")
	if _, err := OpenChain(ns, Locator{Store: "nfs", Name: "a.img"}, ChainOpts{}); !errors.Is(err, ErrChainCycle) {
		t.Fatalf("cycle: %v", err)
	}
}

func TestOpenChainMissingFile(t *testing.T) {
	nfs := backend.NewMemStore()
	ns := NewNamespace("nfs", nfs)
	if _, err := OpenChain(ns, Locator{Store: "nfs", Name: "ghost"}, ChainOpts{}); err == nil {
		t.Fatal("opened missing image")
	}
}

// modeStore records every open of its store as "name:ro" or "name:rw".
type modeStore struct {
	backend.Store
	opens *[]string
}

func (s modeStore) Open(name string, ro bool) (backend.File, error) {
	mode := ":rw"
	if ro {
		mode = ":ro"
	}
	*s.opens = append(*s.opens, name+mode)
	return s.Store.Open(name, ro)
}

// TestWrapFileSeesEveryLevel pins the §4.3 open order: a backing image opens
// read-only, once, unless its header says it is a cache — then it re-opens
// read-write, unless the chain keeps its backing read-only.
func TestWrapFileSeesEveryLevel(t *testing.T) {
	env := newTestEnv(t, mb)
	base := Locator{Store: "nfs", Name: "base.img"}
	cache := Locator{Store: "disk", Name: "c.cache"}
	if err := CreateCache(env.ns, cache, base, env.size, 2*mb, 0); err != nil {
		t.Fatal(err)
	}
	var opens []string
	env.ns.Register("nfs", modeStore{env.nfs, &opens})
	env.ns.Register("disk", modeStore{env.disk, &opens})
	for _, tc := range []struct {
		name   string
		top    Locator
		opts   ChainOpts
		opens  []string
		wraps  []string
		writes bool // the cache image is writable
	}{
		{name: "non-cache base", top: Locator{Store: "disk", Name: "w.cow"}, opens: []string{"w.cow:rw", "base.img:ro"},
			wraps: []string{"disk:w.cow", "nfs:base.img"}},
		{name: "cache backing", top: Locator{Store: "disk", Name: "cw.cow"},
			opens: []string{"cw.cow:rw", "c.cache:ro", "c.cache:rw", "base.img:ro"},
			wraps: []string{"disk:cw.cow", "disk:c.cache", "disk:c.cache", "nfs:base.img"}, writes: true},
		{name: "cache backing kept read-only", top: Locator{Store: "disk", Name: "cw.cow"},
			opts:  ChainOpts{BackingReadOnly: true},
			opens: []string{"cw.cow:rw", "c.cache:ro", "base.img:ro"},
			wraps: []string{"disk:cw.cow", "disk:c.cache", "nfs:base.img"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			backing := base
			if tc.top.Name == "cw.cow" {
				backing = cache
			}
			if err := CreateCoW(env.ns, tc.top, backing, env.size, 0); err != nil {
				t.Fatal(err)
			}
			opens = opens[:0]
			var wraps []string
			tc.opts.WrapFile = func(loc Locator, f backend.File, depth int) backend.File {
				wraps = append(wraps, loc.String())
				return f
			}
			c, err := OpenChain(env.ns, tc.top, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close() //nolint:errcheck
			if !slices.Equal(opens, tc.opens) || !slices.Equal(wraps, tc.wraps) {
				t.Fatalf("opens %v, wraps %v; want %v, %v", opens, wraps, tc.opens, tc.wraps)
			}
			ci := c.CacheImage()
			if got := ci != nil && !readOnly(ci); got != tc.writes {
				t.Fatalf("cache image writable = %v, want %v", got, tc.writes)
			}
		})
	}
}

// readOnly reports whether img was opened read-only: its guest writes fail
// with ErrReadOnly (a writable cache's with ErrCacheImmutable).
func readOnly(img *qcow.Image) bool {
	_, err := img.WriteAt([]byte{0}, 0)
	return errors.Is(err, qcow.ErrReadOnly)
}

func TestWarmPopulatesCache(t *testing.T) {
	env := newTestEnv(t, 2*mb)
	base := Locator{Store: "nfs", Name: "base.img"}
	cache := Locator{Store: "disk", Name: "warm.cache"}
	cow := Locator{Store: "disk", Name: "warm.cow"}
	if err := CreateCache(env.ns, cache, base, env.size, 2*mb, 0); err != nil {
		t.Fatal(err)
	}
	if err := CreateCoW(env.ns, cow, cache, env.size, 0); err != nil {
		t.Fatal(err)
	}
	c, err := OpenChain(env.ns, cow, ChainOpts{})
	if err != nil {
		t.Fatal(err)
	}
	spans := []Span{{0, 4096}, {100000, 8192}, {500000, 512}, {0, 0}}
	n, err := Warm(c, spans)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4096+8192+512 {
		t.Fatalf("warmed bytes = %d", n)
	}
	used := c.CacheImage().UsedBytes()
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// Re-open: warm reads must not touch the base at all.
	var counters backend.Counters
	c2, err := OpenChain(env.ns, cow, ChainOpts{
		WrapFile: func(loc Locator, f backend.File, depth int) backend.File {
			if loc.Name == "base.img" {
				return backend.NewCountingFile(f, &counters)
			}
			return f
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close() //nolint:errcheck
	if c2.CacheImage().UsedBytes() != used {
		t.Fatalf("cache used changed across reopen: %d != %d", c2.CacheImage().UsedBytes(), used)
	}
	// Opening the chain reads the base image's own metadata (header, L1,
	// refcount table); only guest-data traffic matters here.
	counters.Reset()
	buf := make([]byte, 8192)
	if err := backend.ReadFull(c2, buf, 100000); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, env.pattern[100000:108192]) {
		t.Fatal("warm read mismatch")
	}
	if counters.ReadBytes.Load() != 0 {
		t.Fatalf("warm read pulled %d bytes from base", counters.ReadBytes.Load())
	}
}

func TestTransferCacheAcrossMedia(t *testing.T) {
	env := newTestEnv(t, mb)
	base := Locator{Store: "nfs", Name: "base.img"}
	cache := Locator{Store: "disk", Name: "t.cache"}
	if err := CreateCache(env.ns, cache, base, env.size, mb, 0); err != nil {
		t.Fatal(err)
	}
	// Warm it directly.
	c, err := OpenChain(env.ns, cache, ChainOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Warm(c, []Span{{0, 64 << 10}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// Transfer to storage memory (Fig. 13) and register a mem store.
	mem := backend.NewMemStore()
	env.ns.Register("storagemem", mem)
	moved, err := TransferCache(env.ns, Locator{Store: "storagemem", Name: "t.cache"}, cache)
	if err != nil {
		t.Fatal(err)
	}
	srcSize, _ := env.disk.Stat("t.cache")
	if moved != srcSize || moved == 0 {
		t.Fatalf("moved %d of %d", moved, srcSize)
	}
	// The transferred cache must serve warm reads standalone.
	c2, err := OpenChain(env.ns, Locator{Store: "storagemem", Name: "t.cache"}, ChainOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close() //nolint:errcheck
	buf := make([]byte, 64<<10)
	if err := backend.ReadFull(c2, buf, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, env.pattern[:64<<10]) {
		t.Fatal("transferred cache data mismatch")
	}
	if !Exists(env.ns, Locator{Store: "storagemem", Name: "t.cache"}) {
		t.Fatal("Exists false negative")
	}
	if Exists(env.ns, Locator{Store: "storagemem", Name: "ghost"}) {
		t.Fatal("Exists false positive")
	}
}

func TestVirtualSizeOf(t *testing.T) {
	env := newTestEnv(t, mb)
	sz, err := VirtualSizeOf(env.ns, Locator{Store: "nfs", Name: "base.img"})
	if err != nil || sz != mb {
		t.Fatalf("qcow size: %d %v", sz, err)
	}
	raw, err := env.nfs.Create("flat.raw")
	if err != nil {
		t.Fatal(err)
	}
	if err := backend.WriteFull(raw, make([]byte, 12345), 0); err != nil {
		t.Fatal(err)
	}
	sz, err = VirtualSizeOf(env.ns, Locator{Store: "nfs", Name: "flat.raw"})
	if err != nil || sz != 12345 {
		t.Fatalf("raw size: %d %v", sz, err)
	}
	if _, err := VirtualSizeOf(env.ns, Locator{Store: "nfs", Name: "ghost"}); err == nil {
		t.Fatal("size of missing file")
	}
}

func TestPoolLRUEviction(t *testing.T) {
	p := NewPool(100)
	var evicted []string
	p.OnEvict = func(name string, size int64) { evicted = append(evicted, name) }

	if _, ok := p.Add("a", 40); !ok {
		t.Fatal("add a")
	}
	if _, ok := p.Add("b", 40); !ok {
		t.Fatal("add b")
	}
	if !p.Lookup("a") { // a becomes MRU
		t.Fatal("lookup a")
	}
	ev, ok := p.Add("c", 40) // must evict b (LRU), not a
	if !ok || len(ev) != 1 || ev[0] != "b" {
		t.Fatalf("evicted %v", ev)
	}
	if p.Lookup("b") {
		t.Fatal("b survived eviction")
	}
	if p.Used() != 80 || p.Len() != 2 {
		t.Fatalf("used=%d len=%d", p.Used(), p.Len())
	}
	if len(evicted) != 1 || evicted[0] != "b" {
		t.Fatalf("OnEvict calls: %v", evicted)
	}
	hits, misses, evictions := p.Stats()
	if hits != 1 || misses != 1 || evictions != 1 {
		t.Fatalf("stats: %d %d %d", hits, misses, evictions)
	}
}

func TestPoolOversizedEntryRejected(t *testing.T) {
	p := NewPool(100)
	p.Add("a", 60) //nolint:errcheck
	if _, ok := p.Add("huge", 150); ok {
		t.Fatal("oversized entry accepted")
	}
	if !p.Contains("a") {
		t.Fatal("rejection flushed pool")
	}
}

func TestPoolResizeAndRemove(t *testing.T) {
	p := NewPool(100)
	p.Add("a", 30) //nolint:errcheck
	p.Add("a", 50) //nolint:errcheck // resize
	if p.Used() != 50 || p.Len() != 1 {
		t.Fatalf("after resize: used=%d len=%d", p.Used(), p.Len())
	}
	if !p.Remove("a") || p.Remove("a") {
		t.Fatal("remove semantics")
	}
	if p.Used() != 0 {
		t.Fatal("used after remove")
	}
}

func TestPoolUnbounded(t *testing.T) {
	p := NewPool(0)
	for i := 0; i < 100; i++ {
		if _, ok := p.Add(string(rune('a'+i%26))+string(rune('0'+i/26)), 1<<20); !ok {
			t.Fatal("unbounded pool rejected entry")
		}
	}
	if p.Len() != 100 {
		t.Fatalf("len = %d", p.Len())
	}
}

func TestPoolNamesOrder(t *testing.T) {
	p := NewPool(0)
	p.Add("a", 1) //nolint:errcheck
	p.Add("b", 1) //nolint:errcheck
	p.Add("c", 1) //nolint:errcheck
	p.Lookup("a") // a -> MRU
	names := p.Names()
	if len(names) != 3 || names[0] != "a" || names[1] != "c" || names[2] != "b" {
		t.Fatalf("names = %v", names)
	}
}

func TestPoolPinBlocksEviction(t *testing.T) {
	p := NewPool(100)
	p.Add("a", 60) //nolint:errcheck
	p.Add("b", 40) //nolint:errcheck
	if !p.Pin("a") {
		t.Fatal("pin a")
	}
	// a is LRU but pinned: the eviction scan must skip it and take b, even
	// though that leaves the pool over budget.
	ev, ok := p.Add("c", 50)
	if !ok || len(ev) != 1 || ev[0] != "b" {
		t.Fatalf("evicted %v (ok=%v), want [b]", ev, ok)
	}
	if !p.Contains("a") || p.Used() != 110 {
		t.Fatalf("pinned entry lost or used wrong: used=%d", p.Used())
	}
	// With everything evictable pinned, adds still succeed over budget.
	p.Pin("c")
	ev, ok = p.Add("d", 10)
	if !ok || len(ev) != 0 {
		t.Fatalf("all-pinned add: evicted %v (ok=%v)", ev, ok)
	}
	p.Pin("d")
	// Pins nest: a double-pinned entry needs two unpins to become
	// evictable again.
	p.Pin("a")
	p.Unpin("a")
	ev, _ = p.Add("e", 10)
	if len(ev) != 0 {
		t.Fatalf("single unpin of a double pin allowed eviction: %v", ev)
	}
	p.Pin("e")
	p.Unpin("a")
	ev, _ = p.Add("f", 10)
	if len(ev) != 1 || ev[0] != "a" {
		t.Fatalf("after full unpin: evicted %v, want [a]", ev)
	}
	if p.Pin("zzz") {
		t.Fatal("pinned a missing entry")
	}
}

func TestPoolReserve(t *testing.T) {
	p := NewPool(100)
	p.Add("a", 40) //nolint:errcheck
	p.Add("b", 40) //nolint:errcheck
	// A reservation that still fits evicts nothing.
	if ev := p.Reserve(20); len(ev) != 0 || p.Reserved() != 20 {
		t.Fatalf("fitting reserve evicted %v (reserved=%d)", ev, p.Reserved())
	}
	// Growing it past the budget evicts LRU entries until used+reserved
	// fits again.
	if ev := p.Reserve(40); len(ev) != 1 || ev[0] != "a" {
		t.Fatalf("reserve 40 evicted %v, want [a]", ev)
	}
	if p.Used() != 40 || p.Reserved() != 40 {
		t.Fatalf("used=%d reserved=%d", p.Used(), p.Reserved())
	}
	// The reservation replaces, not accumulates: shrinking it back makes
	// room without any eviction.
	if ev := p.Reserve(10); len(ev) != 0 || p.Reserved() != 10 {
		t.Fatalf("shrink evicted %v (reserved=%d)", ev, p.Reserved())
	}
	// Adds respect the standing reservation: 40+50+40+10 > 100, and
	// evicting LRU "b" brings used+reserved back to exactly 100.
	p.Add("c", 50) //nolint:errcheck
	if ev, _ := p.Add("d", 40); len(ev) != 1 || ev[0] != "b" {
		t.Fatalf("add under reservation evicted %v, want [b]", ev)
	}
	// Pinned entries survive even a reservation larger than the budget;
	// the pool just stays over.
	p.Pin("c")
	p.Pin("d")
	if ev := p.Reserve(200); len(ev) != 0 {
		t.Fatalf("all-pinned reserve evicted %v", ev)
	}
	if !p.Contains("c") || !p.Contains("d") {
		t.Fatal("pinned entries lost to a reservation")
	}
	// Unbounded pools ignore reservations entirely.
	u := NewPool(0)
	u.Add("x", 1<<40) //nolint:errcheck
	if ev := u.Reserve(1 << 50); len(ev) != 0 {
		t.Fatalf("unbounded reserve evicted %v", ev)
	}
}

func TestCreateBaseCompressed(t *testing.T) {
	nfs := backend.NewMemStore()
	ns := NewNamespace("nfs", nfs)
	const size = 2 * mb
	// Text-like compressible content.
	content := textSource{size}
	if err := CreateBaseCompressed(ns, Locator{Store: "nfs", Name: "c.img"}, size, 16, content); err != nil {
		t.Fatalf("CreateBaseCompressed: %v", err)
	}
	if err := CreateBase(ns, Locator{Store: "nfs", Name: "r.img"}, size, 16, content); err != nil {
		t.Fatal(err)
	}
	cSize, _ := nfs.Stat("c.img")
	rSize, _ := nfs.Stat("r.img")
	if cSize >= rSize {
		t.Fatalf("compressed base (%d) not smaller than raw (%d)", cSize, rSize)
	}
	// Chains over a compressed base read identically.
	cow := Locator{Store: "nfs", Name: "v.cow"}
	if err := CreateCoW(ns, cow, Locator{Store: "nfs", Name: "c.img"}, size, 0); err != nil {
		t.Fatal(err)
	}
	c, err := OpenChain(ns, cow, ChainOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close() //nolint:errcheck
	got := make([]byte, 64<<10)
	if err := backend.ReadFull(c, got, mb); err != nil {
		t.Fatal(err)
	}
	want := make([]byte, 64<<10)
	content.ReadAt(want, mb) //nolint:errcheck
	if !bytes.Equal(got, want) {
		t.Fatal("chain over compressed base mismatch")
	}
	// Guest writes onto the compressed base work (CoW at the top layer).
	if err := backend.WriteFull(c, []byte("write-onto-compressed"), mb); err != nil {
		t.Fatal(err)
	}
}

// textSource generates compressible, deterministic content.
type textSource struct{ n int64 }

func (s textSource) ReadAt(p []byte, off int64) (int, error) {
	for i := range p {
		p[i] = 'a' + byte((off+int64(i))%23)
	}
	return len(p), nil
}

func (s textSource) Size() int64 { return s.n }
