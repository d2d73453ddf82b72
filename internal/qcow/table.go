package qcow

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"vmicache/internal/backend"
	"vmicache/internal/zerocopy"
)

// defaultL2CacheTables sizes the in-memory L2 table cache for a layout.
// With 64 KiB clusters one table covers 512 MiB, so a handful suffices; with
// 512 B clusters one table covers only 32 KiB, so boots touch thousands.
// Target enough tables to cover 512 MiB of virtual disk, clamped to keep
// memory bounded (tables are one cluster each).
func defaultL2CacheTables(ly layout) int {
	const targetCoverage = 512 << 20
	n := int64(targetCoverage) / ly.l2Coverage
	if n < 64 {
		n = 64
	}
	if n > 16384 {
		n = 16384
	}
	return int(n)
}

// l2ShardCount is the number of independent shards the L2 table cache is
// split into (power of two). Translations hash their table offset to a
// shard, so 64 concurrent readers contend on 16 short mutexes instead of
// serialising on one — the per-shard critical section is a map probe plus an
// LRU bump, never I/O.
const l2ShardCount = 16

// l2Cache is a sharded LRU of decoded L2 tables keyed by their file offset.
// Entries are write-through: updates are persisted immediately, so eviction
// never loses data. Each shard's mutex protects only that shard's map and
// LRU list — the cached table slices themselves are guarded by the image
// lock (readers under RLock, mutators under Lock), so concurrent
// translations may share a slice safely. Aggregate hit/miss counters live in
// Stats (loadL2 counts them); per-shard counters live on the shards and are
// exposed by RegisterMetrics.
type l2Cache struct {
	shards [l2ShardCount]l2Shard
}

// l2Shard is one independently locked slice of the cache.
type l2Shard struct {
	mu   sync.Mutex
	cap  int
	m    map[int64]*l2Entry
	head *l2Entry // most recent
	tail *l2Entry // least recent

	loading map[int64]*l2Load // in-flight decodes (get); nil until a miss

	hits   atomic.Int64
	misses atomic.Int64
}

// l2Load is one in-flight decode; table and err are set when done closes.
type l2Load struct {
	done  chan struct{}
	table []uint64
	err   error
}

type l2Entry struct {
	off        int64
	table      []uint64
	prev, next *l2Entry
}

func newL2Cache(capTables int) *l2Cache {
	perShard := (capTables + l2ShardCount - 1) / l2ShardCount
	if perShard < 1 {
		perShard = 1
	}
	c := &l2Cache{}
	for i := range c.shards {
		c.shards[i].cap = perShard
		c.shards[i].m = make(map[int64]*l2Entry)
	}
	return c
}

// shard maps an L2 table file offset to its shard. Offsets are cluster-
// aligned, so the low bits carry no entropy: mix with a Fibonacci multiplier
// and take high bits.
func (c *l2Cache) shard(off int64) *l2Shard {
	h := uint64(off) * 0x9e3779b97f4a7c15
	return &c.shards[(h>>56)&(l2ShardCount-1)]
}

// get returns the cached table at off or, on a miss, the table's in-flight
// load; lead reports that the caller claimed it and must finish it.
func (c *l2Cache) get(off int64) (t []uint64, ld *l2Load, lead bool) {
	s := c.shard(off)
	s.mu.Lock()
	if e, ok := s.m[off]; ok {
		s.moveToFront(e)
		t = e.table
		s.mu.Unlock()
		s.hits.Add(1)
		return t, nil, false
	}
	if ld = s.loading[off]; ld == nil {
		if s.loading == nil {
			s.loading = make(map[int64]*l2Load)
		}
		ld, lead = &l2Load{done: make(chan struct{})}, true
		s.loading[off] = ld
	}
	s.mu.Unlock()
	s.misses.Add(1)
	return nil, ld, lead
}

// finish caches a claimed load's table and releases its waiters.
func (c *l2Cache) finish(off int64, ld *l2Load) {
	if ld.err == nil {
		c.put(off, ld.table)
	}
	s := c.shard(off)
	s.mu.Lock()
	delete(s.loading, off)
	s.mu.Unlock()
	close(ld.done)
}

func (c *l2Cache) put(off int64, table []uint64) {
	s := c.shard(off)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.m[off]; ok {
		e.table = table
		s.moveToFront(e)
		return
	}
	e := &l2Entry{off: off, table: table}
	s.m[off] = e
	s.pushFront(e)
	if len(s.m) > s.cap {
		evict := s.tail
		s.unlink(evict)
		delete(s.m, evict.off)
	}
}

func (s *l2Shard) pushFront(e *l2Entry) {
	e.prev = nil
	e.next = s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

func (s *l2Shard) unlink(e *l2Entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (s *l2Shard) moveToFront(e *l2Entry) {
	if s.head == e {
		return
	}
	s.unlink(e)
	s.pushFront(e)
}

// Tables is the L1 and decoded L2 tables of one immutable image file, shared
// by its read-only opens: the first fills the L1, later ones read only the
// header. Hand a set only to opens of that file; Retire it before it changes.
//
// The set also owns the one mapping of the file that attached images copy
// their raw reads from (mappedRead): made on the first such read, unmapped
// once the set is retired and its last attached image has closed.
type Tables struct {
	mu      sync.Mutex
	hdr     *Header // the header of the filling open; nil while empty
	l1      []uint64
	l2c     *l2Cache
	retired bool
	users   int // open images attached to the set

	region       atomic.Pointer[[]byte] // nil until the first raw read tries to map
	maps, unmaps atomic.Int32
}

// NewTables returns an empty set; the first open that takes it fills it.
func NewTables() *Tables { return &Tables{} }

// Retire makes later opens ignore the set; images using it keep it.
func (t *Tables) Retire() {
	t.mu.Lock()
	t.retired = true
	t.unmapIdleLocked()
	t.mu.Unlock()
}

// VirtualSize reports the guest size of the set's file once an open has
// filled the set.
func (t *Tables) VirtualSize() (int64, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.hdr == nil {
		return 0, false
	}
	return int64(t.hdr.Size), true
}

// Mappings reports how many times the set has mapped and unmapped its file.
func (t *Tables) Mappings() (maps, unmaps int) {
	return int(t.maps.Load()), int(t.unmaps.Load())
}

// attach points a read-only image at the set, filling the set from img's
// container first if it is empty; false means retired, or filled when fresh
// asks for an empty set: img reads its own.
func (t *Tables) attach(img *Image, sz int64, fresh bool) (bool, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.retired || fresh && t.hdr != nil {
		return false, nil
	}
	if t.hdr == nil {
		l1, err := readL1(img.f, img.hdr, sz)
		if err != nil {
			return false, err
		}
		t.hdr, t.l1, t.l2c = img.hdr, l1, newL2Cache(defaultL2CacheTables(img.ly))
	} else if *t.hdr != *img.hdr {
		return false, fmt.Errorf("%w: shared tables belong to another image", ErrCorrupt)
	}
	img.l1, img.l2c, img.tables = t.l1, t.l2c, t
	t.users++
	return true, nil
}

// detach is an attached image's close, after its last read has drained.
func (t *Tables) detach() {
	t.mu.Lock()
	t.users--
	t.unmapIdleLocked()
	t.mu.Unlock()
}

// unmapIdleLocked releases the mapping of a retired set no image uses: no
// copy can be running from it, and no image can attach to make another.
func (t *Tables) unmapIdleLocked() {
	if !t.retired || t.users > 0 {
		return
	}
	if m := t.region.Swap(new([]byte)); m != nil && *m != nil {
		zerocopy.Munmap(*m) //nolint:errcheck // nothing reads it any more
		t.unmaps.Add(1)
	}
}

// mapping returns the set's read-only mapping of the file f opens, making
// it on the first call — from f's descriptor, sized by the file now. It is
// nil when the file cannot be mapped (not os-backed, empty, no mmap).
// Callers are attached images, so the mapping outlives their reads.
func (t *Tables) mapping(f backend.File) []byte {
	if m := t.region.Load(); m != nil {
		return *m
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if m := t.region.Load(); m != nil {
		return *m
	}
	var m []byte
	if sys := zerocopy.SysFile(f); sys != nil {
		if sz, err := f.Size(); err == nil && sz > 0 {
			if m, err = zerocopy.Mmap(sys, sz); err == nil {
				t.maps.Add(1)
			}
		}
	}
	t.region.Store(&m)
	return m
}

// loadL2 returns the decoded L2 table stored at file offset off. Concurrent
// misses on one table read and decode it once: the first claims the load,
// the others wait for its table. A waiter whose leader failed — possibly on
// another image's container, when the cache is shared — loads it itself.
func (img *Image) loadL2(off int64) ([]uint64, error) {
	for {
		t, ld, lead := img.l2c.get(off)
		if t != nil {
			img.stats.L2CacheHits.Add(1)
			return t, nil
		}
		img.stats.L2CacheMisses.Add(1)
		if !lead {
			if <-ld.done; ld.err != nil {
				continue
			}
			return ld.table, nil
		}
		buf := img.cbuf.get(int(img.ly.clusterSize))
		if ld.err = backend.ReadFull(img.f, buf, off); ld.err == nil {
			ld.table = make([]uint64, img.ly.l2Entries)
			for i := range ld.table {
				ld.table[i] = binary.BigEndian.Uint64(buf[i*8:])
			}
		}
		img.cbuf.put(buf)
		img.l2c.finish(off, ld)
		return ld.table, ld.err
	}
}

// writeSlots writes consecutive big-endian 8-byte table slots (L1, L2,
// refcount table, sub-cluster words) at off.
func (img *Image) writeSlots(off int64, vals []uint64) error {
	b := make([]byte, len(vals)*8)
	for i, v := range vals {
		binary.BigEndian.PutUint64(b[i*8:], v)
	}
	return backend.WriteFull(img.f, b, off)
}

// writeL1Entry persists one L1 slot (write-through).
func (img *Image) writeL1Entry(idx int64) error {
	return img.writeSlots(int64(img.hdr.L1TableOffset)+idx*l1EntrySize, img.l1[idx:idx+1])
}

// writeL2Entry persists one slot of the L2 table at l2Off (write-through).
func (img *Image) writeL2Entry(l2Off int64, idx int64, val uint64) error {
	return img.writeSlots(l2Off+idx*l2EntrySize, []uint64{val})
}

// mapping is the result of translating a virtual cluster index.
type mapping struct {
	dataOff    int64 // physical offset of the data cluster; 0 = unallocated
	l2Off      int64 // physical offset of the L2 table; 0 = no L2 table yet
	l2Index    int64 // slot within the L2 table
	l1Index    int64
	compressed bool // dataOff points at a deflate blob
}

// lookup translates virtual cluster index vc without allocating.
func (img *Image) lookup(vc int64) (mapping, error) {
	m, _, err := img.lookupT(vc)
	return m, err
}

// lookupT is lookup plus the decoded L2 table it consulted (nil when the
// cluster has no L2 table yet).
func (img *Image) lookupT(vc int64) (mapping, []uint64, error) {
	var m mapping
	m.l1Index = vc >> img.ly.l2Bits
	m.l2Index = vc & (img.ly.l2Entries - 1)
	if m.l1Index >= int64(len(img.l1)) {
		return m, nil, ErrOutOfRange
	}
	l1e := img.l1[m.l1Index]
	m.l2Off = int64(l1e & entryOffsetMask)
	if m.l2Off == 0 {
		return m, nil, nil
	}
	t, err := img.loadL2(m.l2Off)
	if err != nil {
		return m, nil, err
	}
	m.dataOff = int64(t[m.l2Index] & entryOffsetMask)
	m.compressed = t[m.l2Index]&entryCompressed != 0
	return m, t, nil
}

// runLookup translates consecutive virtual clusters while memoizing the
// current L2 table, avoiding an l2Cache probe (shard mutex + LRU bump) per
// cluster — with 512 B clusters a single guest read scans dozens of
// clusters of the same table. Valid only inside ONE image-lock critical
// section (read or write): the memoized table must not be reused after the
// lock is released, and not across allocations that install L2 tables.
type runLookup struct {
	img   *Image
	l1i   int64
	l2Off int64
	table []uint64
	valid bool
}

func (r *runLookup) lookup(vc int64) (mapping, error) {
	t, i, err := r.slots(vc)
	if err != nil {
		return mapping{}, err
	}
	m := mapping{l1Index: r.l1i, l2Index: i, l2Off: r.l2Off}
	if t != nil {
		m.dataOff = int64(t[i] & entryOffsetMask)
		m.compressed = t[i]&entryCompressed != 0
	}
	return m, nil
}

// slots returns the L2 table holding vc's slot and the slot's index in it,
// fetching the table only when vc lies in another table than the last
// call's. The table is nil when vc's L1 entry has no L2 table: every slot
// of it reads as unallocated. Run scans index the returned table directly.
func (r *runLookup) slots(vc int64) ([]uint64, int64, error) {
	ly := &r.img.ly
	if l1i := vc >> ly.l2Bits; !r.valid || l1i != r.l1i {
		m, t, err := r.img.lookupT(vc)
		if err != nil {
			return nil, 0, err
		}
		r.l1i, r.l2Off, r.table, r.valid = l1i, m.l2Off, t, true
	}
	return r.table, vc & (ly.l2Entries - 1), nil
}

// ensureL2 returns the mapping for vc, allocating an L2 table if missing.
func (img *Image) ensureL2(vc int64) (mapping, error) {
	m, err := img.lookup(vc)
	if err != nil {
		return m, err
	}
	if m.l2Off != 0 {
		return m, nil
	}
	off, err := img.allocCluster(true)
	if err != nil {
		return m, err
	}
	m.l2Off = off
	img.l1[m.l1Index] = uint64(off) | entryCopied
	if err := img.writeL1Entry(m.l1Index); err != nil {
		return m, err
	}
	img.l2c.put(off, make([]uint64, img.ly.l2Entries))
	return m, nil
}

// bindCluster installs a data cluster at the mapping's slot.
func (img *Image) bindCluster(m *mapping, dataOff int64) error {
	t, err := img.loadL2(m.l2Off)
	if err != nil {
		return err
	}
	t[m.l2Index] = uint64(dataOff) | entryCopied
	m.dataOff = dataOff
	return img.writeL2Entry(m.l2Off, m.l2Index, t[m.l2Index])
}
