package core

import (
	"sync"
)

// Pool tracks a bounded budget of cache images on one medium and evicts
// least-recently-used entries when a new cache does not fit. §3.4 calls for
// exactly this: "eviction of VMI caches whenever the allocated cache space
// is full for a new VMI cache. This can be a policy such as LRU at the node
// or cloud level."
type Pool struct {
	mu       sync.Mutex
	capacity int64
	used     int64
	reserved int64 // externally-accounted bytes (see Reserve)
	entries  map[string]*poolEntry
	head     *poolEntry // most recently used
	tail     *poolEntry // least recently used

	// OnEvict, when non-nil, is called (without the lock) for every
	// evicted entry, typically to remove the file from its store.
	OnEvict func(name string, size int64)

	hits      int64
	misses    int64
	evictions int64
}

type poolEntry struct {
	name       string
	size       int64
	pins       int // leases holding this entry; pinned entries are never evicted
	prev, next *poolEntry
}

// NewPool returns a pool with the given byte capacity (<= 0 means
// unbounded).
func NewPool(capacity int64) *Pool {
	return &Pool{capacity: capacity, entries: make(map[string]*poolEntry)}
}

// Capacity reports the byte budget.
func (p *Pool) Capacity() int64 { return p.capacity }

// Used reports the bytes currently held by entries (excluding any external
// reservation).
func (p *Pool) Used() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.used
}

// Reserved reports the current external reservation.
func (p *Pool) Reserved() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.reserved
}

// Reserve charges extra externally-accounted bytes against the capacity —
// cachemgr's dedup blob tier, whose chunks are shared by many caches
// (pinned or not) and must be charged exactly once, not once per
// referencing cache. The value replaces any previous reservation (callers
// pass the external total, not a delta). Unpinned LRU entries are evicted
// until used+reserved fits, and their names returned; like Add, the pool
// may stay over budget when everything evictable is pinned.
func (p *Pool) Reserve(extra int64) (evicted []string) {
	p.mu.Lock()
	if extra < 0 {
		extra = 0
	}
	p.reserved = extra
	victims := p.evictLocked("")
	onEvict := p.OnEvict
	p.mu.Unlock()

	for _, v := range victims {
		if onEvict != nil {
			onEvict(v.name, v.size)
		}
		evicted = append(evicted, v.name)
	}
	return evicted
}

// evictLocked unlinks unpinned LRU entries (never protect) until
// used+reserved fits the capacity; caller holds the lock and invokes
// OnEvict outside it.
func (p *Pool) evictLocked(protect string) (victims []*poolEntry) {
	for v := p.tail; v != nil && p.capacity > 0 && p.used+p.reserved > p.capacity; {
		prev := v.prev
		if v.name == protect || v.pins > 0 {
			// Never evict the protected entry or a pinned (leased)
			// entry; keep scanning toward the head. The pool may stay
			// over budget when everything evictable is pinned.
			v = prev
			continue
		}
		p.unlink(v)
		delete(p.entries, v.name)
		p.used -= v.size
		p.evictions++
		victims = append(victims, v)
		v = prev
	}
	return victims
}

// Len reports the number of cached entries.
func (p *Pool) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.entries)
}

// Pinned reports the number of entries currently pinned (pins > 0).
func (p *Pool) Pinned() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, e := range p.entries {
		if e.pins > 0 {
			n++
		}
	}
	return n
}

// Stats reports (hits, misses, evictions).
func (p *Pool) Stats() (hits, misses, evictions int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.hits, p.misses, p.evictions
}

// Lookup reports whether name is pooled, marking it most-recently-used.
func (p *Pool) Lookup(name string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	e, ok := p.entries[name]
	if !ok {
		p.misses++
		return false
	}
	p.hits++
	p.moveToFront(e)
	return true
}

// Contains reports whether name is pooled without touching recency or
// hit/miss accounting.
func (p *Pool) Contains(name string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	_, ok := p.entries[name]
	return ok
}

// Add inserts (or resizes) an entry, evicting LRU entries as needed to fit.
// It returns the names evicted. An entry larger than the whole capacity is
// rejected (returns ok=false) rather than flushing the pool for nothing.
func (p *Pool) Add(name string, size int64) (evicted []string, ok bool) {
	return p.add(name, size, false)
}

// AddPinned is Add with the entry pinned once in the same step: no
// concurrent Add can evict it before its first user holds it.
func (p *Pool) AddPinned(name string, size int64) (evicted []string, ok bool) {
	return p.add(name, size, true)
}

func (p *Pool) add(name string, size int64, pin bool) (evicted []string, ok bool) {
	p.mu.Lock()
	if p.capacity > 0 && size > p.capacity {
		p.mu.Unlock()
		return nil, false
	}
	if e, exists := p.entries[name]; exists {
		p.used += size - e.size
		e.size = size
		p.moveToFront(e)
	} else {
		e := &poolEntry{name: name, size: size}
		p.entries[name] = e
		p.pushFront(e)
		p.used += size
	}
	if pin {
		p.entries[name].pins++
	}
	victims := p.evictLocked(name)
	onEvict := p.OnEvict
	p.mu.Unlock()

	for _, v := range victims {
		if onEvict != nil {
			onEvict(v.name, v.size)
		}
		evicted = append(evicted, v.name)
	}
	return evicted, true
}

// Pin marks an entry in-use, excluding it from eviction until a matching
// Unpin. Pins nest: each Pin needs its own Unpin. Reports whether the entry
// exists.
func (p *Pool) Pin(name string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	e, ok := p.entries[name]
	if !ok {
		return false
	}
	e.pins++
	return true
}

// Unpin releases one Pin. Unpinning a missing or unpinned entry is a no-op.
func (p *Pool) Unpin(name string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if e, ok := p.entries[name]; ok && e.pins > 0 {
		e.pins--
	}
}

// Remove drops an entry without invoking OnEvict.
func (p *Pool) Remove(name string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	e, ok := p.entries[name]
	if !ok {
		return false
	}
	p.unlink(e)
	delete(p.entries, name)
	p.used -= e.size
	return true
}

func (p *Pool) pushFront(e *poolEntry) {
	e.prev = nil
	e.next = p.head
	if p.head != nil {
		p.head.prev = e
	}
	p.head = e
	if p.tail == nil {
		p.tail = e
	}
}

func (p *Pool) unlink(e *poolEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		p.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		p.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (p *Pool) moveToFront(e *poolEntry) {
	if p.head == e {
		return
	}
	p.unlink(e)
	p.pushFront(e)
}
