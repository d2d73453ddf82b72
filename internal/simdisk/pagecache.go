package simdisk

// PageCache models the storage node's file page cache: an LRU over
// (file, page) keys. It is the reason a single VMI shared by 64 nodes never
// bottlenecks on the storage disk (Fig. 2, InfiniBand): the first node's
// reads populate the cache and the other 63 are served from memory. With
// many distinct VMIs the aggregate first-read footprint floods the disk
// instead (Fig. 3).
type PageCache struct {
	pageSize int64
	capPages int64
	pages    map[pageKey]*pageEntry
	head     *pageEntry
	tail     *pageEntry

	HitBytes  int64
	MissBytes int64
}

type pageKey struct {
	file string
	page int64
}

type pageEntry struct {
	key        pageKey
	prev, next *pageEntry
}

// NewPageCache returns an LRU page cache of the given byte capacity.
func NewPageCache(capacityBytes, pageSize int64) *PageCache {
	if pageSize <= 0 {
		pageSize = 64 << 10
	}
	capPages := capacityBytes / pageSize
	if capPages < 1 {
		capPages = 1
	}
	return &PageCache{
		pageSize: pageSize,
		capPages: capPages,
		pages:    make(map[pageKey]*pageEntry),
	}
}

// Touch simulates reading [off, off+n) of file: pages present count as hit
// bytes, absent pages count as miss bytes and are inserted (the disk read
// that services the miss fills them). Returns (hitBytes, missBytes).
func (c *PageCache) Touch(file string, off, n int64) (hit, miss int64) {
	if n <= 0 {
		return 0, 0
	}
	first := off / c.pageSize
	last := (off + n - 1) / c.pageSize
	for pg := first; pg <= last; pg++ {
		pgStart := pg * c.pageSize
		pgEnd := pgStart + c.pageSize
		lo, hi := maxI64(off, pgStart), minI64(off+n, pgEnd)
		span := hi - lo
		k := pageKey{file, pg}
		if e, ok := c.pages[k]; ok {
			hit += span
			c.moveToFront(e)
			continue
		}
		miss += span
		c.insert(k)
	}
	c.HitBytes += hit
	c.MissBytes += miss
	return hit, miss
}

// Len reports the number of resident pages.
func (c *PageCache) Len() int { return len(c.pages) }

func (c *PageCache) insert(k pageKey) {
	e := &pageEntry{key: k}
	c.pages[k] = e
	c.pushFront(e)
	if int64(len(c.pages)) > c.capPages {
		v := c.tail
		c.unlink(v)
		delete(c.pages, v.key)
	}
}

func (c *PageCache) pushFront(e *pageEntry) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *PageCache) unlink(e *pageEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *PageCache) moveToFront(e *pageEntry) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}

func minI64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
