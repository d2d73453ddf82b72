package core

import (
	"errors"
	"sort"

	"vmicache/internal/qcow"
)

// Prefetching (§7.3). Patterson-style informed prefetching needs a
// *disclosure* of future accesses; the paper observes that for VMI caches
// "the disclosures of the cache images can be inferred automatically at
// their creation time": the cache was filled in exactly the order the first
// boot read it, so walking its allocated clusters in physical order replays
// the boot's future read sequence. Prefetching overlaps those reads with
// guest CPU time; the paper's preliminary experience bounds the benefit at
// the read-wait fraction (~17% for CentOS).

// Disclosure extracts the inferred future-access list of a cache image: its
// allocated guest extents ordered by allocation (physical) position, i.e.
// the order the warming boot read them.
func Disclosure(cache *qcow.Image) ([]Span, error) {
	if !cache.IsCache() {
		return nil, errors.New("core: disclosure requires a cache image")
	}
	extents, err := cache.Map()
	if err != nil {
		return nil, err
	}
	alloc := extents[:0]
	for _, e := range extents {
		if e.Allocated {
			alloc = append(alloc, e)
		}
	}
	sort.Slice(alloc, func(i, j int) bool { return alloc[i].PhysOff < alloc[j].PhysOff })
	spans := make([]Span, len(alloc))
	for i, e := range alloc {
		spans[i] = Span{Off: e.Start, Len: e.Length}
	}
	return spans, nil
}
