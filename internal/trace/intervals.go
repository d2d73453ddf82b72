// Package trace records block-level access traces and analyses them. Its
// central consumer is the working-set measurement behind Table 1 of the
// paper ("Read working set size of various VMIs for booting the VM"): the
// number of *unique* bytes a guest reads from the base image during boot.
package trace

import "sort"

// IntervalSet is a set of disjoint, half-open byte ranges [start, end).
// Adding overlapping or adjacent ranges coalesces them. It answers the two
// questions working-set analysis needs: "how many unique bytes so far?" and
// "which part of this range is new?".
type IntervalSet struct {
	// starts and ends are parallel slices of disjoint intervals sorted by
	// start; invariant: ends[i] < starts[i+1] (adjacent ranges merge).
	starts []int64
	ends   []int64
	total  int64
}

// Add inserts [start, end), coalescing with existing intervals, and returns
// the number of bytes that were not previously covered.
func (s *IntervalSet) Add(start, end int64) int64 {
	if end <= start {
		return 0
	}
	// Find the first interval whose end >= start (candidate for overlap
	// or adjacency on the left).
	i := sort.Search(len(s.starts), func(i int) bool { return s.ends[i] >= start })
	// Find one past the last interval whose start <= end.
	j := sort.Search(len(s.starts), func(i int) bool { return s.starts[i] > end })

	if i == j {
		// No overlap: pure insertion at position i.
		s.starts = append(s.starts, 0)
		s.ends = append(s.ends, 0)
		copy(s.starts[i+1:], s.starts[i:])
		copy(s.ends[i+1:], s.ends[i:])
		s.starts[i] = start
		s.ends[i] = end
		added := end - start
		s.total += added
		return added
	}

	// Merge intervals [i, j) with the new range.
	newStart := start
	if s.starts[i] < newStart {
		newStart = s.starts[i]
	}
	newEnd := end
	if s.ends[j-1] > newEnd {
		newEnd = s.ends[j-1]
	}
	var covered int64
	for k := i; k < j; k++ {
		covered += s.ends[k] - s.starts[k]
	}
	s.starts[i] = newStart
	s.ends[i] = newEnd
	s.starts = append(s.starts[:i+1], s.starts[j:]...)
	s.ends = append(s.ends[:i+1], s.ends[j:]...)
	added := (newEnd - newStart) - covered
	s.total += added
	return added
}

// Contains reports whether every byte of [start, end) is covered.
func (s *IntervalSet) Contains(start, end int64) bool {
	if end <= start {
		return true
	}
	i := sort.Search(len(s.starts), func(i int) bool { return s.ends[i] > start })
	return i < len(s.starts) && s.starts[i] <= start && s.ends[i] >= end
}

// Overlap returns the number of bytes of [start, end) already covered.
func (s *IntervalSet) Overlap(start, end int64) int64 {
	if end <= start {
		return 0
	}
	var covered int64
	i := sort.Search(len(s.starts), func(i int) bool { return s.ends[i] > start })
	for ; i < len(s.starts) && s.starts[i] < end; i++ {
		lo := s.starts[i]
		if lo < start {
			lo = start
		}
		hi := s.ends[i]
		if hi > end {
			hi = end
		}
		covered += hi - lo
	}
	return covered
}

// Total reports the number of unique covered bytes.
func (s *IntervalSet) Total() int64 { return s.total }

// Count reports the number of disjoint intervals.
func (s *IntervalSet) Count() int { return len(s.starts) }

// Each calls fn for every disjoint interval in ascending order.
func (s *IntervalSet) Each(fn func(start, end int64)) {
	for i := range s.starts {
		fn(s.starts[i], s.ends[i])
	}
}
