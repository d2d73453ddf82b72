package metrics

import (
	"fmt"
	"math"
	"strings"
)

// Histogram is a base-2 logarithmic histogram for non-negative values
// (latencies in nanoseconds, request sizes in bytes). Bucket i holds values
// in [2^i, 2^(i+1)); values < 1 land in bucket 0.
type Histogram struct {
	buckets [64]int64
	count   int64
	sum     float64
}

// Add records one value; negative values are clamped to zero.
func (h *Histogram) Add(v float64) {
	if v < 0 {
		v = 0
	}
	i := 0
	if v >= 1 {
		i = int(math.Log2(v))
		if i > 63 {
			i = 63
		}
	}
	h.buckets[i]++
	h.count++
	h.sum += v
}

// Mean reports the arithmetic mean of recorded values.
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// ApproxQuantile returns an upper bound for the q-th quantile using bucket
// boundaries (exact to within one power of two).
func (h *Histogram) ApproxQuantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	target := int64(q * float64(h.count))
	if target >= h.count {
		target = h.count - 1
	}
	var seen int64
	for i, c := range h.buckets {
		seen += c
		if seen > target {
			return math.Pow(2, float64(i+1))
		}
	}
	return math.Pow(2, 64)
}

// String renders an ASCII bar chart of the non-empty buckets.
func (h *Histogram) String() string {
	var b strings.Builder
	maxC := int64(1)
	lo, hi := -1, -1
	for i, c := range h.buckets {
		if c > 0 {
			if lo < 0 {
				lo = i
			}
			hi = i
			if c > maxC {
				maxC = c
			}
		}
	}
	if lo < 0 {
		return "(empty histogram)"
	}
	for i := lo; i <= hi; i++ {
		bar := strings.Repeat("#", int(40*h.buckets[i]/maxC))
		fmt.Fprintf(&b, "[2^%02d, 2^%02d) %8d %s\n", i, i+1, h.buckets[i], bar)
	}
	return b.String()
}
