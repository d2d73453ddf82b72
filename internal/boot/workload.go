package boot

import (
	"math/rand"
	"time"

	"vmicache/internal/trace"
)

// Kind is the kind of one workload operation.
type Kind uint8

// Workload operation kinds.
const (
	Read Kind = iota
	Write
	Flush
)

// Op is one step of a boot: think for Think, then perform the access.
type Op struct {
	Think time.Duration
	Kind  Kind
	Off   int64
	Len   int64
}

// Span is a byte range (used to warm caches from a workload's read set).
type Span struct {
	Off int64
	Len int64
}

// Workload is a generated, deterministic boot operation stream.
type Workload struct {
	Profile Profile
	Ops     []Op

	uniqueReadBytes int64
	totalReadBytes  int64
}

// UniqueReadBytes reports the unique read volume of the stream (within one
// sector of the profile's target).
func (w *Workload) UniqueReadBytes() int64 { return w.uniqueReadBytes }

// TotalReadBytes reports all read bytes including re-reads.
func (w *Workload) TotalReadBytes() int64 { return w.totalReadBytes }

// ReadSpans returns every read operation's byte range, in issue order.
func (w *Workload) ReadSpans() []Span {
	var out []Span
	for _, op := range w.Ops {
		if op.Kind == Read {
			out = append(out, Span{Off: op.Off, Len: op.Len})
		}
	}
	return out
}

// PrefetchPlan exports the workload's read footprint as a prewarm plan:
// reads in issue order, folded into larger extents when they overlap or sit
// within maxGap bytes of each other, split at maxLen. Issue order is kept
// deliberately — a prewarmer racing the boot it was derived from then stays
// ahead of the guest instead of warming the tail first. Re-read extents
// survive coalescing as duplicates; fetching them again is a warm hit and
// costs nothing remote.
func (w *Workload) PrefetchPlan(maxGap, maxLen int64) []Span {
	return coalesce(w.ReadSpans(), maxGap, maxLen)
}

// coalesce merges a sequence of spans into larger fetches while preserving
// issue order: a span is folded into its predecessor when it overlaps it or
// starts within maxGap bytes of its end (the gap is fetched too — for a boot
// footprint the bytes between two nearby reads are almost always read
// moments later anyway, and one large pipelined fetch beats two round
// trips). Merged spans are split at maxLen so a single fetch never exceeds
// the transport's sweet spot. Spans with non-positive length are dropped;
// maxGap <= 0 merges only overlapping/adjacent spans, maxLen <= 0 leaves
// merged spans unsplit.
func coalesce(spans []Span, maxGap, maxLen int64) []Span {
	out := make([]Span, 0, len(spans))
	for _, e := range spans {
		if e.Len <= 0 {
			continue
		}
		if n := len(out); n > 0 {
			prev := &out[n-1]
			end := prev.Off + prev.Len
			if e.Off >= prev.Off && e.Off <= end+maxGap {
				if newEnd := e.Off + e.Len; newEnd > end {
					prev.Len = newEnd - prev.Off
				}
				continue
			}
		}
		out = append(out, e)
	}
	if maxLen <= 0 {
		return out
	}
	split := make([]Span, 0, len(out))
	for _, e := range out {
		for e.Len > maxLen {
			split = append(split, Span{Off: e.Off, Len: maxLen})
			e.Off += maxLen
			e.Len -= maxLen
		}
		split = append(split, e)
	}
	return split
}

// Generate expands a profile into its operation stream. The same profile
// always yields the same stream.
func Generate(p Profile) *Workload {
	rnd := rand.New(rand.NewSource(p.Seed))
	w := &Workload{Profile: p}

	const align = 512 // guest sector size
	var covered trace.IntervalSet
	type rw struct{ off, n int64 }
	var reads []rw

	randOff := func(n int64) int64 {
		max := p.ImageSize - n
		if max <= 0 {
			return 0
		}
		return (rnd.Int63n(max) / align) * align
	}
	readSize := func(mean int64) int64 {
		// Log-ish distribution clipped to [512 B, 64 KiB]: boots issue
		// mostly small requests.
		n := int64(float64(mean) * (0.25 + rnd.ExpFloat64()))
		if n < align {
			n = align
		}
		if n > 64<<10 {
			n = 64 << 10
		}
		return (n / align) * align
	}

	// Phase 1: unique read set, as sequential runs + scattered singles.
	// SeqRunFraction is a BYTE share: runs are issued until sequential
	// bytes reach their share, then scattered singles catch up, so the
	// generated stream's byte mix matches the profile regardless of how
	// much bigger runs are than singles.
	var seqBytes, randBytes int64
	for covered.Total() < p.UniqueReadBytes {
		seqTarget := p.SeqRunFraction * float64(seqBytes+randBytes+1)
		if float64(seqBytes) < seqTarget {
			// A sequential run of several requests (file reads,
			// program loads).
			pos := randOff(512 << 10)
			runReqs := 2 + rnd.Intn(10)
			for r := 0; r < runReqs && covered.Total() < p.UniqueReadBytes; r++ {
				n := readSize(p.MeanReadSize)
				if pos+n > p.ImageSize {
					break
				}
				covered.Add(pos, pos+n)
				reads = append(reads, rw{pos, n})
				seqBytes += n
				pos += n
			}
		} else {
			n := readSize(p.MeanReadSize / 2)
			off := randOff(n)
			covered.Add(off, off+n)
			reads = append(reads, rw{off, n})
			randBytes += n
		}
	}
	// Trim the overshoot so the unique volume lands within one sector of
	// the profile's working set: the last op's fresh tail caused the
	// excess, and requests stay sector-aligned.
	if excess := (covered.Total() - p.UniqueReadBytes) / align * align; excess > 0 {
		last := &reads[len(reads)-1]
		if last.n > excess {
			last.n -= excess
		}
	}

	// Phase 2: re-reads of earlier ranges (the small fraction the guest
	// page cache misses).
	rereads := int(float64(len(reads)) * p.RereadFraction)
	for i := 0; i < rereads; i++ {
		src := reads[rnd.Intn(len(reads))]
		reads = append(reads, src)
	}

	// Phase 3: guest writes (logs, runtime state), biased to late boot.
	// Boot-time writes overwhelmingly target file-system regions the boot
	// already read (log files, lock files, runtime state under paths the
	// kernel and services just loaded), so most write offsets fall inside
	// earlier read spans; the CoW partial-cluster fills they trigger are
	// then served by a warm cache rather than the remote base.
	type wr struct{ off, n int64 }
	var writes []wr
	writeTarget := (p.WriteBytes + align - 1) / align * align
	for remaining := writeTarget; remaining > 0; {
		n := int64(4<<10) + rnd.Int63n(28<<10)
		n = (n / align) * align
		if n > remaining {
			n = remaining
		}
		off, ok := int64(0), false
		if len(reads) > 0 && rnd.Float64() < 0.98 {
			// Find a write position whose enclosing 64 KiB CoW
			// clusters were fully read earlier in the boot (bias to
			// the first 60% of reads so the read precedes the
			// write). The copy-on-write fill is then wholly
			// cache-resident.
			const cowCluster = 64 << 10
			for try := 0; try < 12 && !ok; try++ {
				r := reads[rnd.Intn(maxInt(len(reads)*6/10, 1))]
				cand := r.off
				if cand+n > p.ImageSize {
					continue
				}
				cl0 := cand / cowCluster * cowCluster
				cl1 := (cand + n + cowCluster - 1) / cowCluster * cowCluster
				if cl1 <= p.ImageSize && covered.Contains(cl0, cl1) {
					off, ok = cand, true
				}
			}
		}
		if !ok {
			off = randOff(n)
		}
		writes = append(writes, wr{off, n})
		remaining -= n
	}

	// Interleave: reads stay in order; writes are spliced into the last
	// 60% of the stream; a flush follows roughly every 8th write.
	totalOps := len(reads) + len(writes)
	w.Ops = make([]Op, 0, totalOps+len(writes)/8+1)
	wi := 0
	writeStart := int(0.4 * float64(len(reads)))
	for ri, r := range reads {
		w.Ops = append(w.Ops, Op{Kind: Read, Off: r.off, Len: r.n})
		if ri >= writeStart && wi < len(writes) {
			// Interleave writes proportionally across the tail.
			tail := len(reads) - writeStart
			want := (ri - writeStart + 1) * len(writes) / maxInt(tail, 1)
			for wi < want && wi < len(writes) {
				w.Ops = append(w.Ops, Op{Kind: Write, Off: writes[wi].off, Len: writes[wi].n})
				wi++
				if wi%8 == 0 {
					w.Ops = append(w.Ops, Op{Kind: Flush})
				}
			}
		}
	}
	for ; wi < len(writes); wi++ {
		w.Ops = append(w.Ops, Op{Kind: Write, Off: writes[wi].off, Len: writes[wi].n})
	}

	// Phase 4: think times. Total think = uncontended boot minus its
	// read-wait share. A few large milestone gaps (kernel init, service
	// start) hold ~30% of it; the rest spreads exponentially.
	thinkBudget := time.Duration(float64(p.UncontendedBoot) * (1 - p.ReadWaitFraction))
	milestones := 3
	milestoneShare := thinkBudget * 3 / 10
	perOpBudget := thinkBudget - milestoneShare
	weights := make([]float64, len(w.Ops))
	var wsum float64
	for i := range weights {
		weights[i] = rnd.ExpFloat64()
		wsum += weights[i]
	}
	for i := range w.Ops {
		w.Ops[i].Think = time.Duration(weights[i] / wsum * float64(perOpBudget))
	}
	for i := 0; i < milestones && len(w.Ops) > 0; i++ {
		idx := rnd.Intn(len(w.Ops))
		w.Ops[idx].Think += milestoneShare / time.Duration(milestones)
	}

	// Final accounting.
	var unique trace.IntervalSet
	for _, op := range w.Ops {
		if op.Kind == Read {
			w.totalReadBytes += op.Len
			unique.Add(op.Off, op.Off+op.Len)
		}
	}
	w.uniqueReadBytes = unique.Total()
	return w
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
