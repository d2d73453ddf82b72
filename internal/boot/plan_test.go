package boot

import (
	"testing"

	"vmicache/internal/trace"
)

// TestPrefetchPlanCoversFootprint checks the exported prewarm plan against
// the workload it came from: every read byte is inside the plan, extents
// respect the split cap, and coalescing actually shrinks the extent count.
func TestPrefetchPlanCoversFootprint(t *testing.T) {
	p := CentOS.Scale(64 * 1e6 / float64(CentOS.UniqueReadBytes)) // ~64 MB working set
	w := Generate(p)

	const (
		maxGap = 256 << 10
		maxLen = 4 << 20
	)
	plan := w.PrefetchPlan(maxGap, maxLen)
	if len(plan) == 0 {
		t.Fatal("empty plan")
	}
	var cover trace.IntervalSet
	var planBytes int64
	for _, e := range plan {
		if e.Len <= 0 {
			t.Fatalf("non-positive extent %+v", e)
		}
		if e.Len > maxLen {
			t.Fatalf("extent %+v exceeds maxLen %d", e, maxLen)
		}
		if e.Off < 0 || e.Off+e.Len > p.ImageSize {
			t.Fatalf("extent %+v escapes the image (size %d)", e, p.ImageSize)
		}
		cover.Add(e.Off, e.Off+e.Len)
		planBytes += e.Len
	}
	for _, s := range w.ReadSpans() {
		if !cover.Contains(s.Off, s.Off+s.Len) {
			t.Fatalf("read span %+v not covered by the plan", s)
		}
	}
	if len(plan) >= len(w.ReadSpans()) {
		t.Fatalf("coalescing did not shrink the plan: %d extents for %d reads",
			len(plan), len(w.ReadSpans()))
	}
	// Gap absorption costs bytes; it must stay a modest multiple of the
	// true footprint or prewarming would defeat its own purpose.
	if unique := w.UniqueReadBytes(); planBytes > 4*unique {
		t.Fatalf("plan fetches %d bytes for a %d-byte footprint", planBytes, unique)
	}
}

// TestPrefetchPlanDeterminism pins the plan to the workload's determinism:
// same profile, same plan.
func TestPrefetchPlanDeterminism(t *testing.T) {
	p := Debian.Scale(16 * 1e6 / float64(Debian.UniqueReadBytes))
	a := Generate(p).PrefetchPlan(64<<10, 1<<20)
	b := Generate(p).PrefetchPlan(64<<10, 1<<20)
	if len(a) != len(b) {
		t.Fatalf("plan lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("plan[%d] differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestCoalesce(t *testing.T) {
	in := []Span{
		{0, 100},    // run start
		{100, 50},   // adjacent: merge
		{180, 20},   // 30-byte gap <= maxGap: merge, absorbing the gap
		{150, 10},   // already covered (re-read): no growth
		{1000, 100}, // far: new extent
		{0, 0},      // dropped
	}
	got := coalesce(in, 64, 0)
	want := []Span{{0, 200}, {1000, 100}}
	if len(got) != len(want) {
		t.Fatalf("coalesce = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("coalesce[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestCoalesceSplitsAtMaxLen(t *testing.T) {
	got := coalesce([]Span{{0, 100}, {100, 150}}, 0, 100)
	want := []Span{{0, 100}, {100, 100}, {200, 50}}
	if len(got) != len(want) {
		t.Fatalf("coalesce = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("coalesce[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}
