package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSampleQuantiles(t *testing.T) {
	var s Sample
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	if got := s.Median(); math.Abs(got-50.5) > 1e-9 {
		t.Fatalf("median = %v", got)
	}
	if got := s.Quantile(0); got != 1 {
		t.Fatalf("q0 = %v", got)
	}
	if got := s.Quantile(1); got != 100 {
		t.Fatalf("q1 = %v", got)
	}
	if got := s.Quantile(0.99); math.Abs(got-99.01) > 1e-9 {
		t.Fatalf("q99 = %v", got)
	}
}

func TestSampleAddAfterQuantileKeepsConsistency(t *testing.T) {
	var s Sample
	s.Add(5)
	s.Add(1)
	_ = s.Median() // forces sort
	s.Add(3)       // must invalidate sorted flag
	if got := s.Median(); got != 3 {
		t.Fatalf("median after interleaved add = %v", got)
	}
}

// Property: quantiles are monotone in q.
func TestSampleQuantileMonotone(t *testing.T) {
	check := func(raw []float64, q1, q2 float64) bool {
		if len(raw) == 0 {
			return true
		}
		var s Sample
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				x = 0
			}
			s.Add(x)
		}
		q1 = math.Abs(math.Mod(q1, 1))
		q2 = math.Abs(math.Mod(q2, 1))
		if q1 > q2 {
			q1, q2 = q2, q1
		}
		return s.Quantile(q1) <= s.Quantile(q2)+1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramBucketsAndQuantile(t *testing.T) {
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Add(10) // bucket 3: [8,16)
	}
	h.Add(1000) // bucket 9: [512,1024)
	if got := h.buckets[3]; got != 100 {
		t.Fatalf("bucket 3 = %d", got)
	}
	if got := h.buckets[9]; got != 1 {
		t.Fatalf("bucket 9 = %d", got)
	}
	if got := h.ApproxQuantile(0.5); got != 16 {
		t.Fatalf("approx median = %v, want 16", got)
	}
	if got := h.ApproxQuantile(0.999); got != 1024 {
		t.Fatalf("approx p99.9 = %v, want 1024", got)
	}
	if math.Abs(h.Mean()-(100*10+1000)/101.0) > 1e-9 {
		t.Fatalf("mean = %v", h.Mean())
	}
	if !strings.Contains(h.String(), "[2^03, 2^04)") {
		t.Fatalf("render missing bucket: %s", h.String())
	}
}

func TestHistogramEdgeValues(t *testing.T) {
	var h Histogram
	h.Add(-5) // clamped
	h.Add(0)
	h.Add(0.5)
	if got := h.buckets[0]; got != 3 {
		t.Fatalf("bucket 0 = %d", got)
	}
	h.Add(math.MaxFloat64) // clamped to top bucket
	if got := h.buckets[63]; got != 1 {
		t.Fatalf("bucket 63 = %d", got)
	}
	var empty Histogram
	if empty.String() != "(empty histogram)" {
		t.Fatal("empty histogram render")
	}
	if empty.ApproxQuantile(0.5) != 0 {
		t.Fatal("empty quantile")
	}
}

func TestFigureRendering(t *testing.T) {
	f := NewFigure("Fig X", "# nodes", "boot time (s)")
	warm := f.AddSeries("Warm cache")
	cold := f.AddSeries("QCOW2")
	for _, n := range []float64{1, 4, 8} {
		warm.Add(n, 30, 0)
	}
	cold.Add(1, 30, 0)
	cold.Add(8, 90, 0)
	out := f.String()
	if !strings.Contains(out, "Fig X") || !strings.Contains(out, "Warm cache") {
		t.Fatalf("render: %s", out)
	}
	// x=4 exists only in warm; cold column should show "-".
	foundDash := false
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "4") && strings.Contains(line, "-") {
			foundDash = true
		}
	}
	if !foundDash {
		t.Fatalf("missing '-' placeholder:\n%s", out)
	}
	if y, ok := cold.YAt(8); !ok || y != 90 {
		t.Fatal("YAt lookup")
	}
	if _, ok := cold.YAt(5); ok {
		t.Fatal("YAt found nonexistent x")
	}
}

func TestFigureXValuesSorted(t *testing.T) {
	f := NewFigure("t", "x", "y")
	s := f.AddSeries("s")
	for _, x := range []float64{64, 1, 16, 4, 32, 8} {
		s.Add(x, x, 0)
	}
	xs := f.xValues()
	for i := 1; i < len(xs); i++ {
		if xs[i] < xs[i-1] {
			t.Fatalf("xValues not sorted: %v", xs)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Table 1", "VMI", "Size of unique reads")
	tb.AddRow("CentOS 6.3", "85.2 MB")
	tb.AddRow("Debian 6.0.7", "24.9 MB")
	out := tb.String()
	if !strings.Contains(out, "CentOS 6.3") || !strings.Contains(out, "85.2 MB") {
		t.Fatalf("table render: %s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // title + header + 2 rows
		t.Fatalf("table lines = %d: %s", len(lines), out)
	}
}
