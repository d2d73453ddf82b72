package trace

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestIntervalSetBasicCoalescing(t *testing.T) {
	var s IntervalSet
	if added := s.Add(10, 20); added != 10 {
		t.Fatalf("first add = %d", added)
	}
	if added := s.Add(15, 25); added != 5 {
		t.Fatalf("overlap add = %d", added)
	}
	if added := s.Add(25, 30); added != 5 { // adjacent: must merge
		t.Fatalf("adjacent add = %d", added)
	}
	if s.Count() != 1 {
		t.Fatalf("count = %d, want 1 merged interval", s.Count())
	}
	if s.Total() != 20 {
		t.Fatalf("total = %d", s.Total())
	}
	if added := s.Add(12, 18); added != 0 {
		t.Fatalf("fully covered add = %d", added)
	}
}

func TestIntervalSetDisjointAndBridge(t *testing.T) {
	var s IntervalSet
	s.Add(0, 10)
	s.Add(20, 30)
	s.Add(40, 50)
	if s.Count() != 3 || s.Total() != 30 {
		t.Fatalf("setup: count=%d total=%d", s.Count(), s.Total())
	}
	// Bridge the middle two.
	if added := s.Add(5, 45); added != 20 {
		t.Fatalf("bridge add = %d", added)
	}
	if s.Count() != 1 || s.Total() != 50 {
		t.Fatalf("after bridge: count=%d total=%d", s.Count(), s.Total())
	}
}

func TestIntervalSetInsertBeforeAndAfter(t *testing.T) {
	var s IntervalSet
	s.Add(100, 200)
	s.Add(0, 50)    // before
	s.Add(300, 400) // after
	if s.Count() != 3 || s.Total() != 250 {
		t.Fatalf("count=%d total=%d", s.Count(), s.Total())
	}
	var got []int64
	s.Each(func(a, b int64) { got = append(got, a, b) })
	want := []int64{0, 50, 100, 200, 300, 400}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("intervals = %v, want %v", got, want)
		}
	}
}

func TestIntervalSetContainsAndOverlap(t *testing.T) {
	var s IntervalSet
	s.Add(10, 20)
	s.Add(30, 40)
	if !s.Contains(10, 20) || !s.Contains(12, 15) {
		t.Fatal("Contains false negative")
	}
	if s.Contains(15, 35) || s.Contains(5, 12) || s.Contains(25, 28) {
		t.Fatal("Contains false positive")
	}
	if !s.Contains(7, 7) {
		t.Fatal("empty range must be contained")
	}
	if got := s.Overlap(15, 35); got != 10 { // 5 from [10,20) + 5 from [30,40)
		t.Fatalf("Overlap = %d", got)
	}
	if got := s.Overlap(0, 100); got != 20 {
		t.Fatalf("Overlap all = %d", got)
	}
	if got := s.Overlap(20, 30); got != 0 {
		t.Fatalf("Overlap gap = %d", got)
	}
}

func TestIntervalSetEmptyRange(t *testing.T) {
	var s IntervalSet
	if s.Add(5, 5) != 0 || s.Add(10, 3) != 0 || s.Count() != 0 {
		t.Fatal("degenerate ranges must be no-ops")
	}
}

// Property: IntervalSet.Total matches a bitmap reference for random adds,
// and the sum of returned "added" values equals the total.
func TestIntervalSetQuickMatchesBitmap(t *testing.T) {
	type rng struct{ Start, Len uint16 }
	check := func(ranges []rng) bool {
		const limit = 1 << 17
		var s IntervalSet
		bitmap := make([]bool, limit)
		var addedSum int64
		for _, r := range ranges {
			start := int64(r.Start)
			end := start + int64(r.Len%2048)
			addedSum += s.Add(start, end)
			for i := start; i < end; i++ {
				bitmap[i] = true
			}
		}
		var want int64
		for _, b := range bitmap {
			if b {
				want++
			}
		}
		return s.Total() == want && addedSum == want
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: intervals remain sorted, disjoint and non-adjacent.
func TestIntervalSetQuickInvariants(t *testing.T) {
	rnd := rand.New(rand.NewSource(99))
	var s IntervalSet
	for i := 0; i < 2000; i++ {
		start := rnd.Int63n(1 << 20)
		s.Add(start, start+rnd.Int63n(4096)+1)
		if i%97 == 0 {
			prevEnd := int64(-1)
			ok := true
			s.Each(func(a, b int64) {
				if a >= b || a <= prevEnd {
					ok = false
				}
				prevEnd = b
			})
			if !ok {
				t.Fatalf("invariant violated after %d adds", i+1)
			}
		}
	}
}

func TestAnalyzeWorkingSet(t *testing.T) {
	tr := &Trace{}
	tr.Append(Record{Op: OpRead, Offset: 0, Length: 100})
	tr.Append(Record{Op: OpRead, Offset: 50, Length: 100}) // 50 new
	tr.Append(Record{Op: OpRead, Offset: 0, Length: 10})   // re-read
	tr.Append(Record{Op: OpWrite, Offset: 1000, Length: 10})
	tr.Append(Record{Op: OpFlush})
	ws := Analyze(tr)
	if ws.UniqueReadBytes != 150 {
		t.Fatalf("unique reads = %d", ws.UniqueReadBytes)
	}
	if ws.TotalReadBytes != 210 {
		t.Fatalf("total reads = %d", ws.TotalReadBytes)
	}
	if ws.ReadOps != 3 || ws.WriteOps != 1 || ws.FlushOps != 1 {
		t.Fatalf("ops: %+v", ws)
	}
	if ws.UniqueWriteBytes != 10 || ws.ReadIntervals != 1 {
		t.Fatalf("writes/intervals: %+v", ws)
	}
}

func TestTraceSaveLoadRoundTrip(t *testing.T) {
	tr := &Trace{}
	rnd := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		tr.Append(Record{
			When:   time.Duration(i) * time.Millisecond,
			Op:     Op(rnd.Intn(3)),
			Offset: rnd.Int63n(1 << 30),
			Length: rnd.Int63n(1 << 16),
		})
	}
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != tr.Len() {
		t.Fatalf("len = %d, want %d", got.Len(), tr.Len())
	}
	for i := range tr.Records {
		if got.Records[i] != tr.Records[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got.Records[i], tr.Records[i])
		}
	}
}

func TestTraceLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a trace file!!"))); err == nil {
		t.Fatal("Load accepted garbage")
	}
	if _, err := Load(bytes.NewReader(nil)); err == nil {
		t.Fatal("Load accepted empty input")
	}
}

func TestRecorderRunningWorkingSet(t *testing.T) {
	r := NewRecorder()
	r.Read(0, 1000)
	r.Read(500, 1000) // 500 new
	r.Write(4096, 512)
	r.Flush()
	ws := r.WorkingSet()
	if ws.UniqueReadBytes != 1500 || ws.TotalReadBytes != 2000 {
		t.Fatalf("ws = %+v", ws)
	}
	if ws.ReadOps != 2 || ws.WriteOps != 1 || ws.FlushOps != 1 {
		t.Fatalf("ws ops = %+v", ws)
	}
	tr := r.Trace()
	if tr.Len() != 4 {
		t.Fatalf("trace len = %d", tr.Len())
	}
	if tr.Records[1].When < tr.Records[0].When {
		t.Fatalf("timestamps run backwards: %v then %v", tr.Records[0].When, tr.Records[1].When)
	}
}

func TestRecorderWithoutRecords(t *testing.T) {
	r := NewRecorder()
	r.KeepRecords = false
	for i := 0; i < 100; i++ {
		r.Read(int64(i)*100, 100)
	}
	if r.Trace().Len() != 0 {
		t.Fatal("records retained despite KeepRecords=false")
	}
	if r.WorkingSet().UniqueReadBytes != 10000 {
		t.Fatalf("unique = %d", r.WorkingSet().UniqueReadBytes)
	}
}

func TestOpString(t *testing.T) {
	if OpRead.String() != "read" || OpWrite.String() != "write" || OpFlush.String() != "flush" {
		t.Fatal("op names")
	}
	if Op(9).String() != "op(9)" {
		t.Fatal("unknown op name")
	}
}
