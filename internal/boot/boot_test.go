package boot

import (
	"bytes"
	"math"
	"testing"
	"time"

	"vmicache/internal/backend"
	"vmicache/internal/qcow"
	"vmicache/internal/trace"
)

func TestProfilesMatchTable1(t *testing.T) {
	// Table 1: CentOS 85.2 MB, Debian 24.9 MB, Windows 195.8 MB.
	cases := []struct {
		p    Profile
		want int64
	}{
		{CentOS, 85_200_000},
		{Debian, 24_900_000},
		{WindowsServer, 195_800_000},
	}
	for _, c := range cases {
		if c.p.UniqueReadBytes != c.want {
			t.Errorf("%s working set = %d, want %d", c.p.Name, c.p.UniqueReadBytes, c.want)
		}
		if c.p.ImageSize < 20*c.p.UniqueReadBytes {
			t.Errorf("%s image not multi-GB relative to working set", c.p.Name)
		}
	}
}

func TestProfileByName(t *testing.T) {
	for _, name := range []string{"centos", "debian", "windows", "CentOS 6.3"} {
		if _, err := ProfileByName(name); err != nil {
			t.Errorf("ProfileByName(%q): %v", name, err)
		}
	}
	if _, err := ProfileByName("plan9"); err == nil {
		t.Error("unknown profile resolved")
	}
}

func TestGenerateHitsWorkingSetExactly(t *testing.T) {
	for _, p := range []Profile{CentOS.Scale(0.02), Debian.Scale(0.05)} {
		w := Generate(p)
		if got := w.UniqueReadBytes(); got < p.UniqueReadBytes || got >= p.UniqueReadBytes+512 {
			t.Errorf("%s: unique = %d, want within one sector above %d", p.Name, got, p.UniqueReadBytes)
		}
		if w.TotalReadBytes() < w.UniqueReadBytes() {
			t.Errorf("%s: total < unique", p.Name)
		}
		// Re-reads exist but stay a small fraction.
		extra := float64(w.TotalReadBytes()-w.UniqueReadBytes()) / float64(w.UniqueReadBytes())
		if extra > 3*p.RereadFraction+0.05 {
			t.Errorf("%s: reread inflation %.2f", p.Name, extra)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p := CentOS.Scale(0.01)
	a, b := Generate(p), Generate(p)
	if len(a.Ops) != len(b.Ops) {
		t.Fatalf("op counts differ: %d vs %d", len(a.Ops), len(b.Ops))
	}
	for i := range a.Ops {
		if a.Ops[i] != b.Ops[i] {
			t.Fatalf("op %d differs: %+v vs %+v", i, a.Ops[i], b.Ops[i])
		}
	}
}

func TestGenerateOpsInBounds(t *testing.T) {
	p := WindowsServer.Scale(0.01)
	w := Generate(p)
	var writes, flushes int
	for i, op := range w.Ops {
		if op.Kind == Flush {
			flushes++
			continue
		}
		if op.Off < 0 || op.Len <= 0 || op.Off+op.Len > p.ImageSize {
			t.Fatalf("op %d out of bounds: %+v (image %d)", i, op, p.ImageSize)
		}
		if op.Off%512 != 0 || op.Len%512 != 0 {
			t.Fatalf("op %d not sector aligned: %+v", i, op)
		}
		if op.Kind == Write {
			writes++
		}
	}
	if writes == 0 || flushes == 0 {
		t.Fatalf("missing writes (%d) or flushes (%d)", writes, flushes)
	}
	if got := totalWriteBytes(w); got < p.WriteBytes || got >= p.WriteBytes+512 {
		t.Fatalf("write volume = %d, want within one sector above %d", got, p.WriteBytes)
	}
}

func TestThinkBudgetMatchesProfile(t *testing.T) {
	p := CentOS.Scale(0.05)
	w := Generate(p)
	want := time.Duration(float64(p.UncontendedBoot) * (1 - p.ReadWaitFraction))
	got := totalThink(w)
	if math.Abs(float64(got-want)) > float64(want)/100 {
		t.Fatalf("think budget = %v, want ~%v", got, want)
	}
}

func TestScalePreservesShape(t *testing.T) {
	s := CentOS.Scale(0.1)
	if s.UniqueReadBytes <= 0 || s.UniqueReadBytes >= CentOS.UniqueReadBytes {
		t.Fatalf("scaled WS = %d", s.UniqueReadBytes)
	}
	ratio := float64(CentOS.ImageSize) / float64(CentOS.UniqueReadBytes)
	sratio := float64(s.ImageSize) / float64(s.UniqueReadBytes)
	if math.Abs(ratio-sratio)/ratio > 0.25 {
		t.Fatalf("image/WS ratio drifted: %.1f vs %.1f", ratio, sratio)
	}
	if s.ReadWaitFraction != CentOS.ReadWaitFraction {
		t.Fatal("fractions must not scale")
	}
	if same := CentOS.Scale(0); same.Name != CentOS.Name {
		t.Fatal("Scale(0) must be identity")
	}
}

func TestReadSpansCoverUniqueSet(t *testing.T) {
	p := Debian.Scale(0.05)
	w := Generate(p)
	var set trace.IntervalSet
	for _, s := range w.ReadSpans() {
		set.Add(s.Off, s.Off+s.Len)
	}
	if set.Total() != w.UniqueReadBytes() {
		t.Fatalf("span union = %d, want %d", set.Total(), w.UniqueReadBytes())
	}
}

func TestPatternSourceDeterministicAndAligned(t *testing.T) {
	s := PatternSource{Seed: 42, N: 1 << 20}
	a := make([]byte, 1000)
	b := make([]byte, 1000)
	if _, err := s.ReadAt(a, 333); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReadAt(b, 333); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("pattern not deterministic")
	}
	// Unaligned reads must agree with aligned reads byte-for-byte.
	wide := make([]byte, 1010)
	if _, err := s.ReadAt(wide, 330); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wide[3:1003], a) {
		t.Fatal("pattern alignment-dependent")
	}
	// EOF semantics.
	n, err := s.ReadAt(make([]byte, 100), s.N-10)
	if n != 10 || err == nil {
		t.Fatalf("eof read: n=%d err=%v", n, err)
	}
	if got := s.At(500, 20); !bytes.Equal(got, wide[170:190]) {
		t.Fatal("At() disagrees with ReadAt")
	}
}

func TestReplayAgainstChainVerified(t *testing.T) {
	// End-to-end: generate a scaled CentOS boot, replay it against a
	// real base<-cache<-CoW chain with content verification, then check
	// the recorded working set matches the workload.
	p := CentOS.Scale(0.01)
	src := PatternSource{Seed: 7, N: p.ImageSize}

	baseF := backend.NewMemFile()
	base, err := qcow.Create(baseF, qcow.CreateOpts{Size: p.ImageSize, ClusterBits: 16})
	if err != nil {
		t.Fatal(err)
	}
	base.SetBacking(qcow.RawSource{R: src, N: p.ImageSize})

	cacheF := backend.NewMemFile()
	cache, err := qcow.Create(cacheF, qcow.CreateOpts{
		Size: p.ImageSize, ClusterBits: 9, BackingFile: "base", CacheQuota: p.ImageSize,
	})
	if err != nil {
		t.Fatal(err)
	}
	cache.SetBacking(base)

	cowF := backend.NewMemFile()
	cow, err := qcow.Create(cowF, qcow.CreateOpts{
		Size: p.ImageSize, ClusterBits: 16, BackingFile: "cache",
	})
	if err != nil {
		t.Fatal(err)
	}
	cow.SetBacking(cache)

	// Verify reads against the pattern oracle, but only for ranges the
	// guest never overwrites during this boot.
	var written trace.IntervalSet
	for _, op := range Generate(p).Ops {
		if op.Kind == Write {
			written.Add(op.Off, op.Off+op.Len)
		}
	}
	w := Generate(p)
	rec := trace.NewRecorder()
	_, err = Replay(w, cow, ReplayOpts{
		Recorder: rec,
		Verify: func(off, n int64) []byte {
			if written.Overlap(off, off+n) > 0 {
				return nil // mixed guest/base content; skip
			}
			return src.At(off, n)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ws := rec.WorkingSet()
	if ws.UniqueReadBytes != w.UniqueReadBytes() {
		t.Fatalf("recorded unique = %d, want %d", ws.UniqueReadBytes, w.UniqueReadBytes())
	}
	if cache.Stats().CacheFillOps.Load() == 0 {
		t.Fatal("boot did not warm the cache")
	}
	// Guest writes must have landed in the CoW image, not the cache.
	if cow.Stats().GuestWriteBytes.Load() != totalWriteBytes(w) {
		t.Fatalf("cow writes = %d, want %d", cow.Stats().GuestWriteBytes.Load(), totalWriteBytes(w))
	}

	// Second replay over the warm cache: zero traffic from base.
	base.Stats().GuestReadBytes.Store(0)
	cow2F := backend.NewMemFile()
	cow2, err := qcow.Create(cow2F, qcow.CreateOpts{
		Size: p.ImageSize, ClusterBits: 16, BackingFile: "cache",
	})
	if err != nil {
		t.Fatal(err)
	}
	cow2.SetBacking(cache)
	if _, err := Replay(w, cow2, ReplayOpts{}); err != nil {
		t.Fatal(err)
	}
	if got := base.Stats().GuestReadBytes.Load(); got != 0 {
		t.Fatalf("warm replay pulled %d bytes from base", got)
	}
}

func TestReplayVerifyCatchesCorruption(t *testing.T) {
	p := Debian.Scale(0.01)
	// Replay against a device returning wrong content.
	devF := backend.NewMemFile()
	dev, err := qcow.Create(devF, qcow.CreateOpts{Size: p.ImageSize, ClusterBits: 16})
	if err != nil {
		t.Fatal(err)
	}
	// Device reads zeros; oracle expects a nonzero pattern -> must fail.
	src := PatternSource{Seed: 9, N: p.ImageSize}
	w := Generate(p)
	_, err = Replay(w, dev, ReplayOpts{Verify: src.At})
	if err == nil {
		t.Fatal("verification passed against corrupted device")
	}
}

func TestReplayThinkScaleSleeps(t *testing.T) {
	p := Profile{
		Name: "tiny", ImageSize: 1 << 20, UniqueReadBytes: 64 << 10,
		UncontendedBoot: 200 * time.Millisecond, ReadWaitFraction: 0.2,
		MeanReadSize: 16 << 10, SeqRunFraction: 0.5, Seed: 1,
	}
	w := Generate(p)
	dev := backend.NewMemFileSize(p.ImageSize)
	start := time.Now()
	if _, err := Replay(w, memDevice{dev}, ReplayOpts{ThinkScale: 0.25}); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	wantMin := time.Duration(0.25 * float64(totalThink(w)) * 0.8)
	if elapsed < wantMin {
		t.Fatalf("replay too fast: %v < %v (think not honoured)", elapsed, wantMin)
	}
}

// memDevice adapts a MemFile to Device (MemFile already has ReadAt/WriteAt).
type memDevice struct{ *backend.MemFile }

func TestReplayTraceRoundTrip(t *testing.T) {
	// Record a generated boot, then replay the RECORDING against a fresh
	// chain: working sets must match exactly.
	p := Debian.Scale(0.02)
	src := PatternSource{Seed: 21, N: p.ImageSize}
	mkChain := func() *qcow.Image {
		base, err := qcow.Create(backend.NewMemFile(), qcow.CreateOpts{Size: p.ImageSize, ClusterBits: 16})
		if err != nil {
			t.Fatal(err)
		}
		base.SetBacking(qcow.RawSource{R: src, N: p.ImageSize})
		cow, err := qcow.Create(backend.NewMemFile(), qcow.CreateOpts{Size: p.ImageSize, ClusterBits: 16, BackingFile: "b"})
		if err != nil {
			t.Fatal(err)
		}
		cow.SetBacking(base)
		return cow
	}

	w := Generate(p)
	rec := trace.NewRecorder()
	if _, err := Replay(w, mkChain(), ReplayOpts{Recorder: rec}); err != nil {
		t.Fatal(err)
	}

	rec2 := trace.NewRecorder()
	res, err := ReplayTrace(rec.Trace(), mkChain(), ReplayOpts{Recorder: rec2})
	if err != nil {
		t.Fatal(err)
	}
	if res.ReadBytes != w.TotalReadBytes() {
		t.Fatalf("trace replay read %d, want %d", res.ReadBytes, w.TotalReadBytes())
	}
	if rec2.WorkingSet().UniqueReadBytes != rec.WorkingSet().UniqueReadBytes {
		t.Fatalf("working sets differ: %d vs %d",
			rec2.WorkingSet().UniqueReadBytes, rec.WorkingSet().UniqueReadBytes)
	}
	if res.FlushOps != int64(rec.WorkingSet().FlushOps) {
		t.Fatalf("flushes: %d vs %d", res.FlushOps, rec.WorkingSet().FlushOps)
	}
}

// totalWriteBytes sums the workload's guest write volume.
func totalWriteBytes(w *Workload) int64 {
	var n int64
	for _, op := range w.Ops {
		if op.Kind == Write {
			n += op.Len
		}
	}
	return n
}

// totalThink sums the workload's think time (guest CPU model).
func totalThink(w *Workload) time.Duration {
	var d time.Duration
	for _, op := range w.Ops {
		d += op.Think
	}
	return d
}
