package qcow

import (
	"bytes"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"vmicache/internal/backend"
)

// newFillCache creates a cache over a memory container backed by src.
func newFillCache(t *testing.T, size int64, cb int, quota int64, src BlockSource) (*Image, *backend.MemFile) {
	t.Helper()
	mem := backend.NewMemFile()
	img, err := Create(backend.NopClose(mem), CreateOpts{
		Size: size, ClusterBits: cb, BackingFile: "b", CacheQuota: quota,
	})
	if err != nil {
		t.Fatal(err)
	}
	img.SetBacking(src)
	return img, mem
}

// randomPlan draws n spans over [0, size): overlapping, adjacent, unaligned,
// and some ending at the virtual size (a partial last cluster).
func randomPlan(rng *rand.Rand, size int64, n int) []Span {
	var plan []Span
	for i := 0; i < n; i++ {
		var s Span
		switch prev := len(plan) - 1; {
		case prev >= 0 && rng.Intn(4) == 0: // adjacent
			s.Off = plan[prev].Off + plan[prev].Len
		case prev >= 0 && rng.Intn(4) == 0: // overlapping
			s.Off = plan[prev].Off + plan[prev].Len/2
		case rng.Intn(8) == 0: // up to the end
			s.Off = size - 1 - rng.Int63n(20<<10)
		default:
			s.Off = rng.Int63n(size)
		}
		s.Len = 1 + rng.Int63n(48<<10)
		if s.Off >= size {
			s.Off = size - 1
		}
		s.Len = min(s.Len, size-s.Off)
		plan = append(plan, s)
	}
	return plan
}

// warmSerial replays the plan as guest reads.
func warmSerial(t *testing.T, img *Image, plan []Span) {
	t.Helper()
	for _, s := range plan {
		if err := backend.ReadFull(img, make([]byte, s.Len), s.Off); err != nil {
			t.Fatal(err)
		}
	}
}

// warmWindows fills the plan in windows of whole spans that close once they
// hold win bytes, as core.Warm does, and reads back what each window did not
// land.
func warmWindows(t *testing.T, img *Image, plan []Span, win int64) {
	t.Helper()
	for len(plan) > 0 {
		n, pending := 0, int64(0)
		for n < len(plan) && pending < win {
			pending += plan[n].Len
			n++
		}
		rest, err := img.FillSpans(plan[:n])
		if err != nil {
			t.Fatal(err)
		}
		warmSerial(t, img, rest)
		plan = plan[n:]
	}
}

// planBytes is the backing bytes a plan fetches when every cluster under it
// is fetched exactly once.
func planBytes(plan []Span, size int64, cb uint) int64 {
	seen := map[int64]bool{}
	var n int64
	cs := int64(1) << cb
	for _, s := range plan {
		for c := s.Off >> cb; c<<cb < s.Off+s.Len; c++ {
			if !seen[c] {
				seen[c] = true
				n += min(cs, size-c*cs)
			}
		}
	}
	return n
}

// allocMap is the image's per-cluster allocation picture.
func allocMap(t *testing.T, img *Image) []bool {
	t.Helper()
	var m []bool
	for off := int64(0); off < img.Size(); off += img.ClusterSize() {
		a, err := img.Allocated(off)
		if err != nil {
			t.Fatal(err)
		}
		m = append(m, a)
	}
	return m
}

// verifyFilled closes img, reopens its container read-only over src, and
// checks that it is consistent and every guest byte equals the source.
func verifyFilled(t *testing.T, img *Image, mem *backend.MemFile, src BlockSource) {
	t.Helper()
	if err := img.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenVerified(backend.NopClose(mem), OpenOpts{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close() //nolint:errcheck // read-only
	re.SetBacking(src)
	got, want := make([]byte, re.Size()), make([]byte, re.Size())
	src.ReadAt(want, 0) //nolint:errcheck // cannot fail
	if err := backend.ReadFull(re, got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("a filled cluster does not hold base content")
	}
}

// TestFillSpansMatchesSerial fills random plans window by window and read by
// read: the same clusters land, every guest byte equals the base, Check is
// clean, the two containers are byte for byte equal, and the backing
// delivers each planned cluster once — so a window fill fetches exactly the
// plan's bytes. With a quota that the plan overruns, both land the same
// clusters, trip the space error once, and fetch the same bytes (read-back
// spans pass through as serial reads do).
func TestFillSpansMatchesSerial(t *testing.T) {
	const size = 1<<20 + 300 // partial last cluster
	src := patSource{n: size}
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		plan := randomPlan(rng, size, 20+rng.Intn(60))
		win := int64(16<<10) << rng.Intn(8)
		quota := 4 * int64(size)
		limited := seed%3 == 2
		if limited {
			quota = MinCacheQuota(size, 9) + (planBytes(plan, size, 9)/2)&^511
		}
		serial, smem := newFillCache(t, size, 9, quota, src)
		warmSerial(t, serial, plan)
		window, wmem := newFillCache(t, size, 9, quota, src)
		warmWindows(t, window, plan, win)

		ss, ws := serial.Stats(), window.Stats()
		if got, want := ws.BackingBytes.Load(), ss.BackingBytes.Load(); got != want {
			t.Fatalf("seed %d: window fill fetched %d backing bytes, serial %d", seed, got, want)
		}
		if !limited {
			if got, want := ws.BackingBytes.Load(), planBytes(plan, size, 9); got != want {
				t.Fatalf("seed %d: window fill fetched %d backing bytes for a %d-byte plan", seed, got, want)
			}
		}
		if got, want := ws.CacheFullEvents.Load(), ss.CacheFullEvents.Load(); got != want || limited != (got == 1) {
			t.Fatalf("seed %d: %d space errors in windows, %d serial (quota-limited: %v)", seed, got, want, limited)
		}
		if got, want := ws.CacheFillOps.Load(), ss.CacheFillOps.Load(); got != want {
			t.Fatalf("seed %d: window filled %d clusters, serial %d", seed, got, want)
		}
		sm, wm := allocMap(t, serial), allocMap(t, window)
		for c := range sm {
			if sm[c] != wm[c] {
				t.Fatalf("seed %d: cluster %d allocated %v in windows, %v serial", seed, c, wm[c], sm[c])
			}
		}
		if serial.UsedBytes() != window.UsedBytes() {
			t.Fatalf("seed %d: window fill used %d bytes, serial %d", seed, window.UsedBytes(), serial.UsedBytes())
		}
		verifyFilled(t, serial, smem, src)
		verifyFilled(t, window, wmem, src)
		if !bytes.Equal(containerBytes(t, smem), containerBytes(t, wmem)) {
			t.Fatalf("seed %d: the window fill's container differs from the serial fill's", seed)
		}
	}
}

// containerBytes returns a memory container's contents.
func containerBytes(t *testing.T, mem *backend.MemFile) []byte {
	t.Helper()
	n, err := mem.Size()
	if err != nil {
		t.Fatal(err)
	}
	b := make([]byte, n)
	if err := backend.ReadFull(mem, b, 0); err != nil {
		t.Fatal(err)
	}
	return b
}

// gatedSource is a backing whose reads block until the gate opens, signalling
// the first read that arrived.
type gatedSource struct {
	patSource
	arrived chan struct{}
	gate    chan struct{}
	once    sync.Once
}

func (g *gatedSource) ReadAt(p []byte, off int64) (int, error) {
	g.once.Do(func() { close(g.arrived) })
	<-g.gate
	return g.patSource.ReadAt(p, off)
}

// TestFillSpansRacingReaders: guest readers that miss on clusters a window
// fill has claimed wait on the claims instead of fetching, and are served the
// right bytes from the window's buffer; the backing delivers each planned
// cluster once.
func TestFillSpansRacingReaders(t *testing.T) {
	const size = 2 << 20
	src := &gatedSource{patSource: patSource{n: size}, arrived: make(chan struct{}), gate: make(chan struct{})}
	img, mem := newFillCache(t, size, 9, 4*size, src)
	plan := []Span{{0, 256 << 10}, {1 << 20, 300 << 10}, {600 << 10, 100}}

	done := make(chan error, 1)
	go func() {
		rest, err := img.FillSpans(plan)
		if err == nil && len(rest) > 0 {
			t.Errorf("window fill left %d spans unlanded", len(rest))
		}
		done <- err
	}()
	<-src.arrived // the window holds its claims and is fetching

	reads := []Span{{100, 4096}, {200 << 10, 56 << 10}, {1<<20 + 512, 64 << 10}, {600 << 10, 1}}
	var wg sync.WaitGroup
	errs := make(chan error, len(reads))
	for _, r := range reads {
		wg.Add(1)
		go func(r Span) {
			defer wg.Done()
			got, want := make([]byte, r.Len), make([]byte, r.Len)
			src.patSource.ReadAt(want, r.Off) //nolint:errcheck // cannot fail
			if err := backend.ReadFull(img, got, r.Off); err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(got, want) {
				t.Errorf("racing read %d+%d served wrong bytes", r.Off, r.Len)
			}
		}(r)
	}
	for img.Stats().FillWaits.Load() < int64(len(reads)) {
		select {
		case err := <-errs:
			t.Fatal(err)
		default:
		}
		runtime.Gosched()
	}
	close(src.gate)
	wg.Wait()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got, want := img.Stats().BackingBytes.Load(), planBytes(plan, size, 9); got != want {
		t.Fatalf("backing delivered %d bytes for a %d-byte plan: racing readers fetched again", got, want)
	}
	verifyFilled(t, img, mem, src.patSource)
}

// TestReadBatchMatchesReadAt: a batched read serves each range exactly as
// ReadAt does over raw, zero and backing-deferred extents — of a CoW image
// over a base and of the base itself — and a range past the virtual size
// fails; RawSource pads past its end with zeros.
func TestReadBatchMatchesReadAt(t *testing.T) {
	const size = 1<<20 + 4096
	base, err := Create(backend.NewMemFile(), CreateOpts{Size: size, ClusterBits: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer base.Close() //nolint:errcheck // test teardown
	pat := make([]byte, size)
	patSource{n: size}.ReadAt(pat, 0)                            //nolint:errcheck // cannot fail
	for _, off := range []int64{0, 3 << 16, 4 << 16, 10 << 16} { // clusters 5..9 stay zero
		if _, err := base.WriteAt(pat[off:off+1<<16], off); err != nil {
			t.Fatal(err)
		}
	}
	cow, err := Create(backend.NewMemFile(), CreateOpts{Size: size, ClusterBits: 12, BackingFile: "b"})
	if err != nil {
		t.Fatal(err)
	}
	defer cow.Close() //nolint:errcheck // test teardown
	cow.SetBacking(base)
	if _, err := cow.WriteAt(bytes.Repeat([]byte{7}, 8192), 3<<16+100*4096); err != nil {
		t.Fatal(err)
	}
	ranges := [][2]int64{{0, 100}, {3<<16 - 10, 2<<16 + 20}, {5 << 16, 4096}, {3<<16 + 99*4096, 4 * 4096}, {size - 5000, 5000}}
	for _, src := range []BlockSource{base, cow} {
		rs := make([]backend.Range, len(ranges))
		for i, r := range ranges {
			rs[i] = backend.Range{P: make([]byte, r[1]), Off: r[0]}
		}
		if err := backend.ReadBatch(src, rs); err != nil {
			t.Fatal(err)
		}
		for _, r := range rs {
			want := make([]byte, len(r.P))
			if err := backend.ReadFull(src, want, r.Off); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(r.P, want) {
				t.Fatalf("batched range %d+%d differs from ReadAt", r.Off, len(r.P))
			}
		}
		past := []backend.Range{{P: make([]byte, 10), Off: size - 5}}
		if err := backend.ReadBatch(src, past); err == nil {
			t.Fatal("a range past the virtual size read without error")
		}
	}

	raw := RawSource{R: backend.NewMemFileSize(100), N: 100}
	p := bytes.Repeat([]byte{1}, 50)
	if err := raw.ReadBatch([]backend.Range{{P: p, Off: 80}}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p, make([]byte, 50)) {
		t.Fatal("RawSource batch did not zero-fill past its end")
	}
}
