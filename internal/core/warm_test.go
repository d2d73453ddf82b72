package core

import (
	"bytes"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"vmicache/internal/backend"
)

// TestWarmWindowsPopulateCache warms a cache with overlapping spans while guest
// readers race it and checks the properties that make Warm safe to run
// beside a boot: content stays exact for the warm and for the readers, the
// fill singleflight keeps base traffic at one pass although the plan asks
// for two, and a later read is served from the cache alone.
func TestWarmWindowsPopulateCache(t *testing.T) {
	const size = 4 * mb
	env := newTestEnv(t, size)
	base := Locator{Store: "nfs", Name: "base.img"}
	cache := Locator{Store: "disk", Name: "pwarm.cache"}
	if err := CreateCache(env.ns, cache, base, env.size, 8*size, 9); err != nil {
		t.Fatal(err)
	}
	var counters backend.Counters
	c, err := OpenChain(env.ns, cache, ChainOpts{
		WrapFile: func(loc Locator, f backend.File, depth int) backend.File {
			if loc.Name == "base.img" {
				return backend.NewCountingFile(f, &counters)
			}
			return f
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close() //nolint:errcheck // test teardown

	// Two full passes in odd-sized spans: every byte is requested twice,
	// over two plan windows.
	var spans []Span
	for pass := 0; pass < 2; pass++ {
		for off := int64(0); off < size; off += 300 << 10 {
			spans = append(spans, Span{Off: off, Len: min(300<<10, size-off)})
		}
	}
	var want int64
	for _, s := range spans {
		want += s.Len
	}
	counters.Reset() // drop chain-open metadata traffic

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 4)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			buf := make([]byte, 64<<10)
			for {
				select {
				case <-stop:
					return
				default:
				}
				n := 1 + rng.Int63n(int64(len(buf)))
				off := rng.Int63n(size - n)
				if err := backend.ReadFull(c, buf[:n], off); err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(buf[:n], env.pattern[off:off+n]) {
					errs <- errDiverged
					return
				}
			}
		}(int64(r))
	}
	n, err := Warm(c, spans)
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("racing reader: %v", err)
	}
	if err != nil {
		t.Fatal(err)
	}
	if n != want {
		t.Fatalf("warmed %d bytes, want %d", n, want)
	}
	// The cache admits each cluster once, so base data traffic stays one
	// pass despite the double plan and the readers (plus a little of the
	// base's own L2 metadata read on demand).
	if got := counters.ReadBytes.Load(); got > size+(512<<10) {
		t.Fatalf("base traffic %d for a %d image: duplicate fetches under a racing warm", got, size)
	}

	out := make([]byte, size)
	if err := backend.ReadFull(c, out, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, env.pattern) {
		t.Fatal("warmed chain diverges from reference")
	}
	counters.Reset()
	if err := backend.ReadFull(c, out[:mb], 0); err != nil {
		t.Fatal(err)
	}
	if counters.ReadBytes.Load() != 0 {
		t.Fatalf("warm read still pulled %d bytes from base", counters.ReadBytes.Load())
	}
}

// errDiverged reports a racing reader served wrong bytes.
var errDiverged = errors.New("racing read diverges from reference")

// TestWarmSerialFallback: a chain whose top is not a cache reads every span
// through the chain, and the cache below fills by copy-on-read as a boot's
// reads would fill it.
func TestWarmSerialFallback(t *testing.T) {
	env := newTestEnv(t, mb)
	base := Locator{Store: "nfs", Name: "base.img"}
	cache := Locator{Store: "disk", Name: "s.cache"}
	cow := Locator{Store: "disk", Name: "s.cow"}
	if err := CreateCache(env.ns, cache, base, env.size, 4*mb, 9); err != nil {
		t.Fatal(err)
	}
	if err := CreateCoW(env.ns, cow, cache, env.size, 0); err != nil {
		t.Fatal(err)
	}
	c, err := OpenChain(env.ns, cow, ChainOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close() //nolint:errcheck // test teardown
	n, err := Warm(c, []Span{{0, 4096}, {8192, 512}})
	if err != nil {
		t.Fatal(err)
	}
	if n != 4096+512 {
		t.Fatalf("warmed %d", n)
	}
	if fills := c.CacheImage().Stats().CacheFillOps.Load(); fills != 9 {
		t.Fatalf("%d cache clusters filled through the CoW top, want 9", fills)
	}
}

// TestWarmPropagatesErrors surfaces a span past the end and a failing base
// read instead of hanging, and a failed window leaves no claim behind: the
// chain serves the same range once the fault clears.
func TestWarmPropagatesErrors(t *testing.T) {
	env := newTestEnv(t, mb)
	base := Locator{Store: "nfs", Name: "base.img"}
	cache := Locator{Store: "disk", Name: "e.cache"}
	if err := CreateCache(env.ns, cache, base, env.size, 4*mb, 9); err != nil {
		t.Fatal(err)
	}
	var faulty *backend.FaultyFile
	c, err := OpenChain(env.ns, cache, ChainOpts{
		WrapFile: func(loc Locator, f backend.File, depth int) backend.File {
			if loc.Name == "base.img" {
				faulty = backend.NewFaultyFile(f)
				return faulty
			}
			return f
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()                                    //nolint:errcheck // test teardown
	spans := []Span{{0, 4096}, {env.size - 512, 4096}} // second span runs past EOF
	if _, err := Warm(c, spans); err == nil {
		t.Fatal("out-of-range span warmed without error")
	}

	faulty.FailReadAfter(0)
	if _, err := Warm(c, []Span{{64 << 10, 256 << 10}}); err == nil {
		t.Fatal("failing base read warmed without error")
	}
	faulty.FailReadAfter(-1)
	got := make([]byte, 256<<10)
	if err := backend.ReadFull(c, got, 64<<10); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, env.pattern[64<<10:320<<10]) {
		t.Fatal("read after a failed warm diverges from reference")
	}
}
