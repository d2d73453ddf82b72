package dedup

import (
	"bytes"
	"compress/flate"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"
	"sync"
	"testing"

	"vmicache/internal/backend"
)

// memImage loads data into a mem file for ReaderAt-based building.
func memImage(t testing.TB, data []byte) backend.File {
	t.Helper()
	f := backend.NewMemFileSize(int64(len(data)))
	if len(data) > 0 {
		if err := backend.WriteFull(f, data, 0); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

// testImages returns named contents exercising the chunker edge cases:
// empty, sub-MinChunk, one-chunk, multi-chunk random with an odd tail, and
// low-entropy repetitive content that only cuts at MaxChunk.
func testImages(t testing.TB) map[string][]byte {
	t.Helper()
	rnd := rand.New(rand.NewSource(42))
	random := make([]byte, 1<<20+12345)
	rnd.Read(random)
	tiny := make([]byte, MinChunk/2)
	rnd.Read(tiny)
	one := make([]byte, MinChunk+100)
	rnd.Read(one)
	return map[string][]byte{
		"empty":      nil,
		"tiny":       tiny,
		"one-chunk":  one,
		"random":     random,
		"repetitive": bytes.Repeat([]byte{0xAB}, 3*MaxChunk+777),
	}
}

// TestBuildParallelByteIdentical is the core ordering guarantee: the
// manifest a parallel build produces — entries, order, length, whole-image
// checksum, and thus the encoded bytes — must equal the serial reference at
// every worker count, and emit must observe the same chunk sequence.
func TestBuildParallelByteIdentical(t *testing.T) {
	for name, data := range testImages(t) {
		t.Run(name, func(t *testing.T) {
			src := memImage(t, data)
			var refChunks [][]byte
			ref, err := Build(src, int64(len(data)), func(e Entry, raw []byte) error {
				refChunks = append(refChunks, append([]byte(nil), raw...))
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			refEnc := ref.Encode()
			for _, workers := range []int{1, 2, 3, 4, 8} {
				var gotChunks [][]byte
				m, err := BuildParallel(src, int64(len(data)), BuildOpts{Workers: workers}, func(e Entry, raw, comp []byte) error {
					gotChunks = append(gotChunks, append([]byte(nil), raw...))
					return nil
				})
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if !bytes.Equal(m.Encode(), refEnc) {
					t.Fatalf("workers=%d: manifest differs from serial build", workers)
				}
				if len(gotChunks) != len(refChunks) {
					t.Fatalf("workers=%d: %d chunks, serial emitted %d", workers, len(gotChunks), len(refChunks))
				}
				for i := range gotChunks {
					if !bytes.Equal(gotChunks[i], refChunks[i]) {
						t.Fatalf("workers=%d: chunk %d bytes differ", workers, i)
					}
				}
			}
		})
	}
}

// TestBuildParallelCompressedBlobs checks the Compress path: every emitted
// wire blob decodes back to the raw chunk, and PutBuilt accepts it.
func TestBuildParallelCompressedBlobs(t *testing.T) {
	data := testImages(t)["random"]
	src := memImage(t, data)
	s, err := OpenBlobStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var held []Key
	m, err := BuildParallel(src, int64(len(data)), BuildOpts{Workers: 4, Compress: true}, func(e Entry, raw, comp []byte) error {
		dec, err := DecodeBlob(e.Hash, comp)
		if err != nil {
			return err
		}
		if !bytes.Equal(dec, raw) {
			return errors.New("wire blob decodes to different bytes")
		}
		if err := s.PutBuilt(e.Hash, comp, int64(e.Len)); err != nil {
			return err
		}
		held = append(held, e.Hash)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Commit("img", m); err != nil {
		t.Fatal(err)
	}
	s.Release(held)
	out := backend.NewMemFileSize(m.Length)
	if err := Materialize(out, m, s, 1); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := backend.ReadFull(out, got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("materialized bytes differ from source")
	}
}

func TestPutBuiltRejectsBadFrame(t *testing.T) {
	s, err := OpenBlobStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	raw := []byte("hello chunk")
	k := Key(sha256.Sum256(raw))
	var buf bytes.Buffer
	if err := encodeWireBlob(&buf, raw); err != nil {
		t.Fatal(err)
	}
	// Frame length disagreeing with the claimed raw length must be refused.
	if err := s.PutBuilt(k, buf.Bytes(), int64(len(raw))+1); !errors.Is(err, ErrCorruptBlob) {
		t.Fatalf("bad frame accepted: %v", err)
	}
	if err := s.PutBuilt(k, []byte{1, 2}, 2); !errors.Is(err, ErrCorruptBlob) {
		t.Fatalf("truncated frame accepted: %v", err)
	}
	if err := s.PutBuilt(k, buf.Bytes(), int64(len(raw))); err != nil {
		t.Fatal(err)
	}
	got, err := s.ReadBlob(k)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, raw) {
		t.Fatal("PutBuilt blob reads back wrong")
	}
}

// TestBuildParallelEmitError is the fault-injection case: a mid-pipeline
// failure must surface as the first error, terminate promptly (no hang, no
// goroutine leak blocking the return), and — when the emitter was landing
// blobs — leave no staged state behind after Release.
func TestBuildParallelEmitError(t *testing.T) {
	data := testImages(t)["random"]
	src := memImage(t, data)
	s, err := OpenBlobStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk full")
	var held []Key
	calls := 0
	_, err = BuildParallel(src, int64(len(data)), BuildOpts{Workers: 4, Compress: true}, func(e Entry, raw, comp []byte) error {
		calls++
		if calls == 5 {
			return boom
		}
		if err := s.PutBuilt(e.Hash, comp, int64(e.Len)); err != nil {
			return err
		}
		held = append(held, e.Hash)
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want injected failure", err)
	}
	if calls != 5 {
		t.Fatalf("emit called %d times after failure at call 5", calls)
	}
	// The failed publication releases its stage holds; with no manifest
	// committed every blob must be GC'd.
	s.Release(held)
	if st := s.Stats(); st.Blobs != 0 || st.Manifests != 0 {
		t.Fatalf("failed publish leaked state: %+v", st)
	}
}

// errReaderAt fails after limit bytes.
type errReaderAt struct {
	data  []byte
	limit int64
}

func (e *errReaderAt) ReadAt(p []byte, off int64) (int, error) {
	if off+int64(len(p)) > e.limit {
		return 0, errors.New("injected read failure")
	}
	return copy(p, e.data[off:]), nil
}

func TestBuildParallelReadError(t *testing.T) {
	data := testImages(t)["random"]
	r := &errReaderAt{data: data, limit: 512 << 10}
	_, err := BuildParallel(r, int64(len(data)), BuildOpts{Workers: 4}, nil)
	if err == nil || err.Error() != "injected read failure" {
		t.Fatalf("err = %v, want injected read failure", err)
	}
	_, err = Build(r, int64(len(data)), nil)
	if err == nil {
		t.Fatal("serial build swallowed read failure")
	}
}

// buildInto publishes data into s under name, returning the manifest.
func buildInto(t testing.TB, s *BlobStore, name string, data []byte, workers int) *Manifest {
	t.Helper()
	src := memImage(t, data)
	var held []Key
	m, err := BuildParallel(src, int64(len(data)), BuildOpts{Workers: workers, Compress: true}, func(e Entry, raw, comp []byte) error {
		if err := s.PutBuilt(e.Hash, comp, int64(e.Len)); err != nil {
			return err
		}
		held = append(held, e.Hash)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(name, m); err != nil {
		t.Fatal(err)
	}
	s.Release(held)
	return m
}

// distinctKeys lists m's chunk hashes once each, in manifest order — the
// order a delta warm requests them in.
func distinctKeys(m *Manifest) []Key {
	seen := make(map[Key]bool)
	var keys []Key
	for _, e := range m.Entries {
		if !seen[e.Hash] {
			seen[e.Hash] = true
			keys = append(keys, e.Hash)
		}
	}
	return keys
}

// streamInto materializes m into a fresh mem file from dst while a fetcher
// goroutine delivers the pending chunks out of from, and returns the image
// and the pipeline's verdict. Every delivered chunk's stage hold is released.
func streamInto(t testing.TB, m *Manifest, dst, from *BlobStore, workers int, pending []Key, budget int64) ([]byte, error) {
	t.Helper()
	out := backend.NewMemFileSize(m.Length)
	p := StartMaterialize(out, m, dst, workers, pending, budget, nil)
	for _, k := range pending {
		comp, _, err := from.ReadCompressed(k)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Deliver(k, comp); err != nil {
			p.Abort(err)
			break
		}
		defer dst.Release([]Key{k})
	}
	if _, err := p.Wait(); err != nil {
		return nil, err
	}
	got := make([]byte, m.Length)
	if err := backend.ReadFull(out, got, 0); err != nil {
		t.Fatal(err)
	}
	return got, nil
}

// TestMaterializeParallelMatchesSerial checks that the one materialize
// pipeline reproduces the image byte-for-byte and verifies the whole-image
// checksum at workers 1, 2 and 8, with nothing pending (a rehydration) and
// with everything pending (a delta warm into an empty store, every chunk
// handed over by the fetcher) — and that each chunk is inflated once either
// way.
func TestMaterializeParallelMatchesSerial(t *testing.T) {
	data := testImages(t)["random"]
	s, err := OpenBlobStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := buildInto(t, s, "img", data, 4)
	for _, workers := range []int{1, 2, 8} {
		for _, allPending := range []bool{false, true} {
			dst, pending := s, []Key(nil)
			if allPending {
				if dst, err = OpenBlobStore(t.TempDir()); err != nil {
					t.Fatal(err)
				}
				pending = distinctKeys(m)
			}
			before := dst.Stats().Decodes
			got, err := streamInto(t, m, dst, s, workers, pending, 1<<30)
			if err != nil {
				t.Fatalf("workers=%d pending=%v: %v", workers, allPending, err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("workers=%d pending=%v: materialized bytes differ", workers, allPending)
			}
			if n := dst.Stats().Decodes - before; n != int64(len(m.Entries)) {
				t.Fatalf("workers=%d pending=%v: %d decodes for %d entries", workers, allPending, n, len(m.Entries))
			}
			if st := dst.Stats(); st.Staged != 0 {
				t.Fatalf("workers=%d pending=%v: %d stage holds left", workers, allPending, st.Staged)
			}
		}
	}
}

// TestMaterializeStreamed drives the hand-off's corners through one image
// whose manifest names the same missing chunk at several offsets.
func TestMaterializeStreamed(t *testing.T) {
	block := randBytes(7, 3*MaxChunk)
	var data []byte
	for i := 0; i < 4; i++ {
		data = append(data, randBytes(int64(20+i), 200<<10)...)
		data = append(data, block...)
	}
	src, err := OpenBlobStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := buildInto(t, src, "img", data, 2)
	keys := distinctKeys(m)
	if len(keys) == len(m.Entries) {
		t.Fatal("image has no repeated chunk")
	}
	empty := func() *BlobStore {
		s, err := OpenBlobStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	// A repeated missing chunk arrives once; its first offset takes the
	// handed-over bytes, the others read the landed blob back.
	dst := empty()
	got, err := streamInto(t, m, dst, src, 2, keys, 1<<30)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("repeated chunks: err %v, equal %v", err, bytes.Equal(got, data))
	}
	if n := dst.Stats().Decodes; n != int64(len(m.Entries)) {
		t.Fatalf("%d decodes for %d chunks at %d offsets", n, len(keys), len(m.Entries))
	}

	// No budget: nothing is handed over, every chunk is verified on arrival
	// and decoded again from the store — the same image.
	dst = empty()
	got, err = streamInto(t, m, dst, src, 2, keys, 0)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("zero budget: err %v, equal %v", err, bytes.Equal(got, data))
	}
	if n := dst.Stats().Decodes; n != int64(len(keys)+len(m.Entries)) {
		t.Fatalf("zero budget: %d decodes, want %d arrivals + %d entries", n, len(keys), len(m.Entries))
	}

	// A manifest whose checksum does not describe its chunks fails at the
	// end, whoever supplied the chunks.
	lying := *m
	lying.Checksum[0] ^= 1
	if _, err := streamInto(t, &lying, empty(), src, 2, keys, 1<<30); err == nil {
		t.Fatal("lying checksum materialized")
	}

	// An entry length the chunk does not have is caught on the hand-off path
	// as it is on the decode path.
	short := *m
	short.Entries = append([]Entry(nil), m.Entries...)
	short.Entries[1].Len--
	short.Length--
	for _, budget := range []int64{1 << 30, 0} {
		if _, err := streamInto(t, &short, empty(), src, 2, keys, budget); err == nil {
			t.Fatalf("budget %d: wrong entry length materialized", budget)
		}
	}

	// Abort from the fetcher wakes a writer stalled on a chunk that will
	// never come; a corrupt arrival never lands and a late one is not kept.
	dst = empty()
	p := StartMaterialize(backend.NewMemFileSize(m.Length), m, dst, 2, keys, 1<<30, nil)
	comp, _, err := src.ReadCompressed(keys[0])
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), comp...)
	bad[len(bad)/2] ^= 0xFF
	if err := p.Deliver(keys[0], bad); !errors.Is(err, ErrCorruptBlob) {
		t.Fatalf("corrupt arrival: %v", err)
	}
	if dst.Has(keys[0]) {
		t.Fatal("corrupt arrival landed")
	}
	boom := errors.New("peer died")
	p.Abort(boom)
	if _, err := p.Wait(); !errors.Is(err, boom) {
		t.Fatalf("Wait after Abort: %v", err)
	}
	if !p.Stopped() {
		t.Fatal("aborted pipeline not stopped")
	}
	if err := p.Deliver(keys[0], comp); err != nil || !dst.Has(keys[0]) {
		t.Fatalf("late arrival: err %v, landed %v", err, dst.Has(keys[0]))
	}
	dst.Release(keys[:1])
	if st := dst.Stats(); st.Staged != 0 || st.Blobs != 0 {
		t.Fatalf("aborted warm left %d holds, %d blobs", st.Staged, st.Blobs)
	}
}

// TestMaterializeDetectsCorruption flips a byte inside one on-disk blob and
// expects both serial and parallel materialization to fail, not to write a
// silently wrong image.
func TestMaterializeDetectsCorruption(t *testing.T) {
	data := testImages(t)["random"]
	s, err := OpenBlobStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := buildInto(t, s, "img", data, 4)
	victim := m.Entries[len(m.Entries)/2].Hash
	corruptBlob(t, s, victim)
	for _, workers := range []int{1, 4} {
		out := backend.NewMemFileSize(m.Length)
		if err := Materialize(out, m, s, workers); err == nil {
			t.Fatalf("workers=%d: corrupt blob materialized without error", workers)
		}
	}
}

// TestFlushGroupCommit checks the fsync batching: landings are appends with
// no fsync, Commit makes them durable with one fsync of the pack and one of
// its directory before the manifest's own two, and a second flush is a
// no-op.
func TestFlushGroupCommit(t *testing.T) {
	s, err := OpenBlobStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	data := testImages(t)["random"]
	src := memImage(t, data)
	var held []Key
	m, err := BuildParallel(src, int64(len(data)), BuildOpts{Workers: 2, Compress: true}, func(e Entry, raw, comp []byte) error {
		if err := s.PutBuilt(e.Hash, comp, int64(e.Len)); err != nil {
			return err
		}
		held = append(held, e.Hash)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	unsynced := func() int64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		var n int64
		for _, p := range s.packs {
			n += p.size - p.synced
		}
		return n
	}
	st := s.Stats()
	if st.Syncs != 0 || st.Writes != int64(st.Blobs) || st.Blobs == 0 {
		t.Fatalf("before commit: %d fsyncs, %d writes for %d blobs", st.Syncs, st.Writes, st.Blobs)
	}
	if unsynced() != st.UniqueCompBytes {
		t.Fatalf("unsynced = %d bytes, landed %d", unsynced(), st.UniqueCompBytes)
	}
	if err := s.Commit("img", m); err != nil {
		t.Fatal(err)
	}
	s.Release(held)
	// Pack, pack directory, manifest file, manifest directory.
	if got := s.Stats().Syncs; got != 4 {
		t.Fatalf("commit of %d blobs issued %d fsyncs, want 4", st.Blobs, got)
	}
	if n := unsynced(); n != 0 {
		t.Fatalf("%d bytes still unsynced after Commit", n)
	}
	if err := s.Flush(); err != nil {
		t.Fatalf("idempotent flush: %v", err)
	}
	if got := s.Stats().Syncs; got != 4 {
		t.Fatalf("clean flush issued fsyncs: %d", got)
	}
	// Reopen: the committed image survives and materializes.
	s2, err := OpenBlobStore(s.dir)
	if err != nil {
		t.Fatal(err)
	}
	m2, ok := s2.Manifest("img")
	if !ok {
		t.Fatal("manifest lost across reopen")
	}
	out := backend.NewMemFileSize(m2.Length)
	if err := Materialize(out, m2, s2, 2); err != nil {
		t.Fatal(err)
	}
}

// TestDedupPipelineStress drives concurrent parallel builds, materializes,
// and evictions against one BlobStore — the -race workout for the stage
// holds, group-commit dirty set, and codec pools.
func TestDedupPipelineStress(t *testing.T) {
	s, err := OpenBlobStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	shared := make([]byte, 256<<10)
	rand.New(rand.NewSource(7)).Read(shared)
	const publishers = 4
	var wg sync.WaitGroup
	errs := make(chan error, publishers*4)
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			// Each image shares a prefix (cross-image dedup under load) and
			// carries a private suffix.
			data := make([]byte, len(shared)+64<<10)
			copy(data, shared)
			rand.New(rand.NewSource(int64(100 + p))).Read(data[len(shared):])
			name := fmt.Sprintf("img-%d", p)
			for round := 0; round < 3; round++ {
				src := memImage(t, data)
				var held []Key
				m, err := BuildParallel(src, int64(len(data)), BuildOpts{Workers: 2, Compress: true}, func(e Entry, raw, comp []byte) error {
					if err := s.PutBuilt(e.Hash, comp, int64(e.Len)); err != nil {
						return err
					}
					held = append(held, e.Hash)
					return nil
				})
				if err == nil {
					err = s.Commit(name, m)
				}
				s.Release(held)
				if err != nil {
					errs <- err
					return
				}
				out := backend.NewMemFileSize(m.Length)
				if err := Materialize(out, m, s, 2); err != nil {
					errs <- err
					return
				}
				got := make([]byte, len(data))
				if err := backend.ReadFull(out, got, 0); err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(got, data) {
					errs <- fmt.Errorf("publisher %d round %d: content mismatch", p, round)
					return
				}
				if round == 1 {
					// Evict mid-run so GC races the other publishers' stages.
					if err := s.Drop(name); err != nil {
						errs <- err
						return
					}
				}
			}
		}(p)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Manifests != publishers {
		t.Fatalf("manifests = %d, want %d", st.Manifests, publishers)
	}
	if st.SharedBytes == 0 {
		t.Fatal("no cross-image sharing recorded")
	}
}

var _ io.ReaderAt = (*errReaderAt)(nil)

// TestMaterializeReads pins what a materialization of stored chunks costs
// in the packs: blobs landed in manifest order into one pack come back with at
// most one pread per window — ceil(Length / 1 MiB) — and each is inflated
// once, with no per-chunk SHA-256: the whole-image checksum covers them.
func TestMaterializeReads(t *testing.T) {
	data := randBytes(11, 5<<20+12345)
	s, err := OpenBlobStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := buildInto(t, s, "img", data, 2)
	before := s.Stats()
	if before.Packs != 1 || before.Blobs != len(m.Entries) {
		t.Fatalf("want %d blobs in one pack, have %d in %d", len(m.Entries), before.Blobs, before.Packs)
	}
	out := backend.NewMemFileSize(m.Length)
	if err := Materialize(out, m, s, 2); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, m.Length)
	if err := backend.ReadFull(out, got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("materialized bytes differ")
	}
	st := s.Stats()
	windows := (m.Length + windowTarget - 1) / windowTarget
	if reads := st.Reads - before.Reads; reads == 0 || reads > windows {
		t.Errorf("%d preads for %d entries, want at most %d", reads, len(m.Entries), windows)
	}
	if n := st.Hashes - before.Hashes; n != 0 {
		t.Errorf("%d per-chunk hashes, want 0", n)
	}
	if n := st.Decodes - before.Decodes; n != int64(len(m.Entries)) {
		t.Errorf("%d blobs inflated for %d entries", n, len(m.Entries))
	}
}

// TestMaterializeRetiredPack races materializations against the reclaim
// that moves their blobs. img's records sit interleaved with a second live
// image's, so every one is a pread of its own and a window's decode spans
// many of them. Each churn round lands a larger image into the same pack,
// commits it and drops it, and the Release behind the Drop finds the pack more
// than half dead: the live records are copied forward, still interleaved, and
// the pack is retired — now and then between a decoder's lookup and one of its
// preads. Every image must come out byte-identical.
func TestMaterializeRetiredPack(t *testing.T) {
	s, err := OpenBlobStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s.sync = func(*os.File) error { return nil } // durability is not under test; speed of the churn is
	type blob struct {
		e    Entry
		comp []byte
	}
	encode := func(data []byte) (*Manifest, []blob) {
		var bs []blob
		m, err := BuildParallel(bytes.NewReader(data), int64(len(data)), BuildOpts{Workers: 2, Compress: true},
			func(e Entry, raw, comp []byte) error {
				bs = append(bs, blob{e, append([]byte(nil), comp...)})
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		return m, bs
	}
	land := func(bs []blob) []Key {
		var held []Key
		for _, b := range bs {
			if err := s.PutBuilt(b.e.Hash, b.comp, int64(b.e.Len)); err != nil {
				t.Error(err)
				break
			}
			held = append(held, b.e.Hash)
		}
		return held
	}
	// Text-like content: its records are small to copy forward and slow to
	// inflate, which widens the window between lookup and pread.
	text := func(seed int64, n int) []byte {
		b := randBytes(seed, n)
		for i := range b {
			b[i] = "etaoin shrdlu"[b[i]%13]
		}
		return b
	}
	data := text(12, 1<<20+777)
	m, img := encode(data)
	mix, other := encode(text(13, 1<<20))
	var held []Key
	for i := range img {
		held = append(held, land(img[i:i+1])...)
		if i < len(other) {
			held = append(held, land(other[i:i+1])...)
		}
	}
	held = append(held, land(other[min(len(img), len(other)):])...)
	for name, man := range map[string]*Manifest{"img": m, "mix": mix} {
		if err := s.Commit(name, man); err != nil {
			t.Fatal(err)
		}
	}
	s.Release(held)
	junkMan, junk := encode(randBytes(14, 3<<19))

	stop := make(chan struct{})
	churned := make(chan int)
	go func() {
		n := 0
		defer func() { churned <- n }()
		for {
			select {
			case <-stop:
				return
			default:
			}
			held := land(junk)
			err := s.Commit("junk", junkMan)
			s.Release(held)
			if err == nil {
				err = s.Drop("junk")
			}
			if err != nil {
				t.Error(err)
				return
			}
			n++
		}
	}()
	got := make([]byte, m.Length)
	for round := 0; round < 8; round++ {
		out := backend.NewMemFileSize(m.Length)
		if err := Materialize(out, m, s, 2); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if err := backend.ReadFull(out, got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("round %d: materialized bytes differ", round)
		}
	}
	close(stop)
	if n := <-churned; n == 0 {
		t.Fatal("no pack was retired during the materializations")
	}
	if st := s.Stats(); st.Blobs != len(img)+len(other) || st.Staged != 0 {
		t.Fatalf("after the churn: %d blobs, %d staged", st.Blobs, st.Staged)
	}
}

// TestMaterializeQuarantinesCorruptBlob: a stored blob whose bytes still
// inflate but no longer hash to its key fails the image, not silently, and is
// taken out of the index — its references kept — so Stage misses it and the
// next landing of the key writes good bytes instead of finding it present.
func TestMaterializeQuarantinesCorruptBlob(t *testing.T) {
	data := randBytes(14, 1<<20)
	s, err := OpenBlobStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := buildInto(t, s, "img", data, 2)
	victim := m.Entries[len(m.Entries)/2]
	good, _, err := s.ReadCompressed(victim.Hash)
	if err != nil {
		t.Fatal(err)
	}
	corruptBlob(t, s, victim.Hash)
	err = Materialize(backend.NewMemFileSize(m.Length), m, s, 2)
	if !errors.Is(err, ErrCorruptBlob) || !strings.Contains(err.Error(), victim.Hash.String()) {
		t.Fatalf("err = %v, want ErrCorruptBlob naming %v", err, victim.Hash)
	}
	if s.Stage(victim.Hash) {
		t.Fatal("the corrupt blob is still staged from the index")
	}
	if st := s.Stats(); st.Blobs != len(m.Entries)-1 || st.Manifests != 1 {
		t.Fatalf("after quarantine: %d blobs, %d manifests", st.Blobs, st.Manifests)
	}
	if err := s.PutBuilt(victim.Hash, good, int64(victim.Len)); err != nil {
		t.Fatal(err)
	}
	s.Release([]Key{victim.Hash})
	out := backend.NewMemFileSize(m.Length)
	if err := Materialize(out, m, s, 2); err != nil {
		t.Fatalf("after re-landing: %v", err)
	}
}

// FuzzDecodeBlob feeds arbitrary wire frames to both blob decoders: DecodeBlob,
// and the window decode of a one-entry manifest whose slot sits between guard
// bytes. Each must fail, or fill exactly the frame's length with what the
// stream inflates to; it must never panic or write a guard byte.
func FuzzDecodeBlob(f *testing.F) {
	frame := func(rawLen uint64, stream []byte) []byte {
		return append(binary.BigEndian.AppendUint64(nil, rawLen), stream...)
	}
	deflated := func(raw []byte) []byte {
		var b bytes.Buffer
		if err := deflateTo(&b, raw); err != nil {
			f.Fatal(err)
		}
		return b.Bytes()
	}
	raw := bytes.Repeat([]byte("vmi cache "), 30)
	stream := deflated(raw)
	f.Add(frame(uint64(len(raw)), stream))                 // valid
	f.Add(frame(uint64(len(raw)), stream)[:5])             // truncated header
	f.Add(frame(0, deflated(nil)))                         // raw length 0
	f.Add(frame(2*MaxChunk+1, stream))                     // raw length past the bound
	f.Add(frame(uint64(len(raw))-7, stream))               // inflates longer than its frame
	f.Add(frame(uint64(len(raw))+7, stream))               // inflates shorter than its frame
	f.Add(frame(uint64(len(raw)), stream[:len(stream)/2])) // stream cut short

	s, err := OpenBlobStore(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	const guard = 64
	f.Fuzz(func(t *testing.T, wire []byte) {
		// What the stream inflates to, read to its end and no further than
		// one byte past any legal frame.
		var want []byte
		ok := false
		if len(wire) >= blobHdrLen {
			n := binary.BigEndian.Uint64(wire)
			out, rerr := io.ReadAll(io.LimitReader(flate.NewReader(bytes.NewReader(wire[blobHdrLen:])), 2*MaxChunk+1))
			want, ok = out, rerr == nil && n <= 2*MaxChunk && uint64(len(out)) == n
		}
		k := Key(sha256.Sum256(want))
		got, err := DecodeBlob(k, wire)
		if ok != (err == nil) || ok && !bytes.Equal(got, want) {
			t.Fatalf("DecodeBlob: err %v for a frame that decodes %v", err, ok)
		}

		// The window decode reads the frame back from a pack record.
		k = Key(sha256.Sum256(wire))
		if s.land(k, wire) != nil {
			return // no pack can hold it: the scanner would stop there too
		}
		defer s.Release([]Key{k})
		e := Entry{Hash: k, Len: 1}
		if n := binary.BigEndian.Uint64(wire); n > 0 && n <= MaxChunk {
			e.Len = uint32(n)
		}
		buf := bytes.Repeat([]byte{0xA5}, guard+int(e.Len)+guard)
		w := &window{buf: &buf, n: len(buf), slots: []slot{{e: e, off: guard}}}
		var rb []byte
		err = (&Materializer{src: s}).decodeWindow(w, &rb)
		fits := ok && uint64(e.Len) == uint64(len(want))
		if fits != (err == nil) || fits && !bytes.Equal(buf[guard:guard+int(e.Len)], want) {
			t.Fatalf("window decode: err %v for a frame that decodes %v into a %d-byte slot", err, ok, e.Len)
		}
		for i, b := range append(buf[:guard:guard], buf[guard+int(e.Len):]...) {
			if b != 0xA5 {
				t.Fatalf("guard byte %d written", i)
			}
		}
	})
}
