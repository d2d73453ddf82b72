package qcow

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"vmicache/internal/backend"
)

// patSource is a computed backing pattern: no byte is zero, so a cluster
// bound before its data landed (container zeros) can never pass for base
// content.
type patSource struct{ n int64 }

func (s patSource) ReadAt(p []byte, off int64) (int, error) {
	for i := range p {
		p[i] = byte((off+int64(i))*2654435761>>7) | 1
	}
	return len(p), nil
}

func (s patSource) Size() int64 { return s.n }

// put is guest data a crash case writes at off.
type put struct {
	off  int64
	data []byte
}

// guestData is n bytes unlike both the base pattern and zeros.
func guestData(n int64, seed int64) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// compressible is one cluster of n bytes deflate packs well.
func compressible(n int64, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i/64) + seed
	}
	return b
}

// TestRunCommitCrashPoints cuts each writer after every k-th container write
// and proves the commit order holds at each cut: the container, reopened as
// after a crash, passes Check with at worst leaks, and every cluster reads
// what it held before the writer ran or, once bound, what the writer put
// there. The surviving image then retries and must end fully consistent.
// The writers are a guest read's one run, a window fill's many runs, a guest
// copy-on-write, a compressed import and a fill that grows the refcount
// table first. Each uncut writer takes exactly writes container writes.
func TestRunCommitCrashPoints(t *testing.T) {
	const k512, k4 = 512, 4 << 10
	type crashCase struct {
		name      string
		cb        int
		size, pad int64 // virtual size; container padded to this many clusters first
		quota     int64 // 0: a copy-on-write image, over the base unless standalone
		prefill   []put // guest writes before the cuts: give the writer a pre-existing L2 table
		warm      Span  // a cache read before the cuts, for the same
		spans     []Span
		window    bool  // fill spans as one window, else read them
		puts      []put // the writer is guest writes
		compress  bool  // ... each of one cluster, through WriteCompressedCluster
		alone     bool  // no backing: unbound clusters read as zeros
		writes    int64 // container writes of the uncut writer
	}
	cases := []crashCase{
		// 512 B clusters: 64 slots per L2 table, 256 counts per refcount
		// block. Clusters 32..287 span five tables; the reservation starts
		// at cluster 4 and so crosses the first block's end. The
		// reservation, the first block's counts, the new block's
		// refcount-table slot and the new tables' L1 slots.
		{name: "whole-cluster", cb: 9, size: 1 << 20, quota: 2 << 20, spans: []Span{{16 << 10, 128 << 10}}, writes: 4},
		// 8 KiB clusters: 1024 slots per table, 4096 counts per block. The
		// request starts and ends mid-cluster, covers clusters 1023..2048
		// (tables 0, 1, 2), and the container is padded so the reservation
		// crosses cluster 4096.
		{name: "8 KiB clusters", cb: 13, size: 32 << 20, pad: 3500, quota: 64 << 20,
			spans: []Span{{8<<20 - 3<<10, 8<<20 + 4<<10}}, writes: 4},
		// A window of 512 B clusters: two runs in table 0 (one unaligned,
		// one overlapped by a later span), a run across tables 2..5 that
		// the prefilled cluster 200 splits in table 3, which already
		// exists, and an adjacent span. The container is padded so the
		// reservation crosses the refcount-block boundary at cluster 256.
		// One more slot write, for table 3.
		{name: "window", cb: 9, size: 1 << 20, pad: 200, quota: 2 << 20, window: true,
			warm: Span{200 * k512, k512},
			spans: []Span{
				{10*k512 + 100, 10 * k512}, {30 * k512, 10*k512 + 7}, {35 * k512, 10 * k512},
				{150 * k512, 180 * k512}, {330 * k512, 10 * k512},
			}, writes: 5},
		// A guest write over clusters 40..80 of a copy-on-write image,
		// starting and ending mid-cluster: table 0 exists (the prefill's),
		// table 1 is new, and the reservation at cluster 232 crosses the
		// refcount-block boundary at 256. One slot write for table 0, one
		// L1 slot for table 1.
		{name: "guest copy-on-write", cb: 9, size: 1 << 20, pad: 230,
			prefill: []put{{10 * k512, guestData(100, 1)}},
			spans:   []Span{{39 * k512, 43 * k512}},
			puts:    []put{{40*k512 + 100, guestData(40*k512, 2)}}, writes: 5},
		// Compressed import into 4 KiB clusters (eight 512 B blob slots
		// each): a blob opening a fresh blob cluster with its new L2 table
		// (reservation, counts, L1 slot), a blob that fits the open cluster
		// (the blob, its count bumped in place, its slot), and an
		// incompressible cluster stored raw (reservation, counts, slot).
		// Cutting the fitting blob's slot write leaves the open cluster
		// counted one above its live blobs: the bump has to go first, and
		// Check calls an over-count a leak.
		{name: "compressed import", cb: 12, size: 1 << 20, alone: true, compress: true,
			spans: []Span{{0, 3 * k4}},
			puts: []put{
				{0, compressible(k4, 1)}, {k4, compressible(k4, 2)}, {2 * k4, guestData(k4, 3)},
			}, writes: 9},
		// A fill whose reservation runs past what the refcount table
		// indexes (64 blocks of 256 clusters at 512 B clusters): the table
		// grows first, its new clusters and the block counting them still
		// inside the old table's reach. Growth: the new table and block,
		// the header, the old table's counts; then the fill's commit.
		{name: "refcount-table growth", cb: 9, size: 1 << 20, pad: 16300, quota: 64 << 20,
			spans: []Span{{100 << 10, 64 << 10}}, writes: 7},
		// The same growth from a container one cluster short of the old
		// reach: the new table's second cluster and the block counting it
		// land past what the old table indexes, so until the header
		// switch they are unreferenced clusters Check counts as leaks. Growth: the new table and
		// blocks, the count of the one cluster inside an old block, the
		// header, the old table's counts; then the fill's commit.
		{name: "refcount-table growth past the old reach", cb: 9, size: 1 << 20, pad: 16383, quota: 64 << 20,
			spans: []Span{{100 << 10, 64 << 10}}, writes: 7},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cs := int64(1) << tc.cb
			src := patSource{n: tc.size}
			// before and after are every guest byte before the writer ran
			// and after it.
			before := make([]byte, tc.size)
			if !tc.alone {
				src.ReadAt(before, 0) //nolint:errcheck // cannot fail
			}
			for _, w := range tc.prefill {
				copy(before[w.off:], w.data)
			}
			after := bytes.Clone(before)
			for _, w := range tc.puts {
				copy(after[w.off:], w.data)
			}
			// verify reads every cluster under the spans through img: a
			// bound cluster holds after, an unbound one before.
			verify := func(img *Image) error {
				for _, sp := range tc.spans {
					for c := sp.Off / cs; c*cs < sp.Off+sp.Len; c++ {
						lo, hi := max(sp.Off, c*cs), min(sp.Off+sp.Len, (c+1)*cs, tc.size)
						bound, err := img.Allocated(lo)
						if err != nil {
							return err
						}
						want := before
						if bound {
							want = after
						}
						got := make([]byte, hi-lo)
						if err := backend.ReadFull(img, got, lo); err != nil {
							return err
						}
						if !bytes.Equal(got, want[lo:hi]) {
							return fmt.Errorf("cluster %d (bound %v) does not hold its content", c, bound)
						}
					}
				}
				return nil
			}
			run := func(img *Image) error {
				switch {
				case tc.compress:
					for _, w := range tc.puts {
						if bound, err := img.Allocated(w.off); err != nil || bound {
							continue // landed before the cut
						}
						if err := img.WriteCompressedCluster(w.off/cs, w.data); err != nil {
							return err
						}
					}
				case len(tc.puts) > 0:
					for _, w := range tc.puts {
						if err := backend.WriteFull(img, w.data, w.off); err != nil {
							return err
						}
					}
				case tc.window:
					rest, err := img.FillSpans(tc.spans)
					if err == nil && len(rest) > 0 {
						err = fmt.Errorf("window fill left %d spans unlanded", len(rest))
					}
					return err
				default:
					for _, sp := range tc.spans {
						if err := backend.ReadFull(img, make([]byte, sp.Len), sp.Off); err != nil {
							return err
						}
					}
				}
				return nil
			}
			var sawLeak bool
			for k := int64(0); ; k++ {
				mem := backend.NewMemFile()
				opts := CreateOpts{Size: tc.size, ClusterBits: tc.cb, BackingFile: "b", CacheQuota: tc.quota}
				if tc.alone {
					opts.BackingFile = ""
				}
				img, err := Create(backend.NopClose(mem), opts)
				if err != nil {
					t.Fatal(err)
				}
				if err := img.Close(); err != nil {
					t.Fatal(err)
				}
				if tc.pad > 0 {
					if err := mem.Truncate(tc.pad << tc.cb); err != nil {
						t.Fatal(err)
					}
				}
				faulty := backend.NewFaultyFile(backend.NopClose(mem))
				img, err = Open(faulty, OpenOpts{})
				if err != nil {
					t.Fatal(err)
				}
				if !tc.alone {
					img.SetBacking(src)
				}
				for _, w := range tc.prefill {
					if err := backend.WriteFull(img, w.data, w.off); err != nil {
						t.Fatal(err)
					}
				}
				if tc.warm.Len > 0 {
					if err := backend.ReadFull(img, make([]byte, tc.warm.Len), tc.warm.Off); err != nil {
						t.Fatal(err)
					}
				}

				faulty.FailWriteAfter(k)
				err = run(img)
				if err == nil {
					if k != tc.writes {
						t.Fatalf("the whole writer took %d container writes, want %d", k, tc.writes)
					}
					faulty.FailWriteAfter(-1)
					if err := verify(img); err != nil {
						t.Fatalf("uncut: %v", err)
					}
					img.Close() //nolint:errcheck // test teardown
					break
				}
				if !errors.Is(err, backend.ErrInjected) {
					t.Fatalf("cut %d: %v, want the injected fault", k, err)
				}

				// The crash view: reopen the bytes that landed, never closing.
				crashed, err := Open(backend.NopClose(mem), OpenOpts{ReadOnly: true})
				if err != nil {
					t.Fatalf("cut %d: reopen: %v", k, err)
				}
				if !tc.alone {
					crashed.SetBacking(src)
				}
				res, err := crashed.Check()
				if err != nil {
					t.Fatalf("cut %d: check: %v", k, err)
				}
				if !res.OK() {
					t.Fatalf("cut %d: crash left more than leaks: %s", k, res)
				}
				sawLeak = sawLeak || res.Leaks > 0
				if err := verify(crashed); err != nil {
					t.Fatalf("cut %d: crash view: %v", k, err)
				}
				crashed.Close() //nolint:errcheck // read-only

				// The surviving image retries and ends consistent.
				faulty.FailWriteAfter(-1)
				if err := run(img); err != nil {
					t.Fatalf("cut %d: retry: %v", k, err)
				}
				if err := verify(img); err != nil {
					t.Fatalf("cut %d: retry: %v", k, err)
				}
				if err := img.Close(); err != nil {
					t.Fatal(err)
				}
				re, err := OpenVerified(backend.NopClose(mem), OpenOpts{ReadOnly: true})
				if err != nil {
					t.Fatalf("cut %d: image inconsistent after the retry: %v", k, err)
				}
				re.Close() //nolint:errcheck // read-only
			}
			if !sawLeak {
				t.Error("no cut left a leak: the cuts did not land inside the writer")
			}
		})
	}
}

// opLog counts what an image asks of its container or its backing: writes
// with their offsets, and reads with their ranges.
type opLog struct {
	backend.File
	mu     sync.Mutex
	writes []int64
	reads  []Span
}

func (f *opLog) WriteAt(p []byte, off int64) (int, error) {
	f.mu.Lock()
	f.writes = append(f.writes, off)
	f.mu.Unlock()
	return f.File.WriteAt(p, off)
}

// readLog is a backing source that logs its reads.
type readLog struct {
	BlockSource
	log *opLog
}

func (r readLog) ReadAt(p []byte, off int64) (int, error) {
	r.log.mu.Lock()
	r.log.reads = append(r.log.reads, Span{off, int64(len(p))})
	r.log.mu.Unlock()
	return r.BlockSource.ReadAt(p, off)
}

// TestGuestWriteOneCommit pins a guest copy-on-write of k unallocated
// 64 KiB clusters, starting and ending mid-cluster, to one commit: one
// reservation write, one refcount write for the pre-existing block, one slot
// write per table (the pre-existing table's slots, the new table's L1 slot),
// and backing reads of the two edge clusters only.
func TestGuestWriteOneCommit(t *testing.T) {
	const cs = 64 << 10
	cases := []struct {
		name        string
		first       int64 // first cluster written
		k           int64 // clusters written
		writes      int64
		tableWrites int // slot writes of L2 tables (pre-existing) and the L1 (new ones)
	}{
		{name: "one table", first: 10, k: 8, writes: 3, tableWrites: 1},
		// Table 1 starts at cluster 8192 (512 MiB).
		{name: "two tables", first: 8188, k: 8, writes: 4, tableWrites: 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			log := &opLog{File: backend.NewMemFile()}
			img, err := Create(log, CreateOpts{Size: 1 << 30, BackingFile: "b"})
			if err != nil {
				t.Fatal(err)
			}
			src := patSource{n: 1 << 30}
			img.SetBacking(readLog{src, log})
			// Table 0 exists before the measured write.
			if err := backend.WriteFull(img, []byte("prefill"), 0); err != nil {
				t.Fatal(err)
			}
			log.writes, log.reads = nil, nil

			off := tc.first*cs + 1000
			data := guestData(tc.k*cs-2000, 4)
			if err := backend.WriteFull(img, data, off); err != nil {
				t.Fatal(err)
			}
			if int64(len(log.writes)) != tc.writes {
				t.Errorf("the write took %d container writes (at %v), want %d", len(log.writes), log.writes, tc.writes)
			}
			h := *img.hdr
			l1Lo, l1Hi := int64(h.L1TableOffset), int64(h.L1TableOffset)+int64(h.L1Size)*l1EntrySize
			l2Off := int64(img.l1[0] & entryOffsetMask)
			tableWrites := 0
			for _, w := range log.writes {
				if l1Lo <= w && w < l1Hi || l2Off <= w && w < l2Off+cs {
					tableWrites++
				}
			}
			if tableWrites != tc.tableWrites {
				t.Errorf("%d table slot writes, want %d", tableWrites, tc.tableWrites)
			}
			edges := []Span{{tc.first * cs, cs}, {(tc.first + tc.k - 1) * cs, cs}}
			if !slices.Equal(log.reads, edges) {
				t.Errorf("backing reads %v, want the edge clusters %v", log.reads, edges)
			}
			got := make([]byte, len(data))
			if err := backend.ReadFull(img, got, off); err != nil || !bytes.Equal(got, data) {
				t.Fatalf("read-back: %v", err)
			}
			edge := make([]byte, 1000)
			want := make([]byte, 1000)
			src.ReadAt(want, tc.first*cs) //nolint:errcheck // cannot fail
			if err := backend.ReadFull(img, edge, tc.first*cs); err != nil || !bytes.Equal(edge, want) {
				t.Fatalf("head cluster lost its base bytes: %v", err)
			}
			if res, err := img.Check(); err != nil || !res.OK() || res.Leaks > 0 {
				t.Fatalf("check: %v %v", err, res)
			}
		})
	}
}
