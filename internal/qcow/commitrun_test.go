package qcow

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"vmicache/internal/backend"
)

// patSource is a computed backing pattern: no byte is zero, so a sub-cluster
// wrongly marked valid (container zeros) can never pass for base content.
type patSource struct{ n int64 }

func (s patSource) ReadAt(p []byte, off int64) (int, error) {
	for i := range p {
		p[i] = byte((off+int64(i))*2654435761>>7) | 1
	}
	return len(p), nil
}

func (s patSource) Size() int64 { return s.n }

// TestRunCommitCrashPoints cuts one commit after every k-th container write
// and proves the write order holds at each cut: the container, reopened as
// after a crash, passes Check with at worst leaks (in sub-cluster mode also
// the torn fill Check exists to detect: bits persisted, cluster not yet
// bound), and every cluster that did get bound reads back base content. The
// surviving image then retries the fill and must end fully consistent. The
// commit is a guest read's one run, or a window fill's many runs.
func TestRunCommitCrashPoints(t *testing.T) {
	const k512 = 512
	cases := []struct {
		name      string
		cb        int
		sub       bool
		size, pad int64  // virtual size; container padded to this many clusters first
		spans     []Span // a guest read of spans[0], or with window a window fill
		window    bool
		prefill   Span // filled before the cuts: gives the commit a pre-existing L2 table
	}{
		// 512 B clusters: 64 slots per L2 table, 256 counts per refcount
		// block. Clusters 32..287 span five tables; the reservation starts
		// at cluster 4 and so crosses the first block's end.
		{name: "whole-cluster", cb: 9, size: 1 << 20, spans: []Span{{16 << 10, 128 << 10}}},
		// 8 KiB clusters, 4 KiB sub-clusters: 1024 slots per table, 4096
		// counts per block. The request starts and ends mid-cluster, covers
		// clusters 1023..2048 (tables 0, 1, 2), and the container is padded
		// so the reservation crosses cluster 4096.
		{name: "sub-cluster", cb: 13, sub: true, size: 32 << 20, pad: 3500,
			spans: []Span{{8<<20 - 3<<10, 8<<20 + 4<<10}}},
		// A window of 512 B clusters: two runs in table 0 (one unaligned,
		// one overlapped by a later span), a run across tables 2..5 that
		// the prefilled cluster 200 splits in table 3, which already
		// exists, and an adjacent span. The container is padded so the
		// reservation crosses the refcount-block boundary at cluster 256.
		{name: "window", cb: 9, size: 1 << 20, pad: 200, window: true,
			prefill: Span{200 * k512, k512},
			spans: []Span{
				{10*k512 + 100, 10 * k512}, {30 * k512, 10*k512 + 7}, {35 * k512, 10 * k512},
				{150 * k512, 180 * k512}, {330 * k512, 10 * k512},
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src := patSource{n: tc.size}
			// readSpans reads every span through img and compares it with
			// the source.
			readSpans := func(img *Image) error {
				for _, sp := range tc.spans {
					got, want := make([]byte, sp.Len), make([]byte, sp.Len)
					src.ReadAt(want, sp.Off) //nolint:errcheck // cannot fail
					if err := backend.ReadFull(img, got, sp.Off); err != nil {
						return err
					}
					if !bytes.Equal(got, want) {
						return fmt.Errorf("span %d+%d does not hold base content", sp.Off, sp.Len)
					}
				}
				return nil
			}
			fill := func(img *Image) error {
				if !tc.window {
					return readSpans(img)
				}
				rest, err := img.FillSpans(tc.spans)
				if err == nil && len(rest) > 0 {
					err = fmt.Errorf("window fill left %d spans unlanded", len(rest))
				}
				return err
			}
			var sawLeak, sawTorn bool
			for k := int64(0); ; k++ {
				mem := backend.NewMemFile()
				img, err := Create(backend.NopClose(mem), CreateOpts{
					Size: tc.size, ClusterBits: tc.cb, BackingFile: "b",
					CacheQuota: 2 * tc.size, Subclusters: tc.sub,
				})
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
				img.SetBacking(src)
				if tc.prefill.Len > 0 {
					if err := backend.ReadFull(img, make([]byte, tc.prefill.Len), tc.prefill.Off); err != nil {
						t.Fatal(err)
					}
				}

				faulty.FailWriteAfter(k)
				err = fill(img)
				if err == nil {
					if k < 5 {
						t.Fatalf("the whole commit took only %d writes; it is too small to cut", k)
					}
					faulty.FailWriteAfter(-1)
					if err := readSpans(img); err != nil {
						t.Fatalf("uncut fill: %v", err)
					}
					t.Logf("commit = %d writes", k)
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
				crashed.SetBacking(src)
				res, err := crashed.Check()
				if err != nil {
					t.Fatalf("cut %d: check: %v", k, err)
				}
				for _, e := range res.Errors {
					if !tc.sub || !strings.Contains(e, "on an unallocated cluster (torn fill)") {
						t.Fatalf("cut %d: crash left more than leaks: %s", k, res)
					}
					sawTorn = true
				}
				sawLeak = sawLeak || res.Leaks > 0
				if err := readSpans(crashed); err != nil {
					t.Fatalf("cut %d: crash view: %v", k, err)
				}
				crashed.Close() //nolint:errcheck // read-only

				// The surviving image retries and ends consistent.
				faulty.FailWriteAfter(-1)
				if err := fill(img); err != nil {
					t.Fatalf("cut %d: retry: %v", k, err)
				}
				if err := readSpans(img); err != nil {
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
				t.Error("no cut left a leak: the cuts did not land inside the commit")
			}
			if tc.sub && !sawTorn {
				t.Error("no cut landed between the bitmap write and the L2 bind")
			}
		})
	}
}
