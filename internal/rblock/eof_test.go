package rblock

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"

	"vmicache/internal/backend"
)

// wrappedEOFStore wraps a store so its files return a *wrapped* io.EOF, as
// layered backends (counting wrappers, chains) do. The server must classify
// EOF with errors.Is, not by comparing error strings.
type wrappedEOFStore struct{ inner backend.Store }

func (s wrappedEOFStore) Open(name string, ro bool) (backend.File, error) {
	f, err := s.inner.Open(name, ro)
	if err != nil {
		return nil, err
	}
	return wrappedEOFFile{f}, nil
}
func (s wrappedEOFStore) Create(name string) (backend.File, error) { return s.inner.Create(name) }
func (s wrappedEOFStore) Remove(name string) error                 { return s.inner.Remove(name) }
func (s wrappedEOFStore) Stat(name string) (int64, error)          { return s.inner.Stat(name) }

type wrappedEOFFile struct{ backend.File }

func (f wrappedEOFFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := f.File.ReadAt(p, off)
	if errors.Is(err, io.EOF) {
		err = fmt.Errorf("layered read at %d: %w", off, io.EOF)
	}
	return n, err
}

// TestRemoteReadAtEOFBoundaries pins down RemoteFile.ReadAt semantics around
// the end of an image that is not a multiple of 4 KiB or of maxReadV:
// exact-length tails succeed, reads crossing the end return the short count
// with io.EOF, and reads wholly past the end return (0, io.EOF) — the
// contract the qcow fill path relies on for its exact-length fetch of an
// image's short last cluster. The "request" cases are reads over maxReadV,
// which go out as several pipelined OpReadV requests: the end of the file
// falls in the second or third of them, or the first ends exactly at it and
// the rest start past it.
func TestRemoteReadAtEOFBoundaries(t *testing.T) {
	const (
		seg  = 4096
		size = 5*maxReadV/2 + 1696 // a multiple of neither seg nor maxReadV
	)
	pat := make([]byte, size)
	for i := range pat {
		pat[i] = byte(i*31 + 7)
	}

	run := func(t *testing.T, store backend.Store) {
		f, err := store.Create("img")
		if err != nil {
			t.Fatal(err)
		}
		if err := backend.WriteFull(f, pat, 0); err != nil {
			t.Fatal(err)
		}
		srv := NewServer(store, ServerOpts{})
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() }) //nolint:errcheck
		c := dial(t, addr)
		rf, err := c.Open("img", true)
		if err != nil {
			t.Fatal(err)
		}

		cases := []struct {
			name    string
			off     int64
			len     int
			wantN   int
			wantEOF bool
		}{
			{"interior single segment", 0, seg, seg, false},
			{"interior multi segment", 8192, 3 * seg, 3 * seg, false},
			{"exact end aligned", size - seg, seg, seg, false},
			{"exact end short tail", size - 1696, 1696, 1696, false},
			{"exact end multi segment", size - 2*seg, 2 * seg, 2 * seg, false},
			{"cross end single segment", size - 1000, seg, 1000, true},
			{"cross end multi segment", size - 9888, 4 * seg, 9888, true},
			{"cross end one byte", size - 1, 2, 1, true},
			{"wholly past end", size, seg, 0, true},
			{"far past end", size + 1<<20, seg, 0, true},
			{"zero length", 0, 0, 0, false},
			{"interior multi request", 8192, 2*maxReadV + 5, 2*maxReadV + 5, false},
			{"exact end multi request", size - 2*maxReadV - 7, 2*maxReadV + 7, 2*maxReadV + 7, false},
			{"cross end in second request", size - maxReadV - 1000, 2 * maxReadV, maxReadV + 1000, true},
			{"cross end in third request", 333, 3 * maxReadV, size - 333, true},
			{"first request full, rest past end", size - maxReadV, 3 * maxReadV, maxReadV, true},
			{"wholly past end multi request", size, 2 * maxReadV, 0, true},
		}
		for _, tc := range cases {
			t.Run(tc.name, func(t *testing.T) {
				buf := make([]byte, tc.len)
				n, err := rf.ReadAt(buf, tc.off)
				if n != tc.wantN {
					t.Fatalf("n = %d, want %d (err %v)", n, tc.wantN, err)
				}
				if tc.wantEOF {
					if !errors.Is(err, io.EOF) {
						t.Fatalf("err = %v, want io.EOF", err)
					}
				} else if err != nil {
					t.Fatalf("err = %v, want nil", err)
				}
				if n > 0 && !bytes.Equal(buf[:n], pat[tc.off:tc.off+int64(n)]) {
					t.Fatal("data mismatch")
				}
				// Exact-length tails must satisfy ReadFull, the form the
				// qcow fill path uses for backing fetches.
				if !tc.wantEOF && tc.len > 0 {
					full := make([]byte, tc.len)
					if err := backend.ReadFull(rf, full, tc.off); err != nil {
						t.Fatalf("ReadFull: %v", err)
					}
				}
			})
		}
	}

	t.Run("plain store", func(t *testing.T) { run(t, backend.NewMemStore()) })
	// The same contract must hold when the server-side file wraps io.EOF —
	// the regression the old string-comparison classification had.
	t.Run("wrapped EOF store", func(t *testing.T) {
		run(t, wrappedEOFStore{inner: backend.NewMemStore()})
	})
}
