package rblock

import (
	"bytes"
	"errors"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vmicache/internal/backend"
)

// inflightStore wraps a store so the server's reads record how many of them
// run at once, fail at one offset, and linger long enough for the reads of
// one batch to meet.
type inflightStore struct {
	backend.Store
	cur, peak atomic.Int64
	failAt    atomic.Int64 // a read starting here fails (-1: none)
}

func (s *inflightStore) Open(name string, ro bool) (backend.File, error) {
	f, err := s.Store.Open(name, ro)
	if err != nil {
		return nil, err
	}
	return &inflightFile{File: f, s: s}, nil
}

type inflightFile struct {
	backend.File
	s *inflightStore
}

var errInjectedRead = errors.New("injected server read fault")

func (f *inflightFile) ReadAt(p []byte, off int64) (int, error) {
	n := f.s.cur.Add(1)
	defer f.s.cur.Add(-1)
	for {
		peak := f.s.peak.Load()
		if n <= peak || f.s.peak.CompareAndSwap(peak, n) {
			break
		}
	}
	time.Sleep(2 * time.Millisecond)
	if off == f.s.failAt.Load() {
		return 0, errInjectedRead
	}
	return f.File.ReadAt(p, off)
}

// TestRemoteReadBatch: a batch of ranges, some split into several rwsize
// segments, lands every byte where it belongs; the storage node serves more
// than one of the batch's reads at once; a range past the end fails instead
// of succeeding short; a server-side read error surfaces from the batch and
// leaves the client usable.
func TestRemoteReadBatch(t *testing.T) {
	const rwsize, size = 4096, 200000
	pat := make([]byte, size)
	for i := range pat {
		pat[i] = byte(i*131 + i>>9)
	}
	mem := backend.NewMemStore()
	f, err := mem.Create("img")
	if err != nil {
		t.Fatal(err)
	}
	if err := backend.WriteFull(f, pat, 0); err != nil {
		t.Fatal(err)
	}
	store := &inflightStore{Store: mem}
	store.failAt.Store(-1)
	srv := NewServer(store, ServerOpts{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() }) //nolint:errcheck
	c := dial(t, addr, rwsize)
	rf, err := c.Open("img", true)
	if err != nil {
		t.Fatal(err)
	}

	spans := [][2]int64{{0, 10}, {150000, 3 * rwsize}, {5000, 1}, {90001, 2*rwsize + 77}, {size - 300, 300}, {40000, rwsize}}
	batch := func() []backend.Range {
		rs := make([]backend.Range, len(spans))
		for i, s := range spans {
			rs[i] = backend.Range{P: make([]byte, s[1]), Off: s[0]}
		}
		return rs
	}
	rs := batch()
	if err := rf.ReadBatch(rs); err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		if !bytes.Equal(r.P, pat[r.Off:r.Off+int64(len(r.P))]) {
			t.Fatalf("range %d+%d holds the wrong bytes", r.Off, len(r.P))
		}
	}
	if peak := store.peak.Load(); peak < 2 {
		t.Fatalf("the storage node served the batch's reads %d at a time", peak)
	}

	past := []backend.Range{{P: make([]byte, 10), Off: 0}, {P: make([]byte, 600), Off: size - 300}}
	if err := rf.ReadBatch(past); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("range past the end: %v, want io.ErrUnexpectedEOF", err)
	}

	store.failAt.Store(90001 + rwsize) // the second segment of the fourth range
	if err := rf.ReadBatch(batch()); !errors.Is(err, ErrRemoteIO) {
		t.Fatalf("server read fault: %v, want ErrRemoteIO", err)
	}
	store.failAt.Store(-1)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := rf.ReadBatch(batch()); err != nil {
				t.Errorf("batch after a server fault: %v", err)
			}
		}()
	}
	wg.Wait()
	if st := c.Stats(); st.Broken != 0 {
		t.Fatalf("a server read fault broke the client (%d)", st.Broken)
	}
}
