package rblock

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
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

// readVPattern serves a size-byte pattern file over an inflightStore and
// returns the pattern, the store, the server, and a client with it open.
func readVPattern(t *testing.T, size int) ([]byte, *inflightStore, *Server, *Client, *RemoteFile) {
	t.Helper()
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
	c := dial(t, addr, 4096)
	rf, err := c.Open("img", true)
	if err != nil {
		t.Fatal(err)
	}
	return pat, store, srv, c, rf
}

// TestRemoteReadBatch: a batch of ranges, one larger than a whole request,
// lands every byte where it belongs across ranges and requests; it costs
// one OpReadV per MiB, and more than one of them is at the storage node at
// once; the storage node counts every byte once; a range past the end fails instead of succeeding short; a
// server-side read error surfaces from the batch and leaves the client
// usable.
func TestRemoteReadBatch(t *testing.T) {
	const size = 3<<20 + 5000
	pat, store, srv, c, rf := readVPattern(t, size)

	spans := [][2]int64{{0, 10}, {150000, 3 * 4096}, {5000, 1}, {90001, maxReadV + 77},
		{size - 300, 300}, {2 << 20, 600000}, {40000, 4096}, {1 << 20, 0}}
	var total int64
	for _, s := range spans {
		total += s[1]
	}
	batch := func() []backend.Range {
		rs := make([]backend.Range, len(spans))
		for i, s := range spans {
			rs[i] = backend.Range{P: make([]byte, s[1]), Off: s[0]}
		}
		return rs
	}
	rs := batch()
	req0, served0 := c.Stats().Requests, srv.Stats().BytesRead
	if err := rf.ReadBatch(rs); err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		if !bytes.Equal(r.P, pat[r.Off:r.Off+int64(len(r.P))]) {
			t.Fatalf("range %d+%d holds the wrong bytes", r.Off, len(r.P))
		}
	}
	if got, want := c.Stats().Requests-req0, (total+maxReadV-1)/maxReadV; got != want {
		t.Fatalf("a batch of %d bytes cost %d requests, want %d", total, got, want)
	}
	if served := srv.Stats().BytesRead - served0; served != total {
		t.Fatalf("the storage node counted %d bytes served for a %d-byte batch", served, total)
	}
	if peak := store.peak.Load(); peak < 2 {
		t.Fatalf("the storage node served the batch's requests %d at a time", peak)
	}

	past := []backend.Range{{P: make([]byte, 10), Off: 0}, {P: make([]byte, 600), Off: size - 300}}
	if err := rf.ReadBatch(past); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("range past the end: %v, want io.ErrUnexpectedEOF", err)
	}

	store.failAt.Store(2 << 20) // a range of the batch's last request
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

// TestReadBatchRacing: batches and plain reads of one client race each
// other; every reply lands in its own caller's ranges (run with -race).
func TestReadBatchRacing(t *testing.T) {
	const size = 2 << 20
	pat, _, _, _, rf := readVPattern(t, size)
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < 4; it++ {
				var rs []backend.Range
				for k := 0; k < 40; k++ {
					off := int64((g*7919 + it*104729 + k*65537) % (size - 70000))
					rs = append(rs, backend.Range{P: make([]byte, 1+(g*31+k*977)%70000), Off: off})
				}
				if g%3 == 2 {
					p := make([]byte, 300000)
					if err := backend.ReadFull(rf, p, int64(g*1000)); err != nil {
						t.Error(err)
						return
					}
					if !bytes.Equal(p, pat[g*1000:g*1000+len(p)]) {
						t.Error("a plain read racing batches got the wrong bytes")
						return
					}
					continue
				}
				if err := rf.ReadBatch(rs); err != nil {
					t.Error(err)
					return
				}
				for _, r := range rs {
					if !bytes.Equal(r.P, pat[r.Off:r.Off+int64(len(r.P))]) {
						t.Errorf("goroutine %d: range %d+%d holds the wrong bytes", g, r.Off, len(r.P))
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestReadVRejectsMalformed: the storage node answers every malformed
// OpReadV payload StatusBadRequest, counts no read, and keeps serving the
// connection.
func TestReadVRejectsMalformed(t *testing.T) {
	_, addr, srv := newServer(t, ServerOpts{})
	store := srv.store.(*backend.MemStore)
	f, err := store.Create("img")
	if err != nil {
		t.Fatal(err)
	}
	if err := backend.WriteFull(f, make([]byte, 8192), 0); err != nil {
		t.Fatal(err)
	}
	c := dial(t, addr, 0)
	rf, err := c.Open("img", true)
	if err != nil {
		t.Fatal(err)
	}
	rec := func(off uint64, n uint32) []byte {
		return binary.BigEndian.AppendUint32(binary.BigEndian.AppendUint64(nil, off), n)
	}
	cases := map[string][]byte{
		"no records":              nil,
		"not a whole record":      rec(0, 10)[:11],
		"a record and a byte":     append(rec(0, 10), 0),
		"zero-length range":       append(rec(0, 10), rec(100, 0)...),
		"total over the cap":      append(rec(0, maxReadV), rec(0, 1)...),
		"one range over the cap":  rec(0, maxReadV+1),
		"u32 sum wraps":           append(rec(0, 0xffffffff), rec(0, 2)...),
		"offset over MaxInt64":    rec(1<<63, 10),
		"range end over MaxInt64": rec(math.MaxInt64-4, 10),
	}
	for name, payload := range cases {
		req := getFrame()
		req.op, req.handle, req.payload = OpReadV, rf.handle, payload
		if _, err := c.roundTrip(req, nil); !errors.Is(err, ErrBadRequest) {
			t.Errorf("%s: %v, want ErrBadRequest", name, err)
		}
	}
	if st := srv.Stats(); st.ReadOps != 0 || st.BytesRead != 0 {
		t.Fatalf("malformed requests counted %d reads / %d B", st.ReadOps, st.BytesRead)
	}
	if err := rf.ReadBatch([]backend.Range{{P: make([]byte, 100), Off: 8000}}); err != nil {
		t.Fatalf("read after malformed requests: %v", err)
	}
	if st := c.Stats(); st.Broken != 0 {
		t.Fatalf("malformed requests broke the connection (%d)", st.Broken)
	}
}
