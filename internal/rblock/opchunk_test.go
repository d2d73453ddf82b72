package rblock

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"vmicache/internal/backend"
)

// fakeChunks is a ChunkSource over fixed tables.
type fakeChunks struct {
	manifests map[string][]byte
	blobs     map[[HashLen]byte][]byte
}

func (f *fakeChunks) EncodedManifest(name string) ([]byte, error) {
	enc, ok := f.manifests[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", backend.ErrNotExist, name)
	}
	return enc, nil
}

func (f *fakeChunks) ChunkBlob(hash [HashLen]byte) ([]byte, error) {
	b, ok := f.blobs[hash]
	if !ok {
		return nil, fmt.Errorf("%w: no blob", backend.ErrNotExist)
	}
	return b, nil
}

func TestOpManifestChunkRoundTrip(t *testing.T) {
	h1 := [HashLen]byte{1}
	h2 := [HashLen]byte{2}
	src := &fakeChunks{
		manifests: map[string][]byte{"img.vmic": {9, 8, 7}},
		blobs: map[[HashLen]byte][]byte{
			h1: bytes.Repeat([]byte{0x11}, 100),
			h2: bytes.Repeat([]byte{0x22}, 64<<10),
		},
	}
	srv := NewServer(backend.NewMemStore(), ServerOpts{Chunks: src})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() }) //nolint:errcheck

	c := dial(t, addr)
	enc, err := c.FetchManifest("img.vmic")
	if err != nil {
		t.Fatalf("FetchManifest: %v", err)
	}
	if !bytes.Equal(enc, src.manifests["img.vmic"]) {
		t.Fatalf("FetchManifest = %v", enc)
	}
	// Unknown manifests are NotFound and the connection survives.
	if _, err := c.FetchManifest("other.vmic"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown manifest: %v, want ErrNotFound", err)
	}
	// A one-chunk fetch echoes the blob bytes.
	blobs, err := c.FetchChunkBatch([][HashLen]byte{h2})
	if err != nil {
		t.Fatalf("FetchChunkBatch: %v", err)
	}
	if len(blobs) != 1 || !bytes.Equal(blobs[0], src.blobs[h2]) {
		t.Fatalf("FetchChunkBatch = %d blobs", len(blobs))
	}
	if _, err := c.FetchChunkBatch([][HashLen]byte{{0xFF}}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown chunk: %v, want ErrNotFound", err)
	}
	// Client-side validation: empty names never hit the wire.
	if _, err := c.FetchManifest(""); err == nil {
		t.Fatal("empty name accepted")
	}
	// Pipelined chunk fetches demultiplex correctly by request id.
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			h, want := h1, src.blobs[h1]
			if i%2 == 0 {
				h, want = h2, src.blobs[h2]
			}
			got, err := c.FetchChunkBatch([][HashLen]byte{h})
			if err != nil || len(got) != 1 || !bytes.Equal(got[0], want) {
				t.Errorf("pipelined fetch %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
}

// TestOpChunkWithoutSource: a server without a chunk source refuses
// manifests, and every server refuses the retired ops' wire codes — the
// single-range read (2), write (3), sync (4), truncate (5), stat (6) and
// single-chunk fetch (10) — as unknown ops, keeping the connection.
func TestOpChunkWithoutSource(t *testing.T) {
	src := &fakeChunks{blobs: map[[HashLen]byte][]byte{{1}: {1}}}
	for _, opts := range []ServerOpts{{}, {Chunks: src}} {
		_, addr, _ := newServer(t, opts)
		c := dial(t, addr)
		if opts.Chunks == nil {
			if _, err := c.FetchManifest("img.vmic"); !errors.Is(err, ErrBadRequest) {
				t.Fatalf("no chunk source: %v, want ErrBadRequest", err)
			}
		}
		for _, op := range []Op{2, 3, 4, 5, 6, 10} {
			req := getFrame()
			req.op, req.payload, req.aux = op, make([]byte, HashLen), 4096
			if _, err := c.roundTrip(req); !errors.Is(err, ErrBadRequest) {
				t.Fatalf("retired op %d: %v, want ErrBadRequest", op, err)
			}
		}
		if c.Stats().Broken != 0 {
			t.Fatal("a retired op broke the connection")
		}
	}
}

func TestOpChunkBatch(t *testing.T) {
	mk := func(i byte, size int) ([HashLen]byte, []byte) {
		return [HashLen]byte{i}, bytes.Repeat([]byte{i}, size)
	}
	src := &fakeChunks{blobs: map[[HashLen]byte][]byte{}}
	var hashes [][HashLen]byte
	for i := byte(1); i <= 5; i++ {
		h, b := mk(i, 1000*int(i))
		src.blobs[h] = b
		hashes = append(hashes, h)
	}
	srv := NewServer(backend.NewMemStore(), ServerOpts{Chunks: src})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() }) //nolint:errcheck
	c := dial(t, addr)

	// Full batch: every blob comes back in request order.
	blobs, err := c.FetchChunkBatch(hashes)
	if err != nil {
		t.Fatalf("FetchChunkBatch: %v", err)
	}
	if len(blobs) != len(hashes) {
		t.Fatalf("served %d of %d", len(blobs), len(hashes))
	}
	for i, b := range blobs {
		if !bytes.Equal(b, src.blobs[hashes[i]]) {
			t.Fatalf("record %d mismatch", i)
		}
	}

	// A hole mid-run truncates the reply to the held prefix.
	holed := append(append([][HashLen]byte{}, hashes[:2]...), [HashLen]byte{0xFF})
	holed = append(holed, hashes[2:]...)
	blobs, err = c.FetchChunkBatch(holed)
	if err != nil {
		t.Fatalf("partial batch: %v", err)
	}
	if len(blobs) != 2 {
		t.Fatalf("partial batch served %d, want 2", len(blobs))
	}

	// A missing first hash is NotFound; the connection survives.
	if _, err := c.FetchChunkBatch([][HashLen]byte{{0xFF}}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing first: %v, want ErrNotFound", err)
	}
	if _, err := c.FetchChunkBatch(hashes[:1]); err != nil {
		t.Fatalf("connection broken after NotFound: %v", err)
	}

	// Client-side bounds: empty and oversized batches never hit the wire.
	if _, err := c.FetchChunkBatch(nil); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("empty batch: %v", err)
	}
	if _, err := c.FetchChunkBatch(make([][HashLen]byte, MaxBatchChunks+1)); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("oversized batch: %v", err)
	}
}

// TestOpChunkBatchFrameCap checks the reply stops before exceeding the
// frame payload limit: chunks that would overflow are left for the next
// request.
func TestOpChunkBatchFrameCap(t *testing.T) {
	src := &fakeChunks{blobs: map[[HashLen]byte][]byte{}}
	var hashes [][HashLen]byte
	// Four 3 MiB blobs: only two fit under the 8 MiB frame cap.
	for i := byte(1); i <= 4; i++ {
		h := [HashLen]byte{i}
		src.blobs[h] = bytes.Repeat([]byte{i}, 3<<20)
		hashes = append(hashes, h)
	}
	srv := NewServer(backend.NewMemStore(), ServerOpts{Chunks: src})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() }) //nolint:errcheck
	c := dial(t, addr)
	blobs, err := c.FetchChunkBatch(hashes)
	if err != nil {
		t.Fatal(err)
	}
	if len(blobs) != 2 {
		t.Fatalf("served %d records, want 2 under frame cap", len(blobs))
	}
	for i, b := range blobs {
		if !bytes.Equal(b, src.blobs[hashes[i]]) {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

func TestOpChunkBatchWithoutSource(t *testing.T) {
	_, addr, _ := newServer(t, ServerOpts{})
	c := dial(t, addr)
	if _, err := c.FetchChunkBatch([][HashLen]byte{{1}}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("no chunk source: %v, want ErrBadRequest", err)
	}
}
