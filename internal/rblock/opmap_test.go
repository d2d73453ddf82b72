package rblock

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"vmicache/internal/backend"
)

// fakeMaps is a MapSource over a fixed name → encoding table.
type fakeMaps map[string][]byte

func (f fakeMaps) EncodedMap(name string) ([]byte, error) {
	enc, ok := f[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", backend.ErrNotExist, name)
	}
	return enc, nil
}

func TestOpMapRoundTrip(t *testing.T) {
	store := backend.NewMemStore()
	enc := []byte{1, 2, 3, 4, 5}
	srv := NewServer(store, ServerOpts{Maps: fakeMaps{"swarm:img.vmic": enc}})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() }) //nolint:errcheck

	c := dial(t, addr)
	got, err := c.FetchMap("swarm:img.vmic")
	if err != nil {
		t.Fatalf("FetchMap: %v", err)
	}
	if !bytes.Equal(got, enc) {
		t.Fatalf("FetchMap = %v, want %v", got, enc)
	}
	// Unknown names are a NotFound, and the connection survives.
	if _, err := c.FetchMap("swarm:other.vmic"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown map: %v, want ErrNotFound", err)
	}
	if got, err := c.FetchMap("swarm:img.vmic"); err != nil || !bytes.Equal(got, enc) {
		t.Fatalf("after miss: %v, %v", got, err)
	}
	// Client-side validation: empty names never hit the wire.
	if _, err := c.FetchMap(""); err == nil {
		t.Fatal("empty name accepted")
	}
}

func TestOpMapWithoutSource(t *testing.T) {
	_, addr, _ := newServer(t, ServerOpts{})
	c := dial(t, addr)
	if _, err := c.FetchMap("swarm:img.vmic"); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("no map source: %v, want ErrBadRequest", err)
	}
}

// unavailFile refuses reads below a validity watermark with ErrUnavail, the
// per-request refusal a partially warm swarm export uses.
type unavailFile struct {
	backend.File
	validBelow int64
}

func (f *unavailFile) ReadAt(p []byte, off int64) (int, error) {
	if off+int64(len(p)) > f.validBelow {
		return 0, ErrUnavail
	}
	return f.File.ReadAt(p, off)
}

// unavailStore serves one file, optionally refusing opens entirely.
type unavailStore struct {
	backend.Store
	wrap func(backend.File) backend.File
}

func (s *unavailStore) Open(name string, ro bool) (backend.File, error) {
	f, err := s.Store.Open(name, ro)
	if err != nil {
		return nil, err
	}
	return s.wrap(f), nil
}

func TestStatusUnavailRead(t *testing.T) {
	mem := backend.NewMemStore()
	f, err := mem.Create("part.img")
	if err != nil {
		t.Fatal(err)
	}
	seed := bytes.Repeat([]byte{0xAB}, 8<<10)
	if err := backend.WriteFull(f, seed, 0); err != nil {
		t.Fatal(err)
	}
	store := &unavailStore{Store: mem, wrap: func(f backend.File) backend.File {
		return &unavailFile{File: f, validBelow: 4 << 10}
	}}
	srv := NewServer(store, ServerOpts{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() }) //nolint:errcheck

	c := dial(t, addr)
	rf, err := c.Open("part.img", true)
	if err != nil {
		t.Fatal(err)
	}
	// A read past the watermark is refused per-request...
	buf := make([]byte, 4<<10)
	if _, err := rf.ReadAt(buf, 4<<10); !errors.Is(err, ErrUnavail) {
		t.Fatalf("read past watermark: %v, want ErrUnavail", err)
	}
	// ...and the connection is NOT poisoned: valid ranges still serve.
	if err := backend.ReadFull(rf, buf, 0); err != nil {
		t.Fatalf("read below watermark after refusal: %v", err)
	}
	if !bytes.Equal(buf, seed[:4<<10]) {
		t.Fatal("data mismatch after ErrUnavail refusal")
	}
}
