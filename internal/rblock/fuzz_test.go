package rblock

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/big"
	"net"
	"testing"

	"vmicache/internal/backend"
)

// refReadV is the reference OpReadV decoder: it splits the payload into
// records and sums their lengths in arbitrary precision, so no total can
// wrap. It returns the records, or ok=false for a payload the protocol
// calls malformed.
func refReadV(p []byte) (recs [][2]uint64, ok bool) {
	if len(p) == 0 || len(p)%12 != 0 {
		return nil, false
	}
	sum := new(big.Int)
	for r := p; len(r) > 0; r = r[12:] {
		off, n := binary.BigEndian.Uint64(r), uint64(binary.BigEndian.Uint32(r[8:]))
		end := new(big.Int).Add(new(big.Int).SetUint64(off), new(big.Int).SetUint64(n))
		if n == 0 || end.Cmp(big.NewInt(math.MaxInt64)) > 0 {
			return nil, false
		}
		sum.Add(sum, new(big.Int).SetUint64(n))
		recs = append(recs, [2]uint64{off, n})
	}
	if sum.Cmp(big.NewInt(maxReadV)) > 0 {
		return nil, false
	}
	return recs, true
}

// FuzzReadV feeds arbitrary OpReadV payloads to the server's validator: it
// must never panic, never accept a reply over maxReadV, and agree with the
// reference decoder on every payload and every record. Every payload it
// accepts is then served, by sendfile, from a small on-disk export, and the
// reply must be the reference bytes: the ranges in order, cut at the end of
// the file.
func FuzzReadV(f *testing.F) {
	_, addr, _, data := newDirServer(f, 64<<10+7, ServerOpts{})
	c := dial(f, addr)
	rf, err := c.Open("pub.img", true)
	if err != nil {
		f.Fatal(err)
	}
	rec := func(off uint64, n uint32) []byte {
		return binary.BigEndian.AppendUint32(binary.BigEndian.AppendUint64(nil, off), n)
	}
	cat := func(bs ...[]byte) []byte {
		var out []byte
		for _, b := range bs {
			out = append(out, b...)
		}
		return out
	}
	f.Add(rec(0, 4096))
	f.Add(cat(rec(0, 10), rec(1<<20, 100), rec(5, 1)))
	f.Add(cat(rec(0, maxReadV-1), rec(7, 1))) // exactly the cap
	f.Add(cat(rec(0, maxReadV), rec(0, 1)))   // one byte over
	f.Add(cat(rec(0, 0xffffffff), rec(0, 2))) // a u32 sum that wraps to 1
	f.Add(rec(1<<63, 1))                      // offset over MaxInt64
	f.Add(rec(math.MaxInt64-3, 4))            // range ends at MaxInt64
	f.Add(rec(math.MaxInt64-3, 5))            // range ends past it
	f.Add(cat(rec(0, 10), rec(100, 0)))       // a zero-length range
	f.Add(rec(0, 10)[:11])                    // not a whole record
	f.Add([]byte{})                           // no records
	f.Add(cat(rec(100, 50), rec(150, 50)))    // adjacent: one extent
	f.Add(cat(rec(64<<10, 100), rec(0, 8)))   // straddles the end of the file
	f.Add(cat(rec(0, 8), rec(1<<40, 8)))      // a range wholly past it
	f.Fuzz(func(t *testing.T, p []byte) {
		n, total, ok := checkReadV(p)
		want, wantOK := refReadV(p)
		if ok != wantOK {
			t.Fatalf("checkReadV ok=%v, the reference says %v", ok, wantOK)
		}
		if !ok {
			return
		}
		if total > maxReadV {
			t.Fatalf("accepted a %d-byte reply", total)
		}
		if n != len(want) {
			t.Fatalf("%d records, the reference decodes %d", n, len(want))
		}
		sum := 0
		for i := 0; i < n; i++ {
			off, l := readVRec(p, i)
			if off != want[i][0] || uint64(l) != want[i][1] {
				t.Fatalf("record %d = (%d, %d), the reference decodes %v", i, off, l, want[i])
			}
			sum += int(l)
		}
		if sum != total {
			t.Fatalf("total %d, the records sum to %d", total, sum)
		}
		got, err := rawReadV(c, rf.handle, p)
		if err != nil {
			t.Fatalf("serving an accepted payload: %v", err)
		}
		if ref := readVRef(data, want); !bytes.Equal(got, ref) {
			t.Fatalf("reply of %d B, the reference bytes are %d B", len(got), len(ref))
		}
	})
}

// fuzzStore exports two files under fixed names: "disk.img" from a DirStore,
// so its read-only handles carry a descriptor, and "mem.img" from a MemStore,
// so they carry none. Any other name is not found, so no fuzzed name reaches
// the file system.
type fuzzStore struct {
	disk *backend.DirStore
	mem  *backend.MemStore
}

func (s fuzzStore) Open(name string, ro bool) (backend.File, error) {
	switch name {
	case "disk.img":
		return s.disk.Open(name, ro)
	case "mem.img":
		return s.mem.Open(name, ro)
	}
	return nil, backend.ErrNotExist
}
func (s fuzzStore) Create(name string) (backend.File, error) { return nil, backend.ErrNotExist }
func (s fuzzStore) Remove(name string) error                 { return backend.ErrNotExist }
func (s fuzzStore) Stat(name string) (int64, error)          { return 0, backend.ErrNotExist }

// FuzzServerOp feeds arbitrary request frames (op, flags, handle, offset,
// aux, payload) to Server.handle over a connection holding handle 1,
// descriptor-backed, and handle 2, backed by memory. Every export is
// read-only: the retired write, sync, truncate and stat codes (3–6) answer
// StatusBadRequest before they reach a file, so a fuzzed offset or size
// cannot grow the memory file. Nothing may panic; the reply op is the request
// op with the reply flag; a failed status carries no payload or extents; no
// payload exceeds maxPayload; and once the reply's done hook has run, every
// open handle is back to the table's one reference.
func FuzzServerOp(f *testing.F) {
	disk, err := backend.NewDirStore(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	mem := backend.NewMemStore()
	data := make([]byte, 200<<10+3)
	for i := range data {
		data[i] = byte(i * 7)
	}
	for name, st := range map[string]backend.Store{"disk.img": disk, "mem.img": mem} {
		w, err := st.Create(name)
		if err != nil {
			f.Fatal(err)
		}
		if err := backend.WriteFull(w, data, 0); err != nil {
			f.Fatal(err)
		}
		if err := w.Close(); err != nil {
			f.Fatal(err)
		}
	}
	h1 := [HashLen]byte{1}
	srv := NewServer(fuzzStore{disk: disk, mem: mem}, ServerOpts{
		Maps: fakeMaps{"img": {1, 2, 3}},
		Chunks: &fakeChunks{
			manifests: map[string][]byte{"img": {4, 5}},
			blobs:     map[[HashLen]byte][]byte{h1: bytes.Repeat([]byte{1}, 1000)},
		},
	})
	rec := func(off uint64, n uint32) []byte {
		return binary.BigEndian.AppendUint32(binary.BigEndian.AppendUint64(nil, off), n)
	}
	for _, h := range []uint32{1, 2} {
		f.Add(uint8(OpReadV), uint8(flagReadOnly), h, uint64(0), uint64(0), rec(0, 4096))
		f.Add(uint8(OpReadV), uint8(flagReadOnly), h, uint64(0), uint64(0), append(rec(0, 64<<10), rec(200<<10, 100)...))
		f.Add(uint8(OpReadV), uint8(flagReadOnly), h, uint64(0), uint64(0), rec(1<<40, maxReadV))
		f.Add(uint8(6), uint8(flagReadOnly), h, uint64(0), uint64(0), []byte(nil)) // the retired stat
		f.Add(uint8(4), uint8(flagReadOnly), h, uint64(0), uint64(0), []byte(nil)) // the retired sync
		f.Add(uint8(OpClose), uint8(flagReadOnly), h, uint64(0), uint64(0), []byte(nil))
		f.Add(uint8(3), uint8(flagReadOnly), h, uint64(10), uint64(0), []byte("x"))    // the retired write
		f.Add(uint8(5), uint8(flagReadOnly), h, uint64(0), uint64(1<<62), []byte(nil)) // the retired truncate
	}
	f.Add(uint8(OpOpen), uint8(flagReadOnly), uint32(0), uint64(0), uint64(0), []byte("disk.img"))
	f.Add(uint8(OpOpen), uint8(flagReadOnly), uint32(0), uint64(0), uint64(0), []byte("../x"))
	f.Add(uint8(OpMap), uint8(flagReadOnly), uint32(0), uint64(0), uint64(0), []byte("img"))
	f.Add(uint8(OpManifest), uint8(flagReadOnly), uint32(0), uint64(0), uint64(0), []byte("img"))
	f.Add(uint8(OpChunkBatch), uint8(flagReadOnly), uint32(0), uint64(0), uint64(0), append(h1[:], make([]byte, HashLen)...))
	f.Add(uint8(2), uint8(flagReadOnly), uint32(1), uint64(0), uint64(4096), []byte(nil)) // the retired single-range read
	f.Add(uint8(10), uint8(flagReadOnly), uint32(0), uint64(0), uint64(0), h1[:])         // the retired single-chunk fetch
	f.Add(uint8(0xff), uint8(flagReadOnly), uint32(7), uint64(1), uint64(1), []byte{1})
	f.Add(uint8(OpOpen), uint8(0), uint32(0), uint64(0), uint64(0), []byte("disk.img")) // a writable open
	f.Fuzz(func(t *testing.T, op, flags uint8, handle uint32, offset, aux uint64, payload []byte) {
		cs := &connState{handles: map[uint32]*openHandle{}}
		defer func() {
			for _, oh := range cs.handles {
				oh.release()
			}
		}()
		for _, name := range []string{"disk.img", "mem.img"} {
			open := getFrame()
			open.op, open.flags, open.payload = OpOpen, flagReadOnly, []byte(name)
			resp := srv.handle(open, cs)
			if resp.status != StatusOK {
				t.Fatalf("opening %s: status %d", name, resp.status)
			}
			putFrame(resp)
			putFrame(open)
		}
		if cs.handles[1].sys == nil || cs.handles[2].sys != nil {
			t.Fatal("handle 1 must carry a descriptor and handle 2 none")
		}
		req := getFrame()
		req.op, req.flags, req.handle, req.offset, req.aux, req.payload = Op(op), flags, handle, offset, aux, payload
		resp := srv.handle(req, cs)
		putFrame(req)
		if resp.op != Op(op)|replyFlag {
			t.Fatalf("reply op %#x to op %#x", resp.op, op)
		}
		if resp.status != StatusOK && (len(resp.payload) > 0 || len(resp.vec) > 0 || len(resp.exts) > 0) {
			t.Fatalf("status %d carries %d B of payload, %d vec pieces, %d extents",
				resp.status, len(resp.payload), len(resp.vec), len(resp.exts))
		}
		if n := resp.payloadLen(); n > maxPayload {
			t.Fatalf("a %d B payload", n)
		}
		putFrame(resp)
		for h, oh := range cs.handles {
			if r := oh.refs.Load(); r != 1 {
				t.Fatalf("handle %d holds %d references after the reply, want 1", h, r)
			}
		}
	})
}

// FuzzChunkBatch answers a FetchChunkBatch of n hashes with a fuzzed record
// count (aux) and payload over a net.Pipe. Nothing may panic. A reply the
// reference parse accepts — 1 to n records of [u32 len][blob] that fill the
// payload exactly — comes back blob for blob; any other breaks the client
// with ErrBadFrame.
func FuzzChunkBatch(f *testing.F) {
	slab := func(blobs ...[]byte) []byte {
		var lens, body []byte
		for _, b := range blobs {
			lens = binary.BigEndian.AppendUint32(lens, uint32(len(b)))
			body = append(body, b...)
		}
		return append(lens, body...)
	}
	f.Add(uint8(2), uint64(2), slab([]byte("ab"), []byte("cde")))
	f.Add(uint8(3), uint64(1), slab([]byte("only")))
	f.Add(uint8(1), uint64(1), slab(nil))
	f.Add(uint8(1), uint64(0), slab([]byte("x")))              // no records
	f.Add(uint8(1), uint64(2), slab([]byte("x"), []byte{}))    // more records than hashes
	f.Add(uint8(2), uint64(2), slab([]byte("x"))[:5])          // slab shorter than its count
	f.Add(uint8(1), uint64(1), append(slab([]byte("x")), 9))   // a trailing byte
	f.Add(uint8(1), uint64(1), []byte{0xff, 0xff, 0xff, 0xff}) // a length past the payload
	f.Add(uint8(4), uint64(1)<<63, slab([]byte("x")))          // a count that overflows int
	f.Add(uint8(4), uint64(1)<<62+1, slab([]byte("x")))        // and one that wraps times 4
	f.Fuzz(func(t *testing.T, n uint8, aux uint64, payload []byte) {
		hashes := make([][HashLen]byte, int(n)%MaxBatchChunks+1)
		srvConn, cliConn := net.Pipe()
		defer srvConn.Close() //nolint:errcheck
		c := newClient(cliConn)
		defer c.Close() //nolint:errcheck
		go func() {
			req, err := readFrame(srvConn, nil, make([]byte, frameHeaderLen))
			if err != nil {
				return
			}
			reply := &frame{op: req.op | replyFlag, id: req.id, aux: aux, payload: payload}
			hdr := make([]byte, frameHeaderLen)
			encodeFrameHeader(hdr, reply)
			srvConn.Write(append(hdr, payload...)) //nolint:errcheck // the client may hang up
		}()
		blobs, err := c.FetchChunkBatch(hashes)
		want, ok := refChunkBatch(len(hashes), aux, payload)
		if !ok {
			c.mu.Lock()
			cause := c.broken
			c.mu.Unlock()
			if err == nil || !errors.Is(cause, ErrBadFrame) {
				t.Fatalf("a malformed reply: err %v, client broken by %v; want ErrBadFrame", err, cause)
			}
			return
		}
		if err != nil {
			t.Fatalf("a well-formed reply of %d records: %v", len(want), err)
		}
		if len(blobs) != len(want) {
			t.Fatalf("%d blobs, the reference parses %d", len(blobs), len(want))
		}
		for i := range want {
			if !bytes.Equal(blobs[i], want[i]) {
				t.Fatalf("blob %d differs from the reference", i)
			}
		}
	})
}

// refChunkBatch is the reference parse of an OpChunkBatch reply to n hashes:
// aux records, 1 to n of them, whose u32 lengths lead the payload and whose
// blobs fill the rest of it exactly.
func refChunkBatch(n int, aux uint64, p []byte) ([][]byte, bool) {
	if aux == 0 || aux > uint64(n) || uint64(len(p)) < 4*aux {
		return nil, false
	}
	body := p[4*aux:]
	var blobs [][]byte
	for i := uint64(0); i < aux; i++ {
		l := uint64(binary.BigEndian.Uint32(p[4*i:]))
		if l > uint64(len(body)) {
			return nil, false
		}
		blobs = append(blobs, body[:l])
		body = body[l:]
	}
	return blobs, len(body) == 0
}
