package nbd

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"testing"

	"vmicache/internal/backend"
	"vmicache/internal/boot"
	"vmicache/internal/qcow"
)

// memDevice adapts a MemFile to Device.
type memDevice struct {
	*backend.MemFile
	size int64
}

func (d memDevice) Size() int64 { return d.size }

func newTestServer(t *testing.T) (*Server, string) {
	t.Helper()
	srv := NewServer(t.Logf)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() }) //nolint:errcheck
	return srv, addr
}

func TestHandshakeAndIO(t *testing.T) {
	srv, addr := newTestServer(t)
	mf := backend.NewMemFileSize(1 << 20)
	srv.AddExport(Export{Name: "disk0", Device: memDevice{mf, 1 << 20}})

	c, err := Dial(addr, "disk0")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close() //nolint:errcheck
	if c.Size() != 1<<20 {
		t.Fatalf("size = %d", c.Size())
	}
	if c.readOnly {
		t.Fatal("export unexpectedly read-only")
	}
	data := []byte("over the wire block data")
	if _, err := c.WriteAt(data, 4096); err != nil {
		t.Fatal(err)
	}
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if _, err := c.ReadAt(got, 4096); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip mismatch")
	}
	if srv.ReadOps.Load() == 0 || srv.WriteOps.Load() == 0 || srv.FlushOps.Load() == 0 {
		t.Fatalf("server stats: r=%d w=%d f=%d",
			srv.ReadOps.Load(), srv.WriteOps.Load(), srv.FlushOps.Load())
	}
}

func TestReadOnlyExportRejectsWrites(t *testing.T) {
	srv, addr := newTestServer(t)
	srv.AddExport(Export{Name: "ro", Device: memDevice{backend.NewMemFileSize(4096), 4096}, ReadOnly: true})
	c, err := Dial(addr, "ro")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close() //nolint:errcheck
	if !c.readOnly {
		t.Fatal("transmission flags lost read-only bit")
	}
	if _, err := c.WriteAt([]byte{1}, 0); err == nil {
		t.Fatal("write to read-only export succeeded")
	}
}

func TestUnknownExportDropsConnection(t *testing.T) {
	_, addr := newTestServer(t)
	if _, err := Dial(addr, "nope"); err == nil {
		t.Fatal("attached to unknown export")
	}
}

func TestOutOfRangeIO(t *testing.T) {
	srv, addr := newTestServer(t)
	srv.AddExport(Export{Name: "d", Device: memDevice{backend.NewMemFileSize(8192), 8192}})
	c, err := Dial(addr, "d")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close() //nolint:errcheck
	if _, err := c.ReadAt(make([]byte, 16), 8192-8); err == nil {
		t.Fatal("out-of-range read succeeded")
	}
	if _, err := c.WriteAt(make([]byte, 16), 8192-8); err == nil {
		t.Fatal("out-of-range write succeeded")
	}
	// Connection must survive the errors.
	if _, err := c.ReadAt(make([]byte, 8), 0); err != nil {
		t.Fatalf("connection broken after error: %v", err)
	}
}

func TestList(t *testing.T) {
	srv, addr := newTestServer(t)
	srv.AddExport(Export{Name: "alpha", Device: memDevice{backend.NewMemFileSize(1), 1}})
	srv.AddExport(Export{Name: "beta", Device: memDevice{backend.NewMemFileSize(1), 1}})
	names, err := listExports(addr)
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(names)
	if len(names) != 2 || names[0] != "alpha" || names[1] != "beta" {
		t.Fatalf("names = %v", names)
	}
	srv.RemoveExport("beta")
	names, err = listExports(addr)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 {
		t.Fatalf("after remove: %v", names)
	}
}

func TestConcurrentClients(t *testing.T) {
	srv, addr := newTestServer(t)
	srv.AddExport(Export{Name: "d", Device: memDevice{backend.NewMemFileSize(1 << 20), 1 << 20}})
	const n = 6
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		i := i
		go func() {
			c, err := Dial(addr, "d")
			if err != nil {
				errs <- err
				return
			}
			defer c.Close() //nolint:errcheck
			region := int64(i) * 4096
			pat := bytes.Repeat([]byte{byte(i + 1)}, 4096)
			if _, err := c.WriteAt(pat, region); err != nil {
				errs <- err
				return
			}
			got := make([]byte, 4096)
			if _, err := c.ReadAt(got, region); err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(got, pat) {
				errs <- bytes.ErrTooLarge // any sentinel
				return
			}
			errs <- nil
		}()
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// The headline integration: a full base<-cache<-CoW chain exported over NBD
// and booted through the network block device, verified against the content
// oracle.
func TestBootChainOverNBD(t *testing.T) {
	const size = 4 << 20
	src := boot.PatternSource{Seed: 13, N: size}

	baseF := backend.NewMemFile()
	base, err := qcow.Create(baseF, qcow.CreateOpts{Size: size, ClusterBits: 16})
	if err != nil {
		t.Fatal(err)
	}
	base.SetBacking(qcow.RawSource{R: src, N: size})
	cache, err := qcow.Create(backend.NewMemFile(), qcow.CreateOpts{
		Size: size, ClusterBits: 9, BackingFile: "base", CacheQuota: size,
	})
	if err != nil {
		t.Fatal(err)
	}
	cache.SetBacking(base)
	cow, err := qcow.Create(backend.NewMemFile(), qcow.CreateOpts{
		Size: size, ClusterBits: 16, BackingFile: "cache",
	})
	if err != nil {
		t.Fatal(err)
	}
	cow.SetBacking(cache)

	srv, addr := newTestServer(t)
	srv.AddExport(Export{Name: "vm0", Device: chainDevice{cow}})

	c, err := Dial(addr, "vm0")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close() //nolint:errcheck

	prof := boot.Debian.Scale(0.01)
	prof.ImageSize = size
	w := boot.Generate(prof)
	res, err := boot.Replay(w, c, boot.ReplayOpts{})
	if err != nil {
		t.Fatalf("boot over NBD: %v", err)
	}
	if res.ReadBytes == 0 || res.WriteBytes == 0 {
		t.Fatalf("replay moved nothing: %+v", res)
	}
	if cache.Stats().CacheFillOps.Load() == 0 {
		t.Fatal("NBD boot did not warm the cache")
	}
	// Spot-check content through the device.
	got := make([]byte, 4096)
	if _, err := c.ReadAt(got, 64<<10); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, src.At(64<<10, 4096)) {
		t.Fatal("NBD content mismatch")
	}
}

// chainDevice adapts a qcow image to Device.
type chainDevice struct{ img *qcow.Image }

func (d chainDevice) ReadAt(p []byte, off int64) (int, error)  { return d.img.ReadAt(p, off) }
func (d chainDevice) WriteAt(p []byte, off int64) (int, error) { return d.img.WriteAt(p, off) }
func (d chainDevice) Size() int64                              { return d.img.Size() }
func (d chainDevice) Sync() error                              { return d.img.Sync() }

// listExports queries the server's export names via NBD_OPT_LIST on a fresh
// connection.
func listExports(addr string) ([]string, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	defer conn.Close() //nolint:errcheck // read-only negotiation probe
	be := binary.BigEndian
	var greet [18]byte
	if _, err := io.ReadFull(conn, greet[:]); err != nil {
		return nil, err
	}
	var opt [20]byte // client flags + NBD_OPT_LIST, one write
	be.PutUint32(opt[0:], flagNoZeroes)
	be.PutUint64(opt[4:], optMagic)
	be.PutUint32(opt[12:], optList)
	if _, err := conn.Write(opt[:]); err != nil {
		return nil, err
	}
	var names []string
	for {
		var rep [20]byte
		if _, err := io.ReadFull(conn, rep[:]); err != nil {
			return nil, err
		}
		if be.Uint64(rep[0:]) != repMagic {
			return nil, errors.New("nbd: bad option reply magic")
		}
		typ := be.Uint32(rep[12:])
		length := be.Uint32(rep[16:])
		payload := make([]byte, length)
		if _, err := io.ReadFull(conn, payload); err != nil {
			return nil, err
		}
		switch typ {
		case repServer:
			if length < 4 {
				return nil, errors.New("nbd: short list reply")
			}
			n := be.Uint32(payload)
			if int(n)+4 > len(payload) {
				return nil, errors.New("nbd: bad list reply")
			}
			names = append(names, string(payload[4:4+n]))
		case repAck:
			return names, nil
		default:
			return nil, fmt.Errorf("nbd: unexpected list reply type %#x", typ)
		}
	}
}
