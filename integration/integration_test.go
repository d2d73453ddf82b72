//go:build integration

// Package integration launches the repository's real daemons — rblockd as
// the storage node, vmicached as cache-manager nodes — as separate processes
// on localhost ports, provisions caches through them, and asserts the warm /
// peer / dedup counters over their metrics endpoints. No containers, no
// network beyond 127.0.0.1: `go test -tags integration ./integration/`.
package integration

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sync"
	"syscall"
	"testing"
	"time"

	"vmicache/internal/backend"
	"vmicache/internal/core"
	"vmicache/internal/dedup"
	"vmicache/internal/qcow"
	"vmicache/internal/rblock"
)

var binDir string

// TestMain builds the daemons once; every test execs the built binaries.
func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "vmicache-integ-bin-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer os.RemoveAll(dir) //nolint:errcheck // best-effort cleanup
	for _, c := range []string{"rblockd", "vmicached"} {
		cmd := exec.Command("go", "build", "-o", filepath.Join(dir, c), "./cmd/"+c)
		cmd.Dir = ".."
		if out, err := cmd.CombinedOutput(); err != nil {
			fmt.Fprintf(os.Stderr, "building %s: %v\n%s", c, err, out)
			os.Exit(1)
		}
	}
	binDir = dir
	os.Exit(m.Run())
}

// proc wraps one daemon process, merging its stdout+stderr into a log that
// waitFor scans (and the test dumps on failure).
type proc struct {
	t    *testing.T
	name string
	cmd  *exec.Cmd

	mu   sync.Mutex
	log  bytes.Buffer
	cond *sync.Cond
}

func start(t *testing.T, name string, args ...string) *proc {
	t.Helper()
	p := &proc{t: t, name: name, cmd: exec.Command(filepath.Join(binDir, name), args...)}
	p.cond = sync.NewCond(&p.mu)
	stdout, err := p.cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	p.cmd.Stderr = p.cmd.Stdout // one merged stream
	if err := p.cmd.Start(); err != nil {
		t.Fatalf("starting %s: %v", name, err)
	}
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			p.mu.Lock()
			p.log.WriteString(sc.Text())
			p.log.WriteByte('\n')
			p.cond.Broadcast()
			p.mu.Unlock()
		}
		p.mu.Lock()
		p.cond.Broadcast()
		p.mu.Unlock()
	}()
	t.Cleanup(func() { p.stop() })
	return p
}

// waitFor blocks until the merged log matches re, returning the first
// submatch (or the whole match).
func (p *proc) waitFor(re string, timeout time.Duration) string {
	p.t.Helper()
	rx := regexp.MustCompile(re)
	deadline := time.Now().Add(timeout)
	timer := time.AfterFunc(timeout, func() {
		p.mu.Lock()
		p.cond.Broadcast()
		p.mu.Unlock()
	})
	defer timer.Stop()
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if m := rx.FindStringSubmatch(p.log.String()); m != nil {
			if len(m) > 1 {
				return m[1]
			}
			return m[0]
		}
		if time.Now().After(deadline) {
			p.t.Fatalf("%s: no %q within %v; log:\n%s", p.name, re, timeout, p.log.String())
		}
		p.cond.Wait()
	}
}

func (p *proc) stop() {
	if p.cmd.Process == nil || p.cmd.ProcessState != nil {
		return
	}
	p.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // racing exit
	done := make(chan struct{})
	go func() { p.cmd.Wait(); close(done) }() //nolint:errcheck // exit status irrelevant
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		p.cmd.Process.Kill() //nolint:errcheck // last resort
		<-done
	}
}

// metricsOf fetches /metrics.json and sums values by metric name (labelled
// series of one name collapse into their total).
func metricsOf(t *testing.T, addr string) map[string]int64 {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/metrics.json")
	if err != nil {
		t.Fatalf("metrics %s: %v", addr, err)
	}
	defer resp.Body.Close() //nolint:errcheck
	var snap struct {
		Metrics []struct {
			Name  string `json:"name"`
			Value int64  `json:"value"`
		} `json:"metrics"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("metrics %s: %v", addr, err)
	}
	out := make(map[string]int64, len(snap.Metrics))
	for _, m := range snap.Metrics {
		out[m.Name] += m.Value
	}
	return out
}

// makeBase installs a patterned base image into the storage directory.
func makeBase(t *testing.T, dir, name string, content []byte) {
	t.Helper()
	st, err := backend.NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	size := int64(len(content))
	f := backend.NewMemFileSize(size)
	if err := backend.WriteFull(f, content, 0); err != nil {
		t.Fatal(err)
	}
	ns := core.NewNamespace("s", st)
	if err := core.CreateBase(ns, core.Locator{Store: "s", Name: name}, size, 12,
		qcow.RawSource{R: f, N: size}); err != nil {
		t.Fatalf("CreateBase %s: %v", name, err)
	}
}

const imageSize = 4 << 20

// TestStorageExportReadOnly checks the real rblockd's export over the wire:
// an OpOpen frame without the read-only flag is answered StatusReadOnly, a
// name that climbs out of the export directory is refused, so a file beside
// it is never served, and a read-only open of a name inside still works.
func TestStorageExportReadOnly(t *testing.T) {
	root := t.TempDir()
	exportDir := filepath.Join(root, "export")
	if err := os.Mkdir(exportDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "secret"), []byte("outside the export"), 0o644); err != nil {
		t.Fatal(err)
	}
	v1 := make([]byte, imageSize)
	rand.New(rand.NewSource(1)).Read(v1)
	makeBase(t, exportDir, "v1.img", v1)
	storage := start(t, "rblockd", "-addr", "127.0.0.1:0", "-dir", exportDir)
	addr := storage.waitFor(`rblockd: exporting .* on ([0-9.:]+) \(`, 10*time.Second)

	// A raw writable OpOpen: the 36-byte frame header, then the name.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close() //nolint:errcheck
	name := []byte("v1.img")
	hdr := make([]byte, 36)
	binary.BigEndian.PutUint32(hdr[0:], rblock.Magic)
	hdr[4] = byte(rblock.OpOpen) // flags (hdr[5]) 0: writable
	binary.BigEndian.PutUint32(hdr[8:], 1)
	binary.BigEndian.PutUint32(hdr[24:], uint32(len(name)))
	if _, err := conn.Write(append(hdr, name...)); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck
	if _, err := io.ReadFull(conn, hdr); err != nil {
		t.Fatalf("reply to a writable open: %v", err)
	}
	if st := binary.BigEndian.Uint16(hdr[6:]); hdr[4] != byte(rblock.OpOpen)|0x80 || uint32(st) != rblock.StatusReadOnly {
		t.Fatalf("writable open answered op %#x status %d, want %#x and StatusReadOnly", hdr[4], st, byte(rblock.OpOpen)|0x80)
	}

	c, err := rblock.Dial(addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close() //nolint:errcheck
	for _, n := range []string{"../secret", filepath.Join(root, "secret")} {
		if _, err := c.Open(n, true); !errors.Is(err, rblock.ErrBadRequest) {
			t.Fatalf("Open(%q): %v, want ErrBadRequest", n, err)
		}
	}
	f, err := c.Open("v1.img", true)
	if err != nil {
		t.Fatalf("read-only open after the refusals: %v", err)
	}
	defer f.Close() //nolint:errcheck
	if size, _ := f.Size(); size == 0 {
		t.Fatal("the base opened empty")
	}
}

// TestClusterProvisioning is the end-to-end multi-node path over real
// processes: storage node → node A (cold warms + dedup manifests) → node B
// (manifest-first delta warm from A), then a restart of B warming the
// sibling image to prove delta-only transfer; finally the published cache is
// pulled off B's export and its content verified chunk by chunk.
func TestClusterProvisioning(t *testing.T) {
	// Sibling bases: v2 is v1 with the last eighth rewritten.
	v1 := make([]byte, imageSize)
	rand.New(rand.NewSource(1)).Read(v1)
	v2 := append([]byte{}, v1...)
	rand.New(rand.NewSource(2)).Read(v2[imageSize*7/8:])
	storageDir := t.TempDir()
	makeBase(t, storageDir, "v1.img", v1)
	makeBase(t, storageDir, "v2.img", v2)

	storage := start(t, "rblockd", "-addr", "127.0.0.1:0", "-dir", storageDir)
	storageAddr := storage.waitFor(`rblockd: exporting .* on ([0-9.:]+) \(`, 10*time.Second)

	// Node A: dedup on, no peers — both images cold-warm from storage.
	dirA := t.TempDir()
	a := start(t, "vmicached",
		"-dir", dirA, "-storage", storageAddr, "-dedup",
		"-export", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0",
		"-warm", "v1.img,v2.img")
	aExport := a.waitFor(`vmicached: exporting published caches on ([0-9.:]+)`, 10*time.Second)
	aMetrics := a.waitFor(`vmicached: metrics on http://([0-9.:]+)/metrics`, 10*time.Second)
	a.waitFor(`v1\.img ready as (\S+)`, 60*time.Second)
	keyV2 := a.waitFor(`v2\.img ready as (\S+)`, 60*time.Second)

	am := metricsOf(t, aMetrics)
	if got := am["vmicache_cachemgr_cold_warms_total"]; got != 2 {
		t.Errorf("A cold warms = %d, want 2", got)
	}
	if got := am["vmicache_cachemgr_published_total"]; got != 2 {
		t.Errorf("A published = %d, want 2", got)
	}
	if got := am["vmicache_dedup_manifests"]; got != 2 {
		t.Errorf("A dedup manifests = %d, want 2", got)
	}
	if am["vmicache_dedup_shared_bytes"] == 0 {
		t.Error("A's sibling caches share no chunks")
	}
	if got := am["vmicache_dedup_ratio_percent"]; got < 30 {
		t.Errorf("A dedup ratio = %d%%, want >= 30%% for 7/8-identical siblings", got)
	}

	// Node B: peer of A — v1 must arrive manifest-first, not wholesale and
	// not from storage.
	dirB := t.TempDir()
	b := start(t, "vmicached",
		"-dir", dirB, "-storage", storageAddr, "-dedup",
		"-peers", aExport,
		"-export", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0",
		"-warm", "v1.img")
	bMetrics := b.waitFor(`vmicached: metrics on http://([0-9.:]+)/metrics`, 10*time.Second)
	b.waitFor(`v1\.img ready as (\S+)`, 60*time.Second)

	bm := metricsOf(t, bMetrics)
	if got := bm["vmicache_dedup_delta_warms_total"]; got != 1 {
		t.Errorf("B delta warms = %d, want 1", got)
	}
	if got := bm["vmicache_cachemgr_cold_warms_total"]; got != 0 {
		t.Errorf("B cold warms = %d, want 0", got)
	}
	if got := bm["vmicache_cachemgr_peer_fetches_total"]; got != 0 {
		t.Errorf("B wholesale peer fetches = %d, want 0 (manifest-first path)", got)
	}
	fullWire := bm["vmicache_dedup_delta_bytes_total"]
	if fullWire < imageSize {
		t.Errorf("B's cold pull moved %d bytes, below the image size %d", fullWire, imageSize)
	}
	b.stop()

	// B restarts and warms the sibling: its dedup store survives, so only
	// v2's delta should cross the wire.
	b2 := start(t, "vmicached",
		"-dir", dirB, "-storage", storageAddr, "-dedup",
		"-peers", aExport,
		"-export", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0",
		"-warm", "v2.img")
	b2Export := b2.waitFor(`vmicached: exporting published caches on ([0-9.:]+)`, 10*time.Second)
	b2Metrics := b2.waitFor(`vmicached: metrics on http://([0-9.:]+)/metrics`, 10*time.Second)
	b2.waitFor(`v2\.img ready as (\S+)`, 60*time.Second)

	b2m := metricsOf(t, b2Metrics)
	if got := b2m["vmicache_dedup_delta_warms_total"]; got != 1 {
		t.Errorf("B2 delta warms = %d, want 1", got)
	}
	deltaWire := b2m["vmicache_dedup_delta_bytes_total"]
	if deltaWire == 0 || deltaWire > imageSize/2 {
		t.Errorf("B2's sibling pull moved %d bytes, want (0, %d]: delta-only transfer", deltaWire, imageSize/2)
	}
	if b2m["vmicache_dedup_reused_bytes_total"] == 0 {
		t.Error("B2 reused nothing from its surviving dedup store")
	}

	// End to end across processes: fetch v2's manifest and a chunk from
	// B2's export over the chunk protocol, then pull the whole published
	// cache wholesale and verify the guest view against the pattern.
	c, err := rblock.Dial(b2Export, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close() //nolint:errcheck
	enc, err := c.FetchManifest(keyV2)
	if err != nil {
		t.Fatalf("FetchManifest(%s): %v", keyV2, err)
	}
	man, err := dedup.DecodeManifest(enc)
	if err != nil {
		t.Fatal(err)
	}
	blobs, err := c.FetchChunkBatch([][rblock.HashLen]byte{[rblock.HashLen]byte(man.Entries[0].Hash)})
	if err != nil {
		t.Fatalf("FetchChunkBatch: %v", err)
	}
	if _, err := dedup.DecodeBlob(man.Entries[0].Hash, blobs[0]); err != nil {
		t.Fatalf("fetched chunk fails verification: %v", err)
	}

	localDir := t.TempDir()
	local, err := backend.NewDirStore(localDir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := backend.CopyFile(local, keyV2, rblock.RemoteStore{C: c}, keyV2); err != nil {
		t.Fatalf("wholesale pull of %s: %v", keyV2, err)
	}
	sc, err := rblock.Dial(storageAddr, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close() //nolint:errcheck
	ns := core.NewNamespace("nodecache", local)
	ns.Register("storage", rblock.RemoteStore{C: sc})
	chain, err := core.OpenChain(ns, core.Locator{Store: "nodecache", Name: keyV2},
		core.ChainOpts{BackingReadOnly: true})
	if err != nil {
		t.Fatalf("opening fetched cache: %v", err)
	}
	defer chain.Close() //nolint:errcheck
	buf := make([]byte, imageSize)
	if err := backend.ReadFull(chain, buf, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, v2) {
		t.Fatal("fetched cache serves wrong content")
	}
}
