package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"vmicache/internal/backend"
	"vmicache/internal/boot"
	"vmicache/internal/qcow"
	"vmicache/internal/trace"
)

// Everything the benchmark writes stays inside the checkout: binaries and
// per-run scratch under buildDirName, results and logs under bench/out.
const (
	buildDirName = ".bench_build"
	baseBits     = 16 // 64 KiB base clusters, QCOW2's default

	v1Name = "v1.img"
	v2Name = "v2.img"

	// seedV1 is the content seed of v1 (and of v2 outside its rewritten
	// tail). It is fixed: --seed draws the update, v2's tail. Chunk boundaries
	// are content-defined, so seeding v1 too moved delta_update's wire bytes
	// by 10 % between seeds for reasons no change to the code could alter,
	// while the four workloads that never read v2 are content-blind anyway.
	seedV1 = 0x5eed1
)

// findRoot walks up from the working directory to the root module's go.mod
// (`go run -C bench` starts the program in bench/).
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		b, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(strings.TrimSpace(string(b)), "module vmicache\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("bench/e2e must run inside a vmicache checkout (no go.mod with `module vmicache` above the working directory)")
		}
		dir = parent
	}
}

// buildDaemons compiles the real rblockd and vmicached from the checkout and
// reports how long that took (near zero once the go build cache is warm).
func buildDaemons(root string) (binDir string, seconds float64, err error) {
	binDir = filepath.Join(root, buildDirName, "bin")
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return "", 0, err
	}
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", binDir+string(filepath.Separator), "./cmd/rblockd", "./cmd/vmicached")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("building daemons: %v\n%s", err, out)
	}
	return binDir, time.Since(start).Seconds(), nil
}

// mix64 and patternFill reproduce boot.PatternSource a word at a time (the
// exported ReadAt mixes once per byte, eight times the work). The oracle the
// outputs are checked against stays boot.PatternSource itself, so a
// divergence here fails verification.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

func patternFill(seed int64, p []byte, off int64) {
	for i := 0; i+8 <= len(p); i += 8 {
		pos := off + int64(i)
		binary.LittleEndian.PutUint64(p[i:], mix64(uint64(seed)^uint64(pos>>3)*0x9e3779b97f4a7c15))
	}
}

// imageContent is a base image's content: seed's pattern, with the virtual
// range [tailFrom, n) drawn from tailSeed instead (tailFrom == n for v1).
type imageContent struct {
	seed, tailSeed int64
	tailFrom, n    int64
}

func v1Content(n int64) imageContent { return imageContent{seedV1, seedV1, n, n} }

// v2Content is v1 with the last eighth of the disk rewritten from seed — an
// image update.
func v2Content(seed, n int64) imageContent {
	// Mixed, so that no small --seed lands on seedV1 and makes v2 equal v1.
	return imageContent{seedV1, int64(mix64(uint64(seed))), n / 8 * 7, n}
}

func (c imageContent) Size() int64 { return c.n }

// ReadAt serves 8-byte-aligned requests (createBase reads whole clusters).
func (c imageContent) ReadAt(p []byte, off int64) (int, error) {
	if off%8 != 0 || len(p)%8 != 0 || c.tailFrom%8 != 0 {
		return 0, fmt.Errorf("imageContent: unaligned read %d+%d", off, len(p))
	}
	if off+int64(len(p)) > c.n {
		return 0, io.ErrUnexpectedEOF
	}
	head := c.head(off, int64(len(p)))
	patternFill(c.seed, p[:head], off)
	patternFill(c.tailSeed, p[head:], off+head)
	return len(p), nil
}

// head is how many of the n bytes at off lie before the rewritten tail.
func (c imageContent) head(off, n int64) int64 {
	return max(0, min(n, c.tailFrom-off))
}

// oracle returns the expected bytes of [off, off+n) from boot.PatternSource.
func (c imageContent) oracle(off, n int64) []byte {
	out := make([]byte, n)
	head := c.head(off, n)
	boot.PatternSource{Seed: c.seed, N: c.n}.ReadAt(out[:head], off)          //nolint:errcheck // in range
	boot.PatternSource{Seed: c.tailSeed, N: c.n}.ReadAt(out[head:], off+head) //nolint:errcheck // in range
	return out
}

// touchedClusters is every base cluster some workload can reach: the hull, in
// whole base clusters, of the cache warm plan and of every guest read and
// write (a guest write pulls its enclosing CoW cluster through the chain).
func touchedClusters(w *boot.Workload) *trace.IntervalSet {
	const cs = 1 << baseBits
	var set trace.IntervalSet
	add := func(off, n int64) { set.Add(off/cs*cs, min((off+n+cs-1)/cs*cs, w.Profile.ImageSize)) }
	for _, e := range w.PrefetchPlan(profilePlanGap, profilePlanMaxLen) {
		add(e.Off, e.Len)
	}
	for _, op := range w.Ops {
		if op.Kind != boot.Flush {
			add(op.Off, op.Len)
		}
	}
	return &set
}

// createBase writes a thin base image: full virtual size and geometry, but
// only the touched clusters carry content — for every byte a workload can
// read it is indistinguishable from core.CreateBase over the whole pattern.
// Writing (and fsyncing) all of a 1 GiB base took 1.2–2.0 s per set-up with a
// bimodal spread, which made setup_s a measure of the sandbox's disk.
func createBase(dir, name string, content imageContent, touched *trace.IntervalSet) (err error) {
	f, err := backend.CreateOSFile(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	img, err := qcow.Create(f, qcow.CreateOpts{Size: content.n, ClusterBits: baseBits})
	if err != nil {
		f.Close() //nolint:errcheck // release the container on create failure
		return fmt.Errorf("creating %s: %w", name, err)
	}
	defer func() {
		if cerr := img.Close(); err == nil {
			err = cerr
		}
	}()
	buf := make([]byte, 1<<20)
	touched.Each(func(start, end int64) {
		for off := start; off < end && err == nil; off += int64(len(buf)) {
			p := buf[:min(int64(len(buf)), end-off)]
			if _, err = content.ReadAt(p, off); err == nil {
				err = backend.WriteFull(img, p, off)
			}
		}
	})
	if err != nil {
		return fmt.Errorf("filling %s: %w", name, err)
	}
	return nil
}

// guestProfile is the boot profile both sides derive from the base size, the
// way cachemgr's profile-guided warm does: vmicached's `-warm-profile centos`
// fixes the profile seed, so the replayed guest reads exactly the footprint
// the published caches hold and --seed varies the image update's content only.
func guestProfile(baseSize int64) boot.Profile {
	p := boot.CentOS
	p = p.Scale(float64(baseSize) / float64(p.ImageSize))
	p.ImageSize = baseSize
	return p
}

// verifier builds the boot.ReplayOpts.Verify oracle for one guest: reads are
// checked against the image content except where the guest's own writes
// overlap (those ranges hold mixed guest/base bytes).
func verifier(w *boot.Workload, content imageContent) func(off, n int64) []byte {
	var written trace.IntervalSet
	for _, op := range w.Ops {
		if op.Kind == boot.Write {
			written.Add(op.Off, op.Off+op.Len)
		}
	}
	return func(off, n int64) []byte {
		if written.Overlap(off, off+n) > 0 {
			return nil
		}
		return content.oracle(off, n)
	}
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if fi.Mode().IsRegular() {
			total += fi.Size()
		}
		return nil
	})
	return total, err
}

// cacheValidBytes sums the virtual bytes held by the published caches in dir.
func cacheValidBytes(dir string) (int64, error) {
	names, err := filepath.Glob(filepath.Join(dir, "*.vmic"))
	if err != nil {
		return 0, err
	}
	var total int64
	for _, path := range names {
		f, err := backend.OpenOSFile(path, true)
		if err != nil {
			return 0, err
		}
		img, err := qcow.Open(f, qcow.OpenOpts{ReadOnly: true})
		if err != nil {
			f.Close() //nolint:errcheck // read-only handle
			return 0, fmt.Errorf("opening %s: %w", path, err)
		}
		info, err := img.Info()
		img.Close() //nolint:errcheck // read-only handle
		if err != nil {
			return 0, err
		}
		total += info.DataClusters * info.ClusterSize
	}
	return total, nil
}

// linkTree restores a node directory from a template (delta_update's v1
// cache plus blob store) by hard-linking its files, which costs a fifth of
// copying them and leaves more of the run for timed ops. Every file there is
// immutable: published caches are 0444, and the blob store only ever replaces
// a blob or manifest by writing a temp file and renaming it.
func linkTree(dst, src string) error {
	return filepath.Walk(src, func(path string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if fi.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		return os.Link(path, filepath.Join(dst, rel))
	})
}
