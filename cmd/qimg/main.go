// Command qimg is the repository's qemu-img analogue: it creates and
// inspects images, including the two-step cache→CoW workflow of §4.4.
//
// Usage:
//
//	qimg create [-C dir] [-size N] [-cluster-bits B] [-backing NAME] [-quota N] [-subclusters] NAME
//	qimg info   [-C dir] [-metrics] NAME
//	qimg check  [-C dir] NAME
//	qimg map    [-C dir] NAME
//	qimg warm   [-C dir] [-spans off:len,...] [-profile NAME] NAME
//	qimg read   [-C dir] -off N -len N NAME        (hex dump to stdout)
//	qimg write  [-C dir] -off N -data STRING NAME
//	qimg commit [-C dir] NAME                      (merge into backing)
//	qimg convert [-C dir] [-c] SRC DST             (copy guest view; -c compresses)
//	qimg disclosure [-C dir] NAME                  (cache fill-order spans)
//	qimg dedup  [-C dir] FILE...                   (what-if chunk sharing report)
//	qimg dedup  -store DIR                         (inspect a dedup store offline)
//
// NAME is resolved inside the working directory given by -C (default ".");
// backing names recorded in image headers resolve in the same directory.
package main

import (
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"

	"vmicache/internal/backend"
	"vmicache/internal/core"
	"vmicache/internal/dedup"
	"vmicache/internal/metrics"
	"vmicache/internal/qcow"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "create":
		err = cmdCreate(args)
	case "info":
		err = cmdInfo(args)
	case "check":
		err = cmdCheck(args)
	case "map":
		err = cmdMap(args)
	case "warm":
		err = cmdWarm(args)
	case "read":
		err = cmdRead(args)
	case "write":
		err = cmdWrite(args)
	case "commit":
		err = cmdCommit(args)
	case "convert":
		err = cmdConvert(args)
	case "disclosure":
		err = cmdDisclosure(args)
	case "dedup":
		err = cmdDedup(args)
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "qimg: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "qimg %s: %v\n", cmd, err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `qimg — VM image tool (QCOW2-style with VMI-cache extension)

commands:
  create  create a base, CoW or cache image (-quota makes it a cache)
  info    print image geometry and cache state
  check   verify metadata/refcount consistency
  map     print allocation extents
  warm    populate a cache image from its backing with the spans of a plan
  read    read guest bytes (hex dump)
  write   write guest bytes
  commit  merge an image's data into its backing image (qemu-img commit)
  convert copy an image's guest view into a new image (-c compresses)
  disclosure  print a cache image's inferred future-access list (§7.3)
  dedup   chunk files and report sharing (-store inspects a dedup store)`)
}

// nsFor builds a namespace rooted at dir.
func nsFor(dir string) (*core.Namespace, error) {
	st, err := backend.NewDirStore(dir)
	if err != nil {
		return nil, err
	}
	return core.NewNamespace("dir", st), nil
}

func oneName(fs *flag.FlagSet) (string, error) {
	if fs.NArg() != 1 {
		return "", fmt.Errorf("expected exactly one image name, got %d args", fs.NArg())
	}
	return fs.Arg(0), nil
}

func cmdCreate(args []string) error {
	fs := flag.NewFlagSet("create", flag.ExitOnError)
	dir := fs.String("C", ".", "working directory")
	size := fs.Int64("size", 0, "virtual size in bytes (default: backing image's size)")
	bits := fs.Int("cluster-bits", 0, "cluster bits (9..21; default 16, caches default 9)")
	backing := fs.String("backing", "", "backing image name")
	quota := fs.Int64("quota", 0, "cache quota in bytes (non-zero creates a cache image, §4.4)")
	subclusters := fs.Bool("subclusters", false, "track 4 KiB sub-cluster validity in the cache (partial fills)")
	fs.Parse(args) //nolint:errcheck // ExitOnError
	name, err := oneName(fs)
	if err != nil {
		return err
	}
	ns, err := nsFor(*dir)
	if err != nil {
		return err
	}
	loc := core.Locator{Store: "dir", Name: name}
	back := core.Locator{Store: "dir", Name: *backing}
	sz := *size
	if sz == 0 {
		if *backing == "" {
			return fmt.Errorf("need -size (or -backing to inherit its size)")
		}
		if sz, err = core.VirtualSizeOf(ns, back); err != nil {
			return err
		}
	}
	switch {
	case *quota > 0:
		if *backing == "" {
			return fmt.Errorf("a cache image needs -backing")
		}
		if err := core.CreateCacheSub(ns, loc, back, sz, *quota, *bits, *subclusters); err != nil {
			return err
		}
		sc := ""
		if *subclusters {
			sc = " subclusters=4K"
		}
		fmt.Printf("created cache image %s (size=%d quota=%d%s)\n", name, sz, *quota, sc)
	case *subclusters:
		return fmt.Errorf("-subclusters requires a cache image (-quota and -backing)")
	case *backing != "":
		if err := core.CreateCoW(ns, loc, back, sz, *bits); err != nil {
			return err
		}
		fmt.Printf("created CoW image %s (size=%d backing=%s)\n", name, sz, *backing)
	default:
		if err := core.CreateBase(ns, loc, sz, *bits, nil); err != nil {
			return err
		}
		fmt.Printf("created base image %s (size=%d)\n", name, sz)
	}
	return nil
}

// openOne opens a single image (without its chain) read-only for
// inspection.
func openOne(dir, name string) (*qcow.Image, error) {
	st, err := backend.NewDirStore(dir)
	if err != nil {
		return nil, err
	}
	f, err := st.Open(name, true)
	if err != nil {
		return nil, err
	}
	img, err := qcow.Open(f, qcow.OpenOpts{ReadOnly: true})
	if err != nil {
		f.Close() //nolint:errcheck
		return nil, err
	}
	return img, nil
}

func cmdInfo(args []string) error {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	dir := fs.String("C", ".", "working directory")
	showMetrics := fs.Bool("metrics", false, "also print the image's registry snapshot (Prometheus text)")
	fs.Parse(args) //nolint:errcheck
	name, err := oneName(fs)
	if err != nil {
		return err
	}
	img, err := openOne(*dir, name)
	if err != nil {
		return err
	}
	defer img.Close() //nolint:errcheck
	info, err := img.Info()
	if err != nil {
		return err
	}
	fmt.Printf("image: %s\n%s", name, info)
	if *showMetrics {
		reg := metrics.NewRegistry()
		img.RegisterMetrics(reg, metrics.Labels{"image": name})
		fmt.Println()
		if _, err := reg.WritePrometheus(os.Stdout); err != nil {
			return err
		}
	}
	return nil
}

func cmdCheck(args []string) error {
	fs := flag.NewFlagSet("check", flag.ExitOnError)
	dir := fs.String("C", ".", "working directory")
	fs.Parse(args) //nolint:errcheck
	name, err := oneName(fs)
	if err != nil {
		return err
	}
	img, err := openOne(*dir, name)
	if err != nil {
		return err
	}
	defer img.Close() //nolint:errcheck
	res, err := img.Check()
	if err != nil {
		return err
	}
	fmt.Print(res)
	if !res.OK() {
		return fmt.Errorf("image is inconsistent")
	}
	return nil
}

func cmdMap(args []string) error {
	fs := flag.NewFlagSet("map", flag.ExitOnError)
	dir := fs.String("C", ".", "working directory")
	fs.Parse(args) //nolint:errcheck
	name, err := oneName(fs)
	if err != nil {
		return err
	}
	img, err := openOne(*dir, name)
	if err != nil {
		return err
	}
	defer img.Close() //nolint:errcheck
	extents, err := img.Map()
	if err != nil {
		return err
	}
	fmt.Printf("%-14s %-14s %-10s %s\n", "start", "length", "mapped", "phys")
	for _, e := range extents {
		state := "backing/zero"
		phys := "-"
		if e.Allocated {
			state = "allocated"
			phys = fmt.Sprintf("%#x", e.PhysOff)
		}
		fmt.Printf("%#-14x %#-14x %-10s %s\n", e.Start, e.Length, state, phys)
	}
	return nil
}

func parseSpans(s string) ([]core.Span, error) {
	if s == "" {
		return nil, nil
	}
	var out []core.Span
	for _, part := range strings.Split(s, ",") {
		bits := strings.SplitN(part, ":", 2)
		if len(bits) != 2 {
			return nil, fmt.Errorf("bad span %q (want off:len)", part)
		}
		off, err := strconv.ParseInt(bits[0], 0, 64)
		if err != nil {
			return nil, err
		}
		n, err := strconv.ParseInt(bits[1], 0, 64)
		if err != nil {
			return nil, err
		}
		out = append(out, core.Span{Off: off, Len: n})
	}
	return out, nil
}

// parseSize parses "1073741824", "1G", "512M", "64K".
func parseSize(s string) (int64, error) {
	if s == "" {
		return 0, nil
	}
	mult := int64(1)
	switch s[len(s)-1] {
	case 'k', 'K':
		mult, s = 1<<10, s[:len(s)-1]
	case 'm', 'M':
		mult, s = 1<<20, s[:len(s)-1]
	case 'g', 'G':
		mult, s = 1<<30, s[:len(s)-1]
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, err
	}
	return n * mult, nil
}

func cmdWarm(args []string) error {
	fs := flag.NewFlagSet("warm", flag.ExitOnError)
	dir := fs.String("C", ".", "working directory")
	spansArg := fs.String("spans", "", "comma-separated off:len spans to read (default: 0:1MiB)")
	profile := fs.String("profile", "", "derive the warm plan from a boot profile (centos/debian/windows)")
	fs.Parse(args) //nolint:errcheck
	name, err := oneName(fs)
	if err != nil {
		return err
	}
	ns, err := nsFor(*dir)
	if err != nil {
		return err
	}
	spans, err := parseSpans(*spansArg)
	if err != nil {
		return err
	}
	c, err := core.OpenChain(ns, core.Locator{Store: "dir", Name: name}, core.ChainOpts{})
	if err != nil {
		return err
	}
	defer c.Close() //nolint:errcheck
	if len(spans) == 0 && *profile != "" {
		spans, err = core.ProfileSpans(*profile, c.Size())
		if err != nil {
			return err
		}
	}
	if len(spans) == 0 {
		spans = []core.Span{{Off: 0, Len: 1 << 20}}
	}
	n, err := core.Warm(c, spans)
	if err != nil {
		return err
	}
	if err := c.Sync(); err != nil {
		return err
	}
	if cache := c.CacheImage(); cache != nil {
		fmt.Printf("warmed %d bytes; cache used %d of quota %d (%d fills)\n",
			n, cache.UsedBytes(), cache.Quota(), cache.Stats().CacheFillOps.Load())
	} else {
		fmt.Printf("read %d bytes (no cache image in chain)\n", n)
	}
	return nil
}

func cmdRead(args []string) error {
	fs := flag.NewFlagSet("read", flag.ExitOnError)
	dir := fs.String("C", ".", "working directory")
	off := fs.Int64("off", 0, "guest offset")
	n := fs.Int64("len", 512, "bytes to read")
	fs.Parse(args) //nolint:errcheck
	name, err := oneName(fs)
	if err != nil {
		return err
	}
	ns, err := nsFor(*dir)
	if err != nil {
		return err
	}
	c, err := core.OpenChain(ns, core.Locator{Store: "dir", Name: name}, core.ChainOpts{TopReadOnly: true})
	if err != nil {
		return err
	}
	defer c.Close() //nolint:errcheck
	buf := make([]byte, *n)
	if err := backend.ReadFull(c, buf, *off); err != nil {
		return err
	}
	fmt.Print(hex.Dump(buf))
	return nil
}

func cmdWrite(args []string) error {
	fs := flag.NewFlagSet("write", flag.ExitOnError)
	dir := fs.String("C", ".", "working directory")
	off := fs.Int64("off", 0, "guest offset")
	data := fs.String("data", "", "bytes to write (literal string)")
	fs.Parse(args) //nolint:errcheck
	name, err := oneName(fs)
	if err != nil {
		return err
	}
	if *data == "" {
		return fmt.Errorf("need -data")
	}
	ns, err := nsFor(*dir)
	if err != nil {
		return err
	}
	c, err := core.OpenChain(ns, core.Locator{Store: "dir", Name: name}, core.ChainOpts{})
	if err != nil {
		return err
	}
	defer c.Close() //nolint:errcheck
	if err := backend.WriteFull(c, []byte(*data), *off); err != nil {
		return err
	}
	if err := c.Sync(); err != nil {
		return err
	}
	fmt.Printf("wrote %d bytes at %d\n", len(*data), *off)
	return nil
}

func cmdCommit(args []string) error {
	fs := flag.NewFlagSet("commit", flag.ExitOnError)
	dir := fs.String("C", ".", "working directory")
	fs.Parse(args) //nolint:errcheck
	name, err := oneName(fs)
	if err != nil {
		return err
	}
	ns, err := nsFor(*dir)
	if err != nil {
		return err
	}
	// Open the chain with the backing image writable: commit needs it.
	c, err := core.OpenChain(ns, core.Locator{Store: "dir", Name: name}, core.ChainOpts{})
	if err != nil {
		return err
	}
	defer c.Close() //nolint:errcheck
	if len(c.Images) < 2 {
		return fmt.Errorf("%s has no backing image to commit into", name)
	}
	// The §4.3 permission handling opens non-cache backings read-only;
	// re-open the immediate backing writable for the commit.
	st, err := ns.Store("dir")
	if err != nil {
		return err
	}
	backing := c.Locators[1]
	bf, err := st.Open(backing.Name, false)
	if err != nil {
		return err
	}
	dst, err := qcow.Open(bf, qcow.OpenOpts{})
	if err != nil {
		bf.Close() //nolint:errcheck
		return err
	}
	defer dst.Close() //nolint:errcheck
	if len(c.Images) > 2 {
		dst.SetBacking(c.Images[2])
	}
	if err := c.Top().CommitTo(dst); err != nil {
		return err
	}
	fmt.Printf("committed %s into %s\n", name, backing.Name)
	return nil
}

func cmdConvert(args []string) error {
	fs := flag.NewFlagSet("convert", flag.ExitOnError)
	dir := fs.String("C", ".", "working directory")
	compress := fs.Bool("c", false, "store data clusters compressed")
	bits := fs.Int("cluster-bits", 0, "destination cluster bits (default 16)")
	fs.Parse(args) //nolint:errcheck
	if fs.NArg() != 2 {
		return fmt.Errorf("expected SRC DST")
	}
	srcName, dstName := fs.Arg(0), fs.Arg(1)
	ns, err := nsFor(*dir)
	if err != nil {
		return err
	}
	src, err := core.OpenChain(ns, core.Locator{Store: "dir", Name: srcName}, core.ChainOpts{TopReadOnly: true})
	if err != nil {
		return err
	}
	defer src.Close() //nolint:errcheck
	dst := core.Locator{Store: "dir", Name: dstName}
	if *compress {
		err = core.CreateBaseCompressed(ns, dst, src.Size(), *bits, src)
	} else {
		err = core.CreateBase(ns, dst, src.Size(), *bits, src)
	}
	if err != nil {
		return err
	}
	st, _ := ns.Store("dir")
	outSize, _ := st.Stat(dstName)
	fmt.Printf("converted %s -> %s (%d bytes%s)\n", srcName, dstName, outSize,
		map[bool]string{true: ", compressed", false: ""}[*compress])
	return nil
}

// cmdDedup either inspects an on-disk dedup store (-store; run it offline —
// opening the store unlinks dead packs, compacts packs more than half dead
// and imports a pre-pack blobs/ tree, all of which would race a live daemon)
// or chunks the listed files in memory and reports how much they would share
// in one: the what-if tool for sizing a dedup deployment.
func cmdDedup(args []string) error {
	fs := flag.NewFlagSet("dedup", flag.ExitOnError)
	dir := fs.String("C", ".", "working directory")
	storeDir := fs.String("store", "", "dedup store directory to inspect offline (e.g. <cachedir>/dedup); reclaims dead packs")
	jobs := fs.Int("j", 0, "chunk hash parallelism (0 = GOMAXPROCS, 1 = serial)")
	fs.Parse(args) //nolint:errcheck
	workers := *jobs
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	if *storeDir != "" {
		if fs.NArg() != 0 {
			return fmt.Errorf("-store takes no file arguments")
		}
		s, err := dedup.OpenBlobStore(*storeDir)
		if err != nil {
			return err
		}
		for _, name := range s.ManifestNames() {
			m, ok := s.Manifest(name)
			if !ok {
				continue
			}
			fmt.Printf("%s: %d chunks, %.1f MB, checksum %x\n",
				name, len(m.Entries), float64(m.Length)/1e6, m.Checksum[:8])
		}
		st := s.Stats()
		fmt.Printf("store: %d manifests, %d blobs in %d packs; %.1f MB logical, %.1f MB unique raw, %.1f MB on disk (%.1f MB shared away)\n",
			st.Manifests, st.Blobs, st.Packs, float64(st.LogicalBytes)/1e6, float64(st.UniqueRawBytes)/1e6,
			float64(st.UniqueCompBytes)/1e6, float64(st.SharedBytes)/1e6)
		return s.Close()
	}

	if fs.NArg() == 0 {
		return fmt.Errorf("expected file names (or -store DIR)")
	}
	seen := make(map[dedup.Key]uint32)
	var logical, unique int64
	for _, name := range fs.Args() {
		f, err := os.Open(resolvePath(*dir, name))
		if err != nil {
			return err
		}
		fi, err := f.Stat()
		if err != nil {
			f.Close() //nolint:errcheck
			return err
		}
		var fresh int64
		m, err := dedup.BuildParallel(f, fi.Size(), dedup.BuildOpts{Workers: workers},
			func(e dedup.Entry, _, _ []byte) error {
				if _, ok := seen[e.Hash]; !ok {
					seen[e.Hash] = e.Len
					fresh += int64(e.Len)
				}
				return nil
			})
		f.Close() //nolint:errcheck
		if err != nil {
			return err
		}
		logical += m.Length
		unique += fresh
		fmt.Printf("%s: %d chunks, %.1f MB, %.1f MB new\n",
			name, len(m.Entries), float64(m.Length)/1e6, float64(fresh)/1e6)
	}
	shared := logical - unique
	fmt.Printf("total: %.1f MB logical, %.1f MB unique, %.1f MB shared (%.1f%%)\n",
		float64(logical)/1e6, float64(unique)/1e6, float64(shared)/1e6,
		100*float64(shared)/float64(max(logical, 1)))
	return nil
}

// resolvePath joins a name into the working directory unless it is already
// absolute.
func resolvePath(dir, name string) string {
	if filepath.IsAbs(name) {
		return name
	}
	return filepath.Join(dir, name)
}

func cmdDisclosure(args []string) error {
	fs := flag.NewFlagSet("disclosure", flag.ExitOnError)
	dir := fs.String("C", ".", "working directory")
	limit := fs.Int("n", 20, "print at most N spans (0 = all)")
	fs.Parse(args) //nolint:errcheck
	name, err := oneName(fs)
	if err != nil {
		return err
	}
	img, err := openOne(*dir, name)
	if err != nil {
		return err
	}
	defer img.Close() //nolint:errcheck
	spans, err := core.Disclosure(img)
	if err != nil {
		return err
	}
	var total int64
	for _, s := range spans {
		total += s.Len
	}
	fmt.Printf("%d spans covering %.1f MB, in fill (boot-read) order:\n", len(spans), float64(total)/1e6)
	for i, s := range spans {
		if *limit > 0 && i >= *limit {
			fmt.Printf("... %d more\n", len(spans)-i)
			break
		}
		fmt.Printf("  %#12x + %d\n", s.Off, s.Len)
	}
	return nil
}
