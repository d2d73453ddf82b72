package core

import (
	"errors"
	"fmt"

	"vmicache/internal/backend"
	"vmicache/internal/boot"
	"vmicache/internal/qcow"
)

// CreateBase creates a standalone base image of the given virtual size and
// fills it from content (may be nil for an all-zero disk). It is the
// test/evaluation stand-in for "a default installation of CentOS 6.3" —
// image content is synthesised, geometry is real.
func CreateBase(ns *Namespace, loc Locator, size int64, clusterBits int, content qcow.BlockSource) (err error) {
	st, err := ns.Store(loc.Store)
	if err != nil {
		return err
	}
	f, err := st.Create(loc.Name)
	if err != nil {
		return err
	}
	img, err := qcow.Create(f, qcow.CreateOpts{Size: size, ClusterBits: clusterBits})
	if err != nil {
		f.Close() //nolint:errcheck // release container on create failure
		return err
	}
	defer func() {
		if cerr := img.Close(); err == nil {
			err = cerr
		}
	}()
	if content == nil {
		return nil
	}
	buf := make([]byte, 1<<20)
	for off := int64(0); off < size; off += int64(len(buf)) {
		n := int64(len(buf))
		if size-off < n {
			n = size - off
		}
		if _, rerr := content.ReadAt(buf[:n], off); rerr != nil {
			return rerr
		}
		if werr := backend.WriteFull(img, buf[:n], off); werr != nil {
			return werr
		}
	}
	return nil
}

// CreateCache performs step one of the §4.4 workflow: "gemu-img is invoked
// with a cache quota and pointing to the base image as its backing file."
func CreateCache(ns *Namespace, loc Locator, backing Locator, size, quota int64, clusterBits int) error {
	return CreateCacheSub(ns, loc, backing, size, quota, clusterBits, false)
}

// CreateCacheSub is CreateCache with the sub-cluster extension optionally
// enabled: misses in the resulting cache fill at 4 KiB granularity and rely
// on background completion to converge to whole clusters.
func CreateCacheSub(ns *Namespace, loc Locator, backing Locator, size, quota int64, clusterBits int, subclusters bool) error {
	if clusterBits == 0 {
		clusterBits = qcow.CacheClusterBits
	}
	st, err := ns.Store(loc.Store)
	if err != nil {
		return err
	}
	f, err := st.Create(loc.Name)
	if err != nil {
		return err
	}
	img, err := qcow.Create(f, qcow.CreateOpts{
		Size:        size,
		ClusterBits: clusterBits,
		BackingFile: backingName(ns, loc, backing),
		CacheQuota:  quota,
		Subclusters: subclusters,
	})
	if err != nil {
		f.Close() //nolint:errcheck
		return err
	}
	return img.Close()
}

// CreateCoW performs step two of §4.4: "gemu-img is invoked with no cache
// quota and pointing to the cache image as its backing file."
func CreateCoW(ns *Namespace, loc Locator, backing Locator, size int64, clusterBits int) error {
	if clusterBits == 0 {
		clusterBits = qcow.DefaultClusterBits
	}
	st, err := ns.Store(loc.Store)
	if err != nil {
		return err
	}
	f, err := st.Create(loc.Name)
	if err != nil {
		return err
	}
	img, err := qcow.Create(f, qcow.CreateOpts{
		Size:        size,
		ClusterBits: clusterBits,
		BackingFile: backingName(ns, loc, backing),
	})
	if err != nil {
		f.Close() //nolint:errcheck
		return err
	}
	return img.Close()
}

// backingName encodes the backing locator relative to the referring image:
// same store → bare name (relocatable), different store → fully qualified.
func backingName(ns *Namespace, from, to Locator) string {
	fs := from.Store
	if fs == "" {
		fs = ns.Default()
	}
	ts := to.Store
	if ts == "" {
		ts = ns.Default()
	}
	if fs == ts {
		return to.Name
	}
	return to.String()
}

// VirtualSizeOf reads an image's virtual size from its header alone: no
// table is loaded, and the handle is closed on return.
func VirtualSizeOf(ns *Namespace, loc Locator) (int64, error) {
	st, err := ns.Store(loc.Store)
	if err != nil {
		return 0, err
	}
	f, err := st.Open(loc.Name, true)
	if err != nil {
		return 0, err
	}
	defer f.Close() //nolint:errcheck // read-only handle
	hdr, err := qcow.ReadHeader(f)
	if errors.Is(err, qcow.ErrBadMagic) {
		return f.Size() // raw image: virtual size == file size
	}
	if err != nil {
		return 0, err
	}
	return int64(hdr.Size), nil
}

// Span is a byte range of guest reads used to warm a cache.
type Span struct {
	Off int64
	Len int64
}

// Coalescing knobs for profile-guided warm plans: fold reads within 256 KiB
// of each other into one span, cap spans at 4 MiB (one warm window).
const (
	profilePlanGap    = 256 << 10
	profilePlanMaxLen = 4 << 20
)

// ProfileSpans derives a warm plan from a named boot profile: the profile is
// scaled to the image's virtual size, its deterministic workload generated,
// and the read footprint exported as coalesced spans clamped to the image.
func ProfileSpans(name string, size int64) ([]Span, error) {
	p, err := boot.ProfileByName(name)
	if err != nil {
		return nil, err
	}
	if p.ImageSize > 0 && p.ImageSize != size {
		p = p.Scale(float64(size) / float64(p.ImageSize))
		p.ImageSize = size
	}
	plan := boot.Generate(p).PrefetchPlan(profilePlanGap, profilePlanMaxLen)
	spans := make([]Span, 0, len(plan))
	for _, e := range plan {
		if e.Off >= size {
			continue
		}
		spans = append(spans, Span{Off: e.Off, Len: min(e.Len, size-e.Off)})
	}
	return spans, nil
}

// warmWindow is how many plan bytes a window fill gathers before it runs.
const warmWindow = 4 << 20

// Warm replays read spans against a chain, populating any cache image on top
// of it (§3.2: "the system can boot a sample VM upon a new VMI registration
// to create the cache"). It returns the number of bytes read. A writable
// cache on top is filled window by window — whole spans, ≈ warmWindow bytes
// of them, whose unfilled runs are fetched with one batched backing read and
// landed with one commit (qcow.Image.FillSpans); a window never splits a
// span, so the cache's layout is the one read-by-read replay leaves — and
// only the spans a window did not land (claimed by a concurrent filler, cut
// off by the quota) are read through the chain. Any other top reads every
// span. The cache's fill singleflight makes Warm safe to run while a guest
// boots from the same chain.
func Warm(c *Chain, spans []Span) (int64, error) {
	var buf []byte
	var total int64
	win := make([]qcow.Span, 0, 64)
	for len(spans) > 0 {
		var pending int64
		for win = win[:0]; len(spans) > 0 && pending < warmWindow; spans = spans[1:] {
			if s := spans[0]; s.Len > 0 {
				win = append(win, qcow.Span{Off: s.Off, Len: s.Len})
				pending += s.Len
			}
		}
		if len(win) == 0 {
			break
		}
		rest, err := c.Top().FillSpans(win)
		if err != nil {
			return total, fmt.Errorf("core: warming %d spans from %d: %w", len(win), win[0].Off, err)
		}
		for _, s := range rest {
			if int64(len(buf)) < s.Len {
				buf = make([]byte, s.Len)
			}
			if err := backend.ReadFull(c, buf[:s.Len], s.Off); err != nil {
				return total, fmt.Errorf("core: warming at %d+%d: %w", s.Off, s.Len, err)
			}
		}
		total += pending
	}
	return total, nil
}

// TransferCache copies a (closed, warm) cache image to another medium —
// e.g. from the compute node that created it back to the storage node's
// memory ("the cache is created on the compute nodes and then transferred
// back to the storage node's memory", Fig. 13). Returns bytes moved.
func TransferCache(ns *Namespace, dst, src Locator) (int64, error) {
	srcStore, err := ns.Store(src.Store)
	if err != nil {
		return 0, err
	}
	dstStore, err := ns.Store(dst.Store)
	if err != nil {
		return 0, err
	}
	return backend.CopyFile(dstStore, dst.Name, srcStore, src.Name)
}

// Exists reports whether the locator resolves to an existing file.
func Exists(ns *Namespace, loc Locator) bool {
	st, err := ns.Store(loc.Store)
	if err != nil {
		return false
	}
	_, err = st.Stat(loc.Name)
	return err == nil
}

// CreateBaseCompressed creates a base image whose clusters are stored
// compressed (qemu-img convert -c), cutting the storage node's footprint
// for the multi-GB bases the caches sit in front of (§8 future work).
func CreateBaseCompressed(ns *Namespace, loc Locator, size int64, clusterBits int, content qcow.BlockSource) (err error) {
	if clusterBits == 0 {
		clusterBits = qcow.DefaultClusterBits
	}
	st, err := ns.Store(loc.Store)
	if err != nil {
		return err
	}
	f, err := st.Create(loc.Name)
	if err != nil {
		return err
	}
	img, err := qcow.Create(f, qcow.CreateOpts{Size: size, ClusterBits: clusterBits})
	if err != nil {
		f.Close() //nolint:errcheck // release container on create failure
		return err
	}
	defer func() {
		if cerr := img.Close(); err == nil {
			err = cerr
		}
	}()
	if content == nil {
		return nil
	}
	cs := img.ClusterSize()
	buf := make([]byte, cs)
	for vc := int64(0); vc*cs < size; vc++ {
		n := cs
		if rem := size - vc*cs; rem < n {
			n = rem
		}
		if _, rerr := content.ReadAt(buf[:n], vc*cs); rerr != nil {
			return rerr
		}
		if werr := img.WriteCompressedCluster(vc, buf[:n]); werr != nil {
			return werr
		}
	}
	return nil
}
