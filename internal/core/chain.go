// Package core is the VMI-cache orchestration layer: it builds the image
// chains of the paper (base ← cache ← CoW, Fig. 4), implements the two-step
// qemu-img workflow of §4.4, warms caches, transfers them between media
// (Fig. 13), and pools them with LRU eviction (§3.4).
package core

import (
	"errors"
	"fmt"
	"io"
	"strings"

	"vmicache/internal/backend"
	"vmicache/internal/qcow"
	"vmicache/internal/zerocopy"
)

// ErrChainCycle is returned when backing-file names form a loop.
var ErrChainCycle = errors.New("core: backing chain contains a cycle")

// ErrChainTooDeep guards against absurd chains.
var ErrChainTooDeep = errors.New("core: backing chain too deep")

const maxChainDepth = 16

// Locator names an image on a medium: "store:name". Stores are registered
// in a Namespace. A bare name refers to the namespace's default store —
// matching the paper's deployments where most images sit on the NFS export.
type Locator struct {
	Store string
	Name  string
}

// ParseLocator splits "store:name" (or "name") into its parts.
func ParseLocator(s string) Locator {
	if i := strings.IndexByte(s, ':'); i >= 0 {
		return Locator{Store: s[:i], Name: s[i+1:]}
	}
	return Locator{Name: s}
}

// String renders the locator.
func (l Locator) String() string {
	if l.Store == "" {
		return l.Name
	}
	return l.Store + ":" + l.Name
}

// Namespace maps store names to Stores so backing-file strings embedded in
// image headers ("nfs:centos.img") resolve across media.
type Namespace struct {
	stores map[string]backend.Store
	def    string
}

// NewNamespace returns a namespace whose bare names resolve in def.
func NewNamespace(defName string, def backend.Store) *Namespace {
	ns := &Namespace{stores: make(map[string]backend.Store), def: defName}
	ns.stores[defName] = def
	return ns
}

// Register adds a named store.
func (ns *Namespace) Register(name string, st backend.Store) { ns.stores[name] = st }

// Store resolves a store name ("" means the default).
func (ns *Namespace) Store(name string) (backend.Store, error) {
	if name == "" {
		name = ns.def
	}
	st, ok := ns.stores[name]
	if !ok {
		return nil, fmt.Errorf("core: unknown store %q", name)
	}
	return st, nil
}

// Default reports the default store name.
func (ns *Namespace) Default() string { return ns.def }

// ChainOpts configures OpenChain.
type ChainOpts struct {
	// TopReadOnly opens the whole chain without write permission.
	TopReadOnly bool

	// BackingReadOnly keeps every backing image read-only, a cache too,
	// skipping the §4.3 read-write re-open. This is the attach path for
	// published immutable caches (internal/cachemgr): the cache is
	// already warm, must not be mutated, and may sit on a file whose
	// permissions forbid writing.
	BackingReadOnly bool

	// Tables is the shared table set of the image below the top, taken with
	// BackingReadOnly (cachemgr passes a published cache's set); its raw
	// reads then copy from the set's mapping of the file.
	Tables *qcow.Tables

	// WrapFile, when non-nil, wraps each opened container before the
	// image is parsed. The cluster simulator uses this to attach traffic
	// accounting and simulated-time costs per medium.
	WrapFile func(loc Locator, f backend.File, depth int) backend.File
}

// Chain is an open image chain, topmost image first. Guest I/O goes through
// Top; reads recurse down the chain inside the image layer.
type Chain struct {
	Images   []*qcow.Image // [0] = top
	Locators []Locator
	rawTail  io.Closer // closer for a raw base container, if any
}

// Top returns the guest-facing image.
func (c *Chain) Top() *qcow.Image { return c.Images[0] }

// CacheImage returns the first cache image in the chain (nil if none).
func (c *Chain) CacheImage() *qcow.Image {
	for _, img := range c.Images {
		if img.IsCache() {
			return img
		}
	}
	return nil
}

// ReadAt reads guest data through the top of the chain.
func (c *Chain) ReadAt(p []byte, off int64) (int, error) { return c.Top().ReadAt(p, off) }

// PlainExtents implements zerocopy.ExtentSource by forwarding to the top
// image: a range is exportable only when the top image itself holds it as
// fully-valid raw clusters (a read-only published cache serving warm data).
// Ranges the top defers to its backing — where bytes would be assembled
// recursively — refuse, sending the caller down the copy path.
func (c *Chain) PlainExtents(off, n int64, dst []zerocopy.FileExtent) ([]zerocopy.FileExtent, bool) {
	return c.Top().PlainExtents(off, n, dst)
}

// WriteAt writes guest data to the top of the chain.
func (c *Chain) WriteAt(p []byte, off int64) (int, error) { return c.Top().WriteAt(p, off) }

// Size reports the virtual disk size.
func (c *Chain) Size() int64 { return c.Top().Size() }

// Sync flushes the chain; only writable images flush anything (Image.Sync).
func (c *Chain) Sync() error {
	for _, img := range c.Images {
		if err := img.Sync(); err != nil && !errors.Is(err, qcow.ErrClosed) {
			return err
		}
	}
	return nil
}

// Close closes every image top-down, then any raw tail.
func (c *Chain) Close() error {
	var first error
	for _, img := range c.Images {
		if err := img.Close(); err != nil && first == nil && !errors.Is(err, qcow.ErrClosed) {
			first = err
		}
	}
	if c.rawTail != nil {
		if err := c.rawTail.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// OpenChain opens the image at loc and its full backing chain.
//
// It reaches the permission outcome of §4.3 — a cache image writable so it
// can warm itself, every other backing image read-only — in the other order:
// every backing image is first opened read-only, and only one whose header
// says it is a cache is re-opened read-write, so a non-cache base costs one
// read-only open (header and L1): no refcount table, and no sync of a file
// the chain never writes. A base whose container is not an image file at all
// is attached as a raw source.
func OpenChain(ns *Namespace, loc Locator, opts ChainOpts) (*Chain, error) {
	c := &Chain{}
	if _, err := c.walk(ns, loc, 0, map[string]bool{}, opts); err != nil {
		c.Close() //nolint:errcheck // unwinding partial chain
		return nil, err
	}
	return c, nil
}

// walk opens cur at the given depth and the rest of its backing chain,
// appending each image to c and installing it as the backing of the image
// before it. seen holds the locators already in the chain. It returns what
// it opened at depth: an image, or a raw base. On error the caller closes c.
func (c *Chain) walk(ns *Namespace, cur Locator, depth int, seen map[string]bool, opts ChainOpts) (qcow.BlockSource, error) {
	var first qcow.BlockSource
	link := func(src qcow.BlockSource) {
		if n := len(c.Images); n > 0 {
			c.Images[n-1].SetBacking(src)
		}
		if first == nil {
			first = src
		}
	}
	for ; ; depth++ {
		if depth >= maxChainDepth {
			return nil, ErrChainTooDeep
		}
		key := cur.String()
		if seen[key] {
			return nil, fmt.Errorf("%w: %s", ErrChainCycle, key)
		}
		seen[key] = true

		st, err := ns.Store(cur.Store)
		if err != nil {
			return nil, err
		}
		// The top opens read-write unless the caller wants it read-only;
		// a backing image opens read-only first ("the default flag for the
		// backing images is read-only").
		ro := opts.TopReadOnly || depth > 0
		f, err := st.Open(cur.Name, ro)
		if err != nil {
			return nil, fmt.Errorf("core: opening %s: %w", key, err)
		}
		if opts.WrapFile != nil {
			f = opts.WrapFile(cur, f, depth)
		}
		var tables *qcow.Tables
		if depth == 1 && opts.BackingReadOnly {
			tables = opts.Tables
		}
		img, err := qcow.Open(f, qcow.OpenOpts{ReadOnly: ro, Tables: tables})
		if errors.Is(err, qcow.ErrBadMagic) && depth > 0 {
			// Raw base image at the end of the chain.
			sz, szErr := f.Size()
			if szErr != nil {
				f.Close() //nolint:errcheck
				return nil, szErr
			}
			link(qcow.RawSource{R: f, N: sz})
			c.rawTail = f
			return first, nil
		}
		if err != nil {
			f.Close() //nolint:errcheck
			return nil, fmt.Errorf("core: parsing %s: %w", key, err)
		}
		// A cache backing image needs write permission to warm itself
		// (§4.3): re-open it read-write.
		if depth > 0 && img.IsCache() && !opts.BackingReadOnly {
			if err := img.Close(); err != nil {
				return nil, err
			}
			f, err = st.Open(cur.Name, false)
			if err != nil {
				return nil, fmt.Errorf("core: opening %s: %w", key, err)
			}
			if opts.WrapFile != nil {
				f = opts.WrapFile(cur, f, depth)
			}
			img, err = qcow.Open(f, qcow.OpenOpts{})
			if err != nil {
				f.Close() //nolint:errcheck
				return nil, fmt.Errorf("core: parsing %s: %w", key, err)
			}
		}
		link(img)
		c.Images = append(c.Images, img)
		c.Locators = append(c.Locators, cur)

		bn := img.BackingName()
		if bn == "" {
			return first, nil
		}
		cur = resolveBacking(cur, bn)
	}
}

// resolveBacking resolves the backing name stored in the image at from:
// relative names resolve in the same store.
func resolveBacking(from Locator, name string) Locator {
	next := ParseLocator(name)
	if next.Store == "" {
		next.Store = from.Store
	}
	return next
}
