package qcow

import "errors"

// Errors reported by the image format. ErrCacheFull is the "space error" of
// §4.3: a cache-fill write that would exceed the quota fails with it, and the
// read path reacts by disabling future fills while still serving the read
// from the base image.
var (
	ErrBadMagic        = errors.New("qcow: bad magic (not an image file)")
	ErrBadVersion      = errors.New("qcow: unsupported version")
	ErrBadClusterBits  = errors.New("qcow: cluster bits out of range [9,21]")
	ErrBadHeader       = errors.New("qcow: malformed header")
	ErrBadSize         = errors.New("qcow: image size must be positive")
	ErrOutOfRange      = errors.New("qcow: access beyond end of virtual disk")
	ErrCacheFull       = errors.New("qcow: cache quota exhausted (space error)")
	ErrCacheImmutable  = errors.New("qcow: cache images reject guest writes")
	ErrReadOnly        = errors.New("qcow: image opened read-only")
	ErrClosed          = errors.New("qcow: image is closed")
	ErrCorrupt         = errors.New("qcow: metadata corruption detected")
	ErrBackingMissing  = errors.New("qcow: cluster unallocated and no backing image")
	ErrBackingNameSize = errors.New("qcow: backing file name does not fit in first cluster")
	ErrQuotaTooSmall   = errors.New("qcow: cache quota smaller than initial metadata")

	// Sub-cluster extension errors. Partial fills only make sense for
	// cache images (guest writes never reach them), and the cluster must
	// be larger than one sub-cluster.
	ErrSubclusterNotCache = errors.New("qcow: subclusters require a cache image")
	ErrSubclusterBits     = errors.New("qcow: cluster too small for subclusters")

	// ErrBadChunkSize rejects non-positive chunk sizes in the chunk-map
	// export (chunkmap.go).
	ErrBadChunkSize = errors.New("qcow: chunk size must be positive")
)
