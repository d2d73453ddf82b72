// Package dedup implements the storage-efficiency extensions §8 lists as
// future work for VMI caches: content-based deduplication ("VMIs created
// from the same operating system distribution share content", §7.3) and
// compression of cache images for storage and transfer.
//
// The package is organised around content-defined chunking (cdc.go): a
// gear-hash cutter splits images into variable-size chunks so shared runs
// dedup across images regardless of alignment. Build/BuildParallel
// (build.go) turn an image into a Manifest — an ordered list of chunk
// hashes plus a whole-image checksum — while handing each chunk to the
// caller for storage. BlobStore (blobstore.go) is the durable
// content-addressed tier: compressed blobs shared by reference across
// manifests, with staged publication and group-commit fsync. Materialize
// reassembles an image from a manifest in 1 MiB windows, inflating stored
// chunks straight into place and checking the image against its whole-image
// checksum; a chunk fetched from a peer is hash-checked on arrival, and a
// stored blob is re-checked and taken out of the index only when an image it
// went into fails. The stream codecs (compress.go) cover the whole-file
// compressed transfer path that predates chunking.
package dedup

import (
	"crypto/sha256"
	"fmt"
)

// Key addresses one chunk by content.
type Key [sha256.Size]byte

// String renders a short hex prefix.
func (k Key) String() string { return fmt.Sprintf("%x", k[:8]) }
