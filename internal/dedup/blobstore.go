package dedup

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
)

// BlobStore is the per-pool content-addressed store behind cachemgr's
// dedup tier. Chunks live as compressed blobs named by their SHA-256;
// manifests name the chunk sequence of each published cache. Reference
// counts are *derived* — a blob's refcount is the number of manifests
// whose entry list includes it — so the on-disk state is self-describing
// and crash recovery is a scan, not a log replay.
//
// Layout under the root directory:
//
//	packs/<seq>.pk          append-only blob records (pack.go)
//	manifests/<name>.vmm    Manifest.Encode bytes
//
// A blob lands as one record appended to the active pack — one write under
// the store lock, no fsync — and is read back with one pread on the pack's
// held descriptor. Crash ordering mirrors cachemgr publication: Commit
// flushes the packs (one fsync of the active pack, one of the directory
// when the pack is new) before the manifest file commits (tmp → fsync →
// rename → dir fsync), so every blob a manifest names is durable before the
// manifest is. A crash in between leaves records no manifest references;
// Open does not index them, and the space goes when their pack does.
//
// Only the process that created a pack appends to it. Every pack found at
// Open is sealed: read, or unlinked once dead, never written or truncated.
// Dead space comes back by two rules (reclaimLocked): a pack with no live
// record is unlinked, a pack more than half dead is copied forward.
type BlobStore struct {
	dir string

	mu        sync.Mutex
	closed    bool
	refs      map[Key]int // manifest references
	staged    map[Key]int // in-flight publications holding the blob pre-Commit
	blobs     map[Key]blobLoc
	manifests map[string]*Manifest
	logical   int64 // sum of manifest lengths

	packs    []*pack // every pack on disk, oldest first
	active   *pack   // the one this process appends to; nil until the first put
	nextSeq  uint64
	physical int64  // sum of pack sizes: what the store costs on disk
	dirDirty bool   // a pack was created since the directory's last fsync
	recBuf   []byte // record assembly scratch: header + blob leave in one write

	writes, syncs, reads, decodes, hashes, residentBytes atomic.Int64

	// sync is (*os.File).Sync; tests swap it to inject flush failures.
	sync func(*os.File) error
}

// blobLoc is where a blob's record sits.
type blobLoc struct {
	p       *pack
	off     int64 // of the record header
	wireLen uint32
	rawLen  uint32
}

func (l blobLoc) recLen() int64 { return recHdrLen + int64(l.wireLen) }

// ErrCorruptBlob reports a blob whose decompressed content fails its hash.
var ErrCorruptBlob = errors.New("dedup: corrupt blob")

// ErrNoBlob reports a blob absent from the store.
var ErrNoBlob = errors.New("dedup: no such blob")

// ErrClosed reports a call on a store after Close.
var ErrClosed = errors.New("dedup: store closed")

const (
	manifestSuffix = ".vmm"
	blobHdrLen     = 8
)

// OpenBlobStore opens (creating if needed) the store rooted at dir,
// rebuilds refcounts from the manifests on disk and the blob index from the
// packs, imports a pre-pack blob tree if one is there, and reclaims packs
// that a crash or a past eviction left mostly or wholly dead.
func OpenBlobStore(dir string) (*BlobStore, error) {
	s := &BlobStore{
		dir:       dir,
		refs:      make(map[Key]int),
		staged:    make(map[Key]int),
		blobs:     make(map[Key]blobLoc),
		manifests: make(map[string]*Manifest),
		sync:      (*os.File).Sync,
	}
	for _, d := range []string{s.packDir(), s.manifestDir()} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	// Load manifests first: they define which blobs are live.
	ments, err := os.ReadDir(s.manifestDir())
	if err != nil {
		return nil, err
	}
	for _, de := range ments {
		name := de.Name()
		path := filepath.Join(s.manifestDir(), name)
		if !strings.HasSuffix(name, manifestSuffix) {
			os.Remove(path) //nolint:errcheck // best-effort temp cleanup
			continue
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		m, err := DecodeManifest(b)
		if err != nil {
			// A torn or stale manifest is dropped, never served; its
			// blobs become dead records and reclaim takes them.
			os.Remove(path) //nolint:errcheck // corrupt entry, best effort
			continue
		}
		s.indexManifest(strings.TrimSuffix(name, manifestSuffix), m)
	}
	err = s.openPacks()
	if err == nil {
		err = s.importLegacy()
	}
	if err != nil {
		s.Close() //nolint:errcheck // already failing
		return nil, err
	}
	s.reclaimLocked()
	return s, nil
}

func (s *BlobStore) manifestDir() string { return filepath.Join(s.dir, "manifests") }

// indexManifest records m under name, bumping blob refcounts. Caller holds
// the lock (or is still single-threaded in Open).
func (s *BlobStore) indexManifest(name string, m *Manifest) {
	s.manifests[name] = m
	s.logical += m.Length
	for _, e := range m.Entries {
		s.refs[e.Hash]++
	}
}

func (s *BlobStore) indexLocked(k Key, loc blobLoc) {
	s.blobs[k] = loc
	loc.p.live += loc.recLen()
}

// gcLocked drops blob k from the index once nothing holds it: no manifest
// reference and no in-flight publication stage. Its record turns into dead
// space; the caller runs reclaimLocked when it is done killing.
func (s *BlobStore) gcLocked(k Key) {
	if s.refs[k] > 0 || s.staged[k] > 0 {
		return
	}
	delete(s.refs, k)
	delete(s.staged, k)
	if loc, ok := s.blobs[k]; ok {
		delete(s.blobs, k)
		loc.p.live -= loc.recLen()
	}
}

// Close releases the pack descriptors. It is idempotent, and the store is
// unusable afterwards: blobs read as ErrClosed, nothing can be put, staged
// or committed; Stats keeps describing what is on disk. Unflushed records
// need no flush — no manifest names them.
func (s *BlobStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var err error
	for _, p := range s.packs {
		if cerr := p.f.Close(); err == nil {
			err = cerr
		}
	}
	s.packs, s.active = nil, nil // the index stays: Stats still describes the store
	return err
}

// PutBuilt stages an already-encoded wire blob the caller itself produced
// from verified raw bytes — the BuildParallel compress path, where workers
// emit the blob alongside the chunk. Unlike a fetched chunk (putVerified)
// there is no decode-verify round trip: the bytes never crossed a network.
// Takes a stage hold on k, which pins it against GC until Release.
func (s *BlobStore) PutBuilt(k Key, comp []byte, rawLen int64) error {
	if len(comp) < blobHdrLen || int64(binary.BigEndian.Uint64(comp[:blobHdrLen])) != rawLen {
		return fmt.Errorf("%w: %s: bad frame", ErrCorruptBlob, k)
	}
	return s.land(k, comp)
}

// putVerified stages an already-compressed wire blob (an OpChunkBatch
// record): the blob is decoded and hash-verified first, in a pooled buffer,
// so a corrupt transfer surfaces as ErrCorruptBlob and never lands on disk.
// It takes a stage hold like PutBuilt. On success the pooled buffer the blob
// was verified in comes back, the chunk being (*raw)[:n], for the caller to
// recycle with putChunkBuf. raw is nil for an oversized frame, which no
// manifest entry can name.
func (s *BlobStore) putVerified(k Key, comp []byte) (raw *[]byte, n int, err error) {
	rawLen, err := blobRawLen(k, comp)
	if err != nil {
		return nil, 0, err
	}
	s.decodes.Add(1)
	s.hashes.Add(1)
	if rawLen <= MaxChunk {
		raw = getChunkBuf(int(rawLen))
		err = decodeInto((*raw)[:rawLen], k, comp)
	} else {
		err = decodeInto(make([]byte, rawLen), k, comp)
	}
	if err == nil {
		err = s.land(k, comp)
	}
	if err != nil && raw != nil {
		putChunkBuf(raw)
		raw = nil
	}
	return raw, int(rawLen), err
}

// land takes a stage hold on k and, unless the store already holds the
// blob, appends wire as its record. Check and append share one critical
// section, so racing writers of one hash leave one record.
func (s *BlobStore) land(k Key, wire []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if _, ok := s.blobs[k]; !ok {
		loc, err := s.writeRecordLocked(k, wire)
		if err != nil {
			return err
		}
		s.indexLocked(k, loc)
	}
	s.staged[k]++
	return nil
}

// Flush makes every blob landed so far durable. Commit calls it before the
// manifest file commits; exposed for callers that need durability without
// a manifest (none in-tree today, tests aside).
func (s *BlobStore) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	return s.flushLocked()
}

// Stage takes a stage hold on k if its blob is present, reporting whether
// it was. A publisher reusing locally-held chunks stages each one so a
// concurrent eviction cannot GC it before the manifest commits.
func (s *BlobStore) Stage(k Key) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.blobs[k]; !ok || s.closed {
		return false
	}
	s.staged[k]++
	return true
}

// Release drops the stage holds a publication took via PutBuilt,
// putVerified or Stage, GC'ing blobs nothing references. Safe (and usual) to call after
// Commit: committed manifests hold their chunks by refcount, not by stage.
func (s *BlobStore) Release(held []Key) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, k := range held {
		if s.staged[k] > 0 {
			s.staged[k]--
		}
		s.gcLocked(k)
	}
	s.reclaimLocked()
}

// syncFile fsyncs f, counted in StoreStats.Syncs.
func (s *BlobStore) syncFile(f *os.File) error {
	s.syncs.Add(1)
	return s.sync(f)
}

// syncDir fsyncs a directory so a create or rename within it is durable.
func (s *BlobStore) syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close() //nolint:errcheck // read-only handle
	return s.syncFile(d)
}

// commitFile writes data as path atomically and durably: unique tmp in the
// same directory (concurrent writers of one path must not share a temp),
// fsync, rename.
func (s *BlobStore) commitFile(path string, data []byte) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".*.tmp")
	if err != nil {
		return err
	}
	tmp := f.Name()
	_, err = f.Write(data)
	if err == nil {
		err = s.syncFile(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp) //nolint:errcheck // best effort
	}
	return err
}

// readWire preads blob k's wire bytes into buf, grown when too small. A
// pack can be retired between the lookup and the read — its blobs moved by
// a copy-forward, or died — which the read sees as os.ErrClosed: look again.
func (s *BlobStore) readWire(k Key, buf []byte) ([]byte, error) {
	for {
		s.mu.Lock()
		loc, ok := s.blobs[k]
		closed := s.closed
		s.mu.Unlock()
		if closed {
			return nil, ErrClosed
		}
		if !ok {
			return nil, fmt.Errorf("%w: %s", ErrNoBlob, k)
		}
		if cap(buf) < int(loc.wireLen) {
			buf = make([]byte, loc.wireLen)
		}
		buf = buf[:loc.wireLen]
		s.reads.Add(1)
		_, err := loc.p.f.ReadAt(buf, loc.off+recHdrLen)
		if errors.Is(err, os.ErrClosed) {
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("%w: %s: reading %s: %v", ErrCorruptBlob, k, packName(loc.p.seq), err)
		}
		return buf, nil
	}
}

// ReadCompressed returns the on-disk (compressed, length-framed) bytes of
// blob k and its raw length — the wire representation OpChunkBatch ships.
func (s *BlobStore) ReadCompressed(k Key) (comp []byte, rawLen int64, err error) {
	comp, err = s.readWire(k, nil)
	if err != nil {
		return nil, 0, err
	}
	return comp, int64(binary.BigEndian.Uint64(comp[:blobHdrLen])), nil
}

// blobRawLen parses and bounds the raw length a wire blob is framed with.
func blobRawLen(k Key, comp []byte) (int64, error) {
	if len(comp) < blobHdrLen {
		return 0, fmt.Errorf("%w: %s: truncated header", ErrCorruptBlob, k)
	}
	rawLen := int64(binary.BigEndian.Uint64(comp[:blobHdrLen]))
	if rawLen < 0 || rawLen > MaxChunk*2 {
		return 0, fmt.Errorf("%w: %s: raw length %d", ErrCorruptBlob, k, rawLen)
	}
	return rawLen, nil
}

// decodeInto inflates wire blob comp into raw — sized by the caller to the
// framed length — and verifies the content hashes to k: the check of a chunk
// that crossed the network, or of a stored one under suspicion.
func decodeInto(raw []byte, k Key, comp []byte) error {
	if err := inflateInto(raw, comp[blobHdrLen:]); err != nil {
		return fmt.Errorf("%w: %s: %v", ErrCorruptBlob, k, err)
	}
	if sha256.Sum256(raw) != [sha256.Size]byte(k) {
		return fmt.Errorf("%w: %s: hash mismatch", ErrCorruptBlob, k)
	}
	return nil
}

// DecodeBlob inflates a wire/disk blob and verifies the content hashes to
// k — the corrupt-blob (and corrupt-transfer) detection path.
func DecodeBlob(k Key, comp []byte) ([]byte, error) {
	rawLen, err := blobRawLen(k, comp)
	if err != nil {
		return nil, err
	}
	raw := make([]byte, rawLen)
	if err := decodeInto(raw, k, comp); err != nil {
		return nil, err
	}
	return raw, nil
}

// ReadBlob returns the verified raw bytes of blob k.
func (s *BlobStore) ReadBlob(k Key) ([]byte, error) {
	comp, _, err := s.ReadCompressed(k)
	if err != nil {
		return nil, err
	}
	s.decodes.Add(1)
	s.hashes.Add(1)
	return DecodeBlob(k, comp)
}

// quarantine re-checks m's blobs the slow way — inflate and SHA-256 — and
// takes each that fails out of the index, whatever its references: its live
// bytes become dead space, Stage misses it, and the next landing of the key
// appends good bytes instead of finding it "present". A materialization whose
// stored chunks are under suspicion calls it, off the hot path. It returns
// the blobs it took out and how many distinct ones it checked.
func (s *BlobStore) quarantine(m *Manifest) (bad []Key, checked int) {
	seen := make(map[Key]bool, len(m.Entries))
	for _, e := range m.Entries {
		if seen[e.Hash] {
			continue
		}
		seen[e.Hash] = true
		if _, err := s.ReadBlob(e.Hash); errors.Is(err, ErrCorruptBlob) {
			bad = append(bad, e.Hash)
		}
	}
	if len(bad) == 0 {
		return nil, len(seen)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, k := range bad {
		if loc, ok := s.blobs[k]; ok {
			delete(s.blobs, k)
			loc.p.live -= loc.recLen()
		}
	}
	s.reclaimLocked()
	return bad, len(seen)
}

// Commit publishes m under name: the packs flush, the manifest file commits
// (tmp → fsync → rename → dir fsync) and refcounts shift atomically —
// replacing an existing manifest of the same name (checksum invalidation)
// unrefs the old chunk set and frees blobs that drop to zero. Every blob m
// references must already be staged.
func (s *BlobStore) Commit(name string, m *Manifest) error {
	if strings.ContainsAny(name, "/\\") {
		return fmt.Errorf("dedup: bad manifest name %q", name)
	}
	// Group-commit: every blob landed since the last flush becomes durable
	// here, before the manifest that references any of them commits.
	if err := s.Flush(); err != nil {
		return err
	}
	path := filepath.Join(s.manifestDir(), name+manifestSuffix)
	if err := s.commitFile(path, m.Encode()); err != nil {
		return err
	}
	if err := s.syncDir(s.manifestDir()); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// Ref the new chunk set before unreffing the old so chunks shared
	// across versions never transit zero (and never get GC'd).
	old := s.manifests[name]
	s.indexManifest(name, m)
	if old != nil {
		s.unrefLocked(old)
	}
	return nil
}

// unrefLocked takes a manifest's references back, freeing what drops to
// zero.
func (s *BlobStore) unrefLocked(m *Manifest) {
	s.logical -= m.Length
	for _, e := range m.Entries {
		s.refs[e.Hash]--
		s.gcLocked(e.Hash)
	}
	s.reclaimLocked()
}

// Drop removes name's manifest (cache eviction / invalidation), freeing
// blobs whose refcount reaches zero. The removal is made durable before any
// pack is unlinked on its account, so a crash cannot bring the manifest
// back without its chunks. Unknown names are a no-op.
func (s *BlobStore) Drop(name string) error {
	if _, ok := s.Manifest(name); !ok {
		return nil
	}
	path := filepath.Join(s.manifestDir(), name+manifestSuffix)
	if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	if err := s.syncDir(s.manifestDir()); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if m, ok := s.manifests[name]; ok {
		delete(s.manifests, name)
		s.unrefLocked(m)
	}
	return nil
}

// Manifest returns the committed manifest for name, if any.
func (s *BlobStore) Manifest(name string) (*Manifest, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.manifests[name]
	return m, ok
}

// ManifestNames lists committed manifests.
func (s *BlobStore) ManifestNames() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.manifests))
	for name := range s.manifests {
		out = append(out, name)
	}
	return out
}

// StoreStats snapshots the dedup tier's efficiency.
type StoreStats struct {
	Manifests       int
	Blobs           int
	Packs           int
	LogicalBytes    int64 // sum of manifest lengths
	UniqueRawBytes  int64 // raw bytes held once per distinct chunk
	UniqueCompBytes int64 // bytes the packs occupy on disk, dead records included
	SharedBytes     int64 // logical bytes served by a chunk referenced >1×
	Writes          int64 // records appended to packs since Open
	Syncs           int64 // fsyncs issued since Open: packs, manifests, directories
	Reads           int64 // preads of pack records since Open: one per blob read singly, one per run of adjacent records a materialization reads
	Decodes         int64 // blobs inflated since Open: arrivals verified, chunks materialized
	Hashes          int64 // per-chunk SHA-256s since Open: arrivals verified, blobs re-checked
	ResidentBytes   int64 // raw bytes materializations copied out of resident files since Open
	Staged          int   // blobs an in-flight publication holds
}

// Stats snapshots the store.
func (s *BlobStore) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := StoreStats{
		Manifests:       len(s.manifests),
		Blobs:           len(s.blobs),
		Packs:           len(s.packs),
		LogicalBytes:    s.logical,
		UniqueCompBytes: s.physical,
		Writes:          s.writes.Load(),
		Syncs:           s.syncs.Load(),
		Reads:           s.reads.Load(),
		Decodes:         s.decodes.Load(),
		Hashes:          s.hashes.Load(),
		ResidentBytes:   s.residentBytes.Load(),
	}
	for _, n := range s.staged {
		if n > 0 {
			st.Staged++
		}
	}
	for k, loc := range s.blobs {
		st.UniqueRawBytes += int64(loc.rawLen)
		if n := s.refs[k]; n > 1 {
			st.SharedBytes += int64(n-1) * int64(loc.rawLen)
		}
	}
	return st
}

// UniqueCompBytes reports the physical disk bytes the packs hold — the
// figure cachemgr charges against its pool budget (once per unique chunk,
// however many caches share it, plus whatever dead space reclaim has not
// yet returned).
func (s *BlobStore) UniqueCompBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.physical
}
