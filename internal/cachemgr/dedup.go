package cachemgr

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"vmicache/internal/backend"
	"vmicache/internal/dedup"
	"vmicache/internal/rblock"
)

// The dedup tier: a per-pool content-addressed blob store under
// <Dir>/dedup. Every publication derives a chunk manifest (content-defined
// boundaries → SHA-256 → compressed blobs), so sibling caches share chunk
// storage, evicted caches can be rehydrated locally with zero network
// traffic, and peer transfer becomes manifest-first — fetch only the
// chunks this pool does not already hold, from any cache of any image.

const (
	// dedupDirName is the blob store's subdirectory inside the cache dir.
	dedupDirName = "dedup"

	// retiredSuffix names the manifest kept alive across an explicit
	// Invalidate so the rebuilt image's publication only stores changed
	// chunks; dropped once the replacement commits.
	retiredSuffix = ".prev"

	// deltaFetchWorkers is a delta warm's fetch parallelism: how many
	// OpChunkBatch requests it keeps in flight across the manifest holders.
	deltaFetchWorkers = 4
)

// openDedup attaches the blob store when Config.Dedup is set; called by
// New after recovery so the store's opening reclaim sees the final manifest
// set.
func (m *Manager) openDedup() error {
	if !m.cfg.Dedup {
		return nil
	}
	ds, err := dedup.OpenBlobStore(filepath.Join(m.dir, dedupDirName))
	if err != nil {
		return fmt.Errorf("cachemgr: opening dedup store: %w", err)
	}
	m.dstore = ds
	m.dedupReserve()
	return nil
}

// dedupReserve charges the blob store's physical bytes — its pack files,
// dead records included until reclaim returns them — against the pool
// budget. The blob store holds each unique chunk once however many caches
// (pinned or not) reference it, so this is exactly the charge-once
// accounting — summing per-cache manifest sizes would double-count every
// shared chunk. When the reservation alone squeezes out every unpinned
// cache and still does not fit, manifests of caches no longer resident are
// shed (their cache file is already gone; the dedup tier is their only
// remaining cost) until it does.
func (m *Manager) dedupReserve() {
	if m.dstore == nil {
		return
	}
	capacity := m.pool.Capacity()
	for {
		// Shed manifests of non-resident caches while the packs would
		// not fit beside the resident files — shedding first, so the
		// reservation never evicts a live cache to keep blobs of a dead
		// one.
		if capacity > 0 {
			for _, name := range m.dstore.ManifestNames() {
				if m.pool.Used()+m.dstore.UniqueCompBytes() <= capacity {
					break
				}
				if !m.pool.Contains(name) {
					if err := m.dstore.Drop(name); err != nil {
						m.logf("cachemgr: shedding manifest %s: %v", name, err)
					} else {
						m.logf("cachemgr: shed manifest %s under budget pressure", name)
					}
				}
			}
		}
		evicted := m.pool.Reserve(m.dstore.UniqueCompBytes())
		if capacity <= 0 || len(evicted) == 0 {
			return
		}
		// The reservation evicted caches; their manifests are shedding
		// candidates now, so take another pass. Terminates: each round
		// either evicts pool entries (finite) or returns.
	}
}

// dedupPublish derives (or confirms) the chunk manifest of a
// just-published cache file. A file materialized from the manifest that is
// committed under key (from: a rehydration or delta warm) was already hashed
// against it on the way to disk and has not been written since, so there is
// nothing to do. Any other file that meets a committed manifest of its size
// is confirmed by the cheap whole-file hash before the chunking pipeline is
// paid for. Manifest failures are logged, not fatal: the cache file serves
// fine without its dedup tier.
func (m *Manager) dedupPublish(key, pubPath string, from *dedup.Manifest) error {
	if have, ok := m.dstore.Manifest(key); ok && from != nil && have.Checksum == from.Checksum {
		m.dstore.Drop(key + retiredSuffix) //nolint:errcheck // may not exist
		return nil
	}
	f, err := os.Open(pubPath)
	if err != nil {
		return err
	}
	defer f.Close() //nolint:errcheck // read-only handle
	fi, err := f.Stat()
	if err != nil {
		return err
	}
	if have, ok := m.dstore.Manifest(key); ok && have.Length == fi.Size() {
		m.stats.dedupImageHashes.Add(1)
		if sum, err := fileChecksum(f, fi.Size()); err == nil && sum == have.Checksum {
			m.dstore.Drop(key + retiredSuffix) //nolint:errcheck // may not exist
			return nil
		}
	}
	var held []dedup.Key
	defer func() { m.dstore.Release(held) }()
	start := time.Now()
	m.stats.dedupImageHashes.Add(1)
	// The pipeline's workers compress each chunk into its wire blob, so
	// the store lands bytes as-is (PutBuilt) instead of re-deflating.
	man, err := dedup.BuildParallel(f, fi.Size(),
		dedup.BuildOpts{Workers: runtime.GOMAXPROCS(0), Compress: true},
		func(e dedup.Entry, raw, comp []byte) error {
			if err := m.dstore.PutBuilt(e.Hash, comp, int64(e.Len)); err != nil {
				return err
			}
			held = append(held, e.Hash)
			return nil
		})
	if err != nil {
		return err
	}
	m.stats.dedupBuildDuration.Observe(time.Since(start).Nanoseconds())
	// Committing under the same key replaces a stale manifest (a rebuilt
	// base image: same key, different checksum) while chunks shared across
	// versions survive — only the changed chunks were actually stored.
	if err := m.dstore.Commit(key, man); err != nil {
		return err
	}
	m.dstore.Drop(key + retiredSuffix) //nolint:errcheck // may not exist
	return nil
}

func fileChecksum(f *os.File, size int64) (dedup.Key, error) {
	h := sha256.New()
	bp := dedup.GetStreamBuf()
	defer dedup.PutStreamBuf(bp)
	buf := *bp
	for off := int64(0); off < size; {
		n := int64(len(buf))
		if rem := size - off; rem < n {
			n = rem
		}
		if _, err := f.ReadAt(buf[:n], off); err != nil {
			return dedup.Key{}, err
		}
		h.Write(buf[:n]) //nolint:errcheck // hash writes cannot fail
		off += n
	}
	return dedup.Key(h.Sum(nil)), nil
}

// rehydrate rebuilds the cache file for key from locally-held blobs — the
// zero-network path for a cache whose file was evicted while its manifest
// survived. Returns the manifest the temp file was materialized from, nil
// if it was not; on blob corruption the manifest is dropped so the warm
// falls through to the network paths instead of retrying a poisoned rebuild.
func (m *Manager) rehydrate(key, tmpName string) *dedup.Manifest {
	man, ok := m.dstore.Manifest(key)
	if !ok {
		return nil
	}
	var held []dedup.Key
	defer func() { m.dstore.Release(held) }()
	for _, e := range man.Entries {
		if !m.dstore.Stage(e.Hash) {
			m.logf("cachemgr: rehydrating %s: blob missing; dropping manifest", key)
			m.dstore.Drop(key) //nolint:errcheck // best-effort cleanup
			return nil
		}
		held = append(held, e.Hash)
	}
	_, err := m.materialize(tmpName, man, nil, nil, "")
	if errors.As(err, new(*dedup.CorruptResidentError)) {
		_, err = m.materialize(tmpName, man, nil, nil, "") // the bad resident has left
	}
	if err != nil {
		m.logf("cachemgr: rehydrating %s: %v; dropping manifest", key, err)
		m.dstore.Drop(key) //nolint:errcheck // best-effort cleanup
		return nil
	}
	return man
}

// deltaHandoffBudget bounds the verified chunk bytes a delta warm keeps for
// its writer when the fetch runs ahead of it: 8 MiB of pooled buffers, each
// the smallest power-of-two size that holds its chunk. A variable only so a
// test can force the decode-from-store path.
var deltaHandoffBudget int64 = 8 << 20

// deltaStats is what one delta warm moved and where its time went: fetch,
// stall and commit overlap materialize (create → checksum verified).
type deltaStats struct {
	wire, reused, resident            int64
	fetch, stall, materialize, commit time.Duration
}

// openResident opens a resident cache file; tests swap it to watch the opens.
var openResident = os.Open

// residentPlaces places each chunk of man in the first resident cache, by
// name, whose committed manifest names it and whose file has its length, at
// the sum of the entry lengths before it there. It opens the files it uses for
// the caller to close after the warm: an eviction's unlink cannot take them.
func (m *Manager) residentPlaces(man *dedup.Manifest) (map[dedup.Key]dedup.Place, []*os.File) {
	places := make(map[dedup.Key]dedup.Place, len(man.Entries))
	for _, e := range man.Entries {
		places[e.Hash] = dedup.Place{}
	}
	var files []*os.File
	names := m.dstore.ManifestNames()
	sort.Strings(names)
	for _, name := range names {
		rm, ok := m.dstore.Manifest(name)
		if !ok || !m.pool.Contains(name) {
			continue
		}
		var f *os.File
		var off int64
		for _, e := range rm.Entries {
			if at, want := places[e.Hash]; want && at.F == nil {
				if f == nil {
					if f, _ = openResident(filepath.Join(m.dir, name)); f == nil {
						break
					}
					files = append(files, f)
					if fi, err := f.Stat(); err != nil || fi.Size() != rm.Length {
						break
					}
				}
				places[e.Hash] = dedup.Place{Name: name, F: f, Off: off}
			}
			off += int64(e.Len)
		}
	}
	return places, files
}

// materialize streams man's content into tmpName through dedup's pipeline
// (fetched chunks hash-verified on arrival, the whole image against man's
// checksum), copying the chunks a resident cache holds out of its file.
// fetch, when set, runs meanwhile, delivering the missing chunks, and returns
// once its workers have: every missing blob has landed, so the store commits
// man under commitAs beside the hash's tail, and drops it again if the image
// fails. The temp's one fsync is publish's. A failure removes the temp.
func (m *Manager) materialize(tmpName string, man *dedup.Manifest, missing []dedup.Key,
	fetch func(*dedup.Materializer), commitAs string) (st deltaStats, err error) {
	f, err := m.store.Create(tmpName)
	if err != nil {
		return st, err
	}
	places, files := m.residentPlaces(man)
	defer func() {
		for _, rf := range files {
			rf.Close() //nolint:errcheck // read-only handle
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			m.store.Remove(tmpName) //nolint:errcheck // partial materialization
		}
	}()
	for _, e := range man.Entries {
		if places[e.Hash].F != nil {
			st.resident += int64(e.Len)
		}
	}
	start := time.Now()
	m.stats.dedupImageHashes.Add(1)
	mat := dedup.StartMaterialize(f, man, m.dstore, runtime.GOMAXPROCS(0), missing, deltaHandoffBudget, places)
	var committed chan error
	if fetch != nil {
		fetch(mat)
		st.fetch = time.Since(start)
		if !mat.Stopped() {
			committed = make(chan error, 1)
			go func() {
				err := m.dstore.Commit(commitAs, man)
				st.commit = time.Since(start) - st.fetch
				committed <- err
			}()
		}
	}
	st.stall, err = mat.Wait()
	st.materialize = time.Since(start)
	// A resident cache holding a bad chunk leaves, as recovery drops a corrupt
	// cache; its manifest stays, so its next Acquire rebuilds it from the packs.
	if bad := (*dedup.CorruptResidentError)(nil); errors.As(err, &bad) {
		if removed, _ := m.unpublish(bad.Name, false); removed {
			m.stats.droppedCorrupt.Add(1)
			m.logf("cachemgr: dropped corrupt cache %s: %v", bad.Name, err)
		}
	}
	if committed != nil {
		if cerr := <-committed; err == nil {
			err = cerr
		} else if cerr == nil {
			m.dstore.Drop(commitAs) //nolint:errcheck // best effort: the image it names failed
		}
	}
	if err == nil {
		m.stats.dedupMaterializeDuration.Observe(st.materialize.Nanoseconds())
	}
	return st, err
}

// deltaWarm is the manifest-first peer transfer: poll the configured peers
// for key's manifest, diff it against the blobs this pool already holds —
// from any cache of any image — and fetch only the missing chunks,
// compressed, spreading the fetches over every peer that advertises the
// manifest (each holder has every chunk, so unlike the swarm's
// rarest-first partial maps the spread is plain round-robin with
// reassignment on failure). The image materializes while the fetch runs:
// chunks already here are decoded as the missing ones arrive, and an arrival
// is handed to the writer as verified (materialize). The blobs and manifest
// commit before the qcow verification so a publish failure still leaves the
// chunks shared.
func (m *Manager) deltaWarm(key, tmpName string) (man *dedup.Manifest, st deltaStats, err error) {
	type holder struct {
		addr string
		c    *rblock.Client
	}
	var holders []holder
	defer func() {
		for _, h := range holders {
			h.c.Close() //nolint:errcheck // transfer finished or failed
		}
	}()
	for _, addr := range m.cfg.Peers {
		c, derr := rblock.DialRetry(addr, 2, rblock.DefaultBackoff, nil)
		if derr != nil {
			m.notePeer(addr, 0, derr)
			continue
		}
		c.SetTimeout(DefaultPeerTimeout)
		enc, ferr := c.FetchManifest(key)
		if ferr != nil {
			if !errors.Is(ferr, rblock.ErrNotFound) && !errors.Is(ferr, rblock.ErrBadRequest) {
				m.notePeer(addr, 0, ferr)
			}
			c.Close() //nolint:errcheck // unusable for this transfer
			continue
		}
		mm, merr := dedup.DecodeManifest(enc)
		if merr != nil || (man != nil && mm.Checksum != man.Checksum) {
			c.Close() //nolint:errcheck // disagreeing or corrupt manifest
			continue
		}
		if man == nil {
			man = mm
		}
		holders = append(holders, holder{addr: addr, c: c})
	}
	if man == nil {
		return nil, st, fmt.Errorf("cachemgr: no peer advertises a manifest for %s", key)
	}
	if capacity := m.pool.Capacity(); capacity > 0 && man.Length > capacity {
		return nil, st, fmt.Errorf("cachemgr: %s (%d bytes) exceeds the node cache budget (%d)", key, man.Length, capacity)
	}

	// Stage what is already here; collect what must move. The holds — and
	// those of chunks that land after a failure — go once the fetch workers
	// have all returned, which materialize waits for.
	var held []dedup.Key
	defer func() { m.dstore.Release(held) }()
	var heldMu sync.Mutex
	seen := make(map[dedup.Key]bool, len(man.Entries))
	var missing []dedup.Key
	var reused int64
	for _, e := range man.Entries {
		if seen[e.Hash] {
			continue
		}
		seen[e.Hash] = true
		if m.dstore.Stage(e.Hash) {
			held = append(held, e.Hash)
			reused += int64(e.Len)
		} else {
			missing = append(missing, e.Hash)
		}
	}

	// Fetch the delta: workers claim runs of missing hashes and pull each
	// run in one vectored OpChunkBatch round trip, spreading runs
	// round-robin across the manifest holders and reassigning on failure.
	// The first claim is one chunk, which window 0 waits on: in a v1→v2 warm,
	// entry 0, the qcow header that names the backing file. Batch size adapts
	// to the missing set so small deltas still use every worker, while large
	// ones amortise a round trip over up to 32 chunks (≈4 MiB of max-size
	// blobs, inside the frame cap). The materializer's stop flag, checked in
	// the claim loop, tears the pool down promptly after the first failure —
	// a fetch's or the writer's — instead of letting the survivors drain the
	// cursor.
	workers := deltaFetchWorkers
	batch := min(max(len(missing)/(workers*2), 1), 32)
	if n := 1 + (len(missing)+batch-2)/batch; workers > n && len(missing) > 0 {
		workers = n
	}
	var next atomic.Int64
	var wireBytes atomic.Int64

	// landRun fetches the head of run from one holder and lands what came
	// back, returning how many chunks it covered. fatal marks errors no
	// other holder can fix (a corrupt transfer, local store failure).
	landRun := func(mat *dedup.Materializer, h holder, run []dedup.Key) (served int, fatal bool, err error) {
		hashes := make([][rblock.HashLen]byte, len(run))
		for j, k := range run {
			hashes[j] = [rblock.HashLen]byte(k)
		}
		blobs, ferr := h.c.FetchChunkBatch(hashes)
		var n int64
		for _, b := range blobs {
			n += int64(len(b))
		}
		m.notePeer(h.addr, n, ferr)
		if ferr != nil {
			return 0, false, ferr
		}
		m.stats.dedupChunkBatches.Add(1)
		m.stats.dedupBatchedChunks.Add(int64(len(blobs)))
		for j, comp := range blobs {
			// Deliver hash-verifies before landing on disk, so a corrupt
			// transfer dies here, takes the stage hold that keeps the chunk
			// alive until release, and hands the bytes to the writer.
			if perr := mat.Deliver(run[j], comp); perr != nil {
				return j, true, perr
			}
			heldMu.Lock()
			held = append(held, run[j])
			heldMu.Unlock()
			wireBytes.Add(int64(len(comp)))
		}
		return len(blobs), false, nil
	}

	fetch := func(mat *dedup.Materializer) {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for !mat.Stopped() {
					c := int(next.Add(1)) - 1 // claim c covers [1+(c-1)·batch, 1+c·batch)
					lo, hi := max(1+(c-1)*batch, 0), min(1+c*batch, len(missing))
					if lo >= len(missing) {
						return
					}
					run := missing[lo:hi]
					pos, fails := 0, 0
					for pos < len(run) && !mat.Stopped() {
						h := holders[(c+pos+fails)%len(holders)]
						served, fatal, ferr := landRun(mat, h, run[pos:])
						pos += served
						if ferr == nil {
							fails = 0
							continue
						}
						fails++
						if fatal || fails >= len(holders) {
							mat.Abort(fmt.Errorf("cachemgr: chunk %v: %w", run[pos], ferr))
							return
						}
					}
				}
			}()
		}
		wg.Wait()
	}
	// Blobs are content-verified as they land and the image against the
	// manifest as it is written; committing both before the qcow publication
	// leaves the chunks shared for the next attempt even if that fails.
	st, err = m.materialize(tmpName, man, missing, fetch, key)
	st.wire, st.reused = wireBytes.Load(), reused
	if err != nil {
		return nil, st, err
	}
	m.stats.dedupDeltaStall.Observe(st.stall.Nanoseconds())
	m.dstore.Drop(key + retiredSuffix) //nolint:errcheck // may not exist
	return man, st, nil
}

// Invalidate drops the published cache and manifest for a rebuilt base
// image. The manifest is retired, not deleted: its chunks stay alive until
// the rebuilt image publishes, so the re-publication stores only the
// chunks that actually changed. Sessions already attached keep serving the
// old bytes through their open handles; new Acquires warm the rebuilt
// base from source.
func (m *Manager) Invalidate(base string) error {
	key := m.KeyFor(base)
	removed, err := m.unpublish(key, true)
	if removed {
		m.logf("cachemgr: invalidated %s", key)
	}
	return err
}

// unpublish takes key's published cache out of the pool and off the disk,
// reporting whether it was there, and with retire retires its manifest. It
// holds the key's warm slot while it works, so no warm can publish under the
// key until the old cache is gone.
func (m *Manager) unpublish(key string, retire bool) (removed bool, err error) {
	m.mu.Lock()
	for ws := m.warming[key]; ws != nil && !m.closed; ws = m.warming[key] {
		m.mu.Unlock()
		<-ws.done // let the in-flight warm settle; its output is stale
		m.mu.Lock()
	}
	if m.closed {
		m.mu.Unlock()
		return false, ErrClosed
	}
	hold := &warmState{done: make(chan struct{})}
	m.warming[key] = hold
	m.mu.Unlock()
	defer m.settle(key, hold)
	if removed = m.pool.Remove(key); removed {
		m.swapTables(key, nil)
		m.closeSwarmExport(key)
		if err := os.Remove(filepath.Join(m.dir, key)); err != nil && !errors.Is(err, os.ErrNotExist) {
			return true, err
		}
	}
	if retire && m.dstore != nil {
		if man, ok := m.dstore.Manifest(key); ok {
			if err := m.dstore.Commit(key+retiredSuffix, man); err != nil {
				m.logf("cachemgr: retiring manifest %s: %v", key, err)
			}
			if err := m.dstore.Drop(key); err != nil {
				return removed, err
			}
		}
		m.dedupReserve()
	}
	return removed, nil
}

// DedupStats snapshots the blob store; zero when dedup is disabled.
func (m *Manager) DedupStats() dedup.StoreStats {
	if m.dstore == nil {
		return dedup.StoreStats{}
	}
	return m.dstore.Stats()
}

// dedupExport answers peers' OpManifest/OpChunkBatch queries. Manifests are
// advertised only for caches this node could also serve wholesale
// (published and resident); chunks are served by pure content address —
// whichever cache brought them in, that is the cross-image sharing.
type dedupExport struct{ m *Manager }

func (d dedupExport) EncodedManifest(name string) ([]byte, error) {
	if !d.m.pool.Contains(name) {
		return nil, fmt.Errorf("%w: %s", backend.ErrNotExist, name)
	}
	man, ok := d.m.dstore.Manifest(name)
	if !ok {
		return nil, fmt.Errorf("%w: %s", backend.ErrNotExist, name)
	}
	return man.Encode(), nil
}

func (d dedupExport) ChunkBlob(hash [rblock.HashLen]byte) ([]byte, error) {
	comp, _, err := d.m.dstore.ReadCompressed(dedup.Key(hash))
	return comp, err
}
